package experiment

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"strings"
	"testing"

	"rnuma/internal/harness"
	"rnuma/internal/report"
	"rnuma/internal/tracefile"
)

const ciTrace = "../../testdata/ci/fft.trace"

func mustRead(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func traceInput(t *testing.T) Input {
	return Input{Kind: KindTrace, Name: "fft@ci", Label: "ci-capture", Data: mustRead(t, ciTrace)}
}

// TestValidate pins the one validator both front ends share: value
// errors (HTTP 422, CLI exit 2) name the offending token, structural
// errors are plain errors, and well-formed requests pass.
func TestValidate(t *testing.T) {
	for _, tc := range []struct {
		name  string
		req   Request
		value bool   // want a *ValueError
		token string // "" = want no error
	}{
		{"replay", Request{Type: "replay"}, false, ""},
		{"sweep", Request{Type: "sweep", Axis: "nodes", Values: "4,8"}, false, ""},
		{"sweep missing values", Request{Type: "sweep", Axis: "nodes"}, false, "sweep needs"},
		{"sweep bad value", Request{Type: "sweep", Axis: "nodes", Values: "4,x"}, true, `"x"`},
		{"sweep bad axis", Request{Type: "sweep", Axis: "warp", Values: "4"}, true, `"warp"`},
		{"sweep no points", Request{Type: "sweep", Axis: "nodes", Values: ","}, true, `","`},
		{"grid", Request{Type: "grid", Axis: "block", Values: "16", AxisB: "threshold", ValuesB: "64", KneeBound: 1.2}, false, ""},
		{"grid missing axisB", Request{Type: "grid", Axis: "block", Values: "16"}, false, "grid needs"},
		{"grid bad valuesB", Request{Type: "grid", Axis: "block", Values: "16", AxisB: "threshold", ValuesB: "zap"}, true, `"zap"`},
		{"grid bad axis", Request{Type: "grid", Axis: "warp", Values: "16", AxisB: "threshold", ValuesB: "64"}, true, `"warp"`},
		{"grid equal axes", Request{Type: "grid", Axis: "block", Values: "16", AxisB: "block", ValuesB: "32"}, true, "different axes"},
		{"grid negative bound", Request{Type: "grid", Axis: "block", Values: "16", AxisB: "threshold", ValuesB: "64", KneeBound: -1}, true, "-1"},
		{"timeline", Request{Type: "timeline", Values: "64,16"}, false, ""},
		{"timeline no points", Request{Type: "timeline", Values: ","}, true, `","`},
		{"timeline zero threshold", Request{Type: "timeline", Values: "16,0"}, true, `"0"`},
		{"experiments default", Request{Type: "experiments"}, false, ""},
		{"experiments unknown figure", Request{Type: "experiments", Figures: []string{"6", "12"}}, true, `"12"`},
		{"experiments unknown app", Request{Type: "experiments", Apps: []string{"fft", "doom"}}, true, `"doom"`},
		{"unknown type", Request{Type: "bogus"}, false, `"bogus"`},
	} {
		err := Validate(tc.req)
		if tc.token == "" {
			if err != nil {
				t.Errorf("%s: %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.token) {
			t.Errorf("%s: error %v does not name %s", tc.name, err, tc.token)
			continue
		}
		if got := errors.As(err, new(*ValueError)); got != tc.value {
			t.Errorf("%s: value error = %v, want %v (%v)", tc.name, got, tc.value, err)
		}
	}

	// A registered source's name is an application like the catalog's.
	if err := Validate(Request{Type: "experiments", Apps: []string{"halo-exchange"}}, "halo-exchange"); err != nil {
		t.Errorf("registered source rejected: %v", err)
	}
}

func execute(t *testing.T, h *harness.Harness, req Request, in ...Input) (string, any) {
	t.Helper()
	var buf bytes.Buffer
	doc, err := Execute(h, &buf, req, in...)
	if err != nil {
		t.Fatalf("%s: %v", req.Type, err)
	}
	return buf.String(), doc
}

// TestExecuteKinds drives every kind end to end at test scale: the text
// report lands, and the JSON document is built from the same result.
func TestExecuteKinds(t *testing.T) {
	h := harness.New(0.05)
	tr := traceInput(t)

	text, doc := execute(t, h, Request{Type: "replay", Normalize: true}, tr)
	if !strings.HasPrefix(text, "trace: ci-capture (workload fft, 8 nodes x 4 CPUs)\n") || !strings.Contains(text, "normalized exec time:") {
		t.Errorf("trace replay report:\n%s", text)
	}
	if rd := doc.(report.RunDoc); rd.Name != "fft@ci" || rd.Normalized == 0 {
		t.Errorf("replay doc = %q normalized %v", rd.Name, rd.Normalized)
	}

	spec := Input{Kind: KindSpec, Data: mustRead(t, "../../examples/specs/halo.json")}
	text, _ = execute(t, h, Request{Type: "replay", System: "scoma"}, spec)
	if !strings.Contains(text, "spec: halo") || !strings.Contains(text, "run: S-COMA") || strings.Contains(text, "normalized") {
		t.Errorf("spec replay report:\n%s", text)
	}

	scenario := Input{Kind: KindTraffic, Dir: "../../examples/scenarios", Data: mustRead(t, "../../examples/scenarios/burst-collision.json")}
	text, _ = execute(t, h, Request{Type: "replay", System: "ccnuma"}, scenario)
	if !strings.Contains(text, "traffic: burst-collision") || !strings.Contains(text, "CLIENTS") {
		t.Errorf("traffic replay report:\n%s", text)
	}
	text, doc = execute(t, h, Request{Type: "traffic"}, scenario)
	if !strings.HasPrefix(text, "TRAFFIC — scenario burst-collision") || strings.Count(text, "CLIENTS") != 3 || doc != nil {
		t.Errorf("traffic report (doc %v):\n%s", doc, text)
	}

	text, doc = execute(t, h, Request{Type: "sweep", Axis: "threshold", Values: "16,64"}, tr)
	if sd := doc.(report.SensitivityDoc); !strings.Contains(text, "SENSITIVITY — fft swept over threshold") || len(sd.Points) != 2 {
		t.Errorf("sweep: %d points\n%s", len(sd.Points), text)
	}

	text, doc = execute(t, h, Request{Type: "grid", Axis: "block", Values: "16,32", AxisB: "threshold", ValuesB: "64", KneeBound: 1.5}, tr)
	if gd := doc.(report.GridDoc); !strings.Contains(text, "knees (R-NUMA/best bound 1.50)") || len(gd.Cells) != 1 || len(gd.Cells[0]) != 2 {
		t.Errorf("grid doc %dx? cells\n%s", len(gd.Cells), text)
	}

	b := tr
	b.Name = "fft@other"
	text, doc = execute(t, h, Request{Type: "diffstats", System: "ccnuma", SystemB: "scoma"}, tr, b)
	if dd := doc.(report.DeltaDoc); !strings.HasPrefix(text, "DELTA — fft@ci vs fft@other") || dd.Identical {
		t.Errorf("diffstats (identical %v):\n%s", dd.Identical, text)
	}

	text, doc = execute(t, h, Request{Type: "timeline", Values: "64,16,16"}, tr)
	if strings.Count(text, "fft@ci, R-NUMA T=") != 2 || doc != nil {
		t.Errorf("timeline report (doc %v):\n%s", doc, text)
	}
}

// TestExecuteFigures: every section renders in -exp all order, each
// followed by the separator except the closing lu note, and the JSON
// document carries one entry per section.
func TestExecuteFigures(t *testing.T) {
	h := harness.New(0.05)
	all := []string{"model", "5", "table4", "6", "7", "8", "9", "lu"}
	text, doc := execute(t, h, Request{Type: "experiments", Figures: all, Apps: []string{"fft"}})
	docs := doc.([]report.FigureDoc)
	if len(docs) != len(all) || docs[1].Figure != "figure5" || docs[7].Figure != "lu" {
		t.Errorf("figure docs = %+v", docs)
	}
	if _, err := json.Marshal(docs); err != nil {
		t.Errorf("figure docs do not marshal: %v", err)
	}
	sep := "\n" + strings.Repeat("=", 80) + "\n"
	if got := strings.Count(text, sep); got != len(all)-1 {
		t.Errorf("%d separators, want %d", got, len(all)-1)
	}
	if !strings.HasSuffix(text, "two overloaded nodes)\n") {
		t.Errorf("report does not end with the lu note:\n%s", text[len(text)-200:])
	}

	// A single figure renders exactly the slice of the whole evaluation.
	one, _ := execute(t, harness.New(0.05), Request{Type: "experiments", Figures: []string{"6"}, Apps: []string{"fft"}})
	if !strings.Contains(text, one) || !strings.HasSuffix(one, sep+"\n") {
		t.Errorf("figure 6 alone is not a section of the evaluation:\n%s", one)
	}
}

// TestExecuteErrors: Execute re-validates, checks input arity, and
// rejects inputs of the wrong kind at run time.
func TestExecuteErrors(t *testing.T) {
	h := harness.New(0.05)
	tr := traceInput(t)
	spec := Input{Kind: KindSpec, Name: "halo", Data: mustRead(t, "../../examples/specs/halo.json")}
	for _, tc := range []struct {
		req   Request
		in    []Input
		token string
	}{
		{Request{Type: "sweep", Axis: "nodes", Values: "x"}, []Input{tr}, `"x"`},
		{Request{Type: "sweep", Axis: "nodes", Values: "4"}, nil, "takes 1 inputs"},
		{Request{Type: "diffstats"}, []Input{tr}, "takes 2 inputs"},
		{Request{Type: "sweep", Axis: "nodes", Values: "4"}, []Input{spec}, "needs a trace input, halo is a spec"},
		{Request{Type: "grid", Axis: "block", Values: "16", AxisB: "threshold", ValuesB: "64"}, []Input{spec}, "grid needs a trace input"},
		{Request{Type: "diffstats"}, []Input{tr, spec}, "diffstats needs a trace input"},
		{Request{Type: "timeline", Values: "16"}, []Input{spec}, "timeline needs a trace input"},
		{Request{Type: "traffic"}, []Input{tr}, "traffic needs a traffic input"},
		{Request{Type: "replay", System: "warp"}, []Input{tr}, `"warp"`},
		{Request{Type: "replay"}, []Input{{Kind: "blob", Name: "x"}}, `unknown kind "blob"`},
		{Request{Type: "replay"}, []Input{{Kind: KindTrace, Name: "x", Data: []byte("not a trace")}}, "harness:"},
	} {
		var buf bytes.Buffer
		_, err := Execute(h, &buf, tc.req, tc.in...)
		if err == nil || !strings.Contains(err.Error(), tc.token) {
			t.Errorf("%s: error %v does not name %s", tc.req.Type, err, tc.token)
		}
	}

	// A trace registered under a name already holding other content is
	// rejected rather than silently shadowed.
	var dilated bytes.Buffer
	if _, err := tracefile.Dilate(&dilated, bytes.NewReader(tr.Data), tracefile.DilateSpec{Num: 2, Den: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := Execute(h, new(bytes.Buffer), Request{Type: "replay"}, tr); err != nil {
		t.Fatal(err)
	}
	clash := Input{Kind: KindTrace, Name: tr.Name, Data: dilated.Bytes()}
	if _, err := Execute(h, new(bytes.Buffer), Request{Type: "replay"}, clash); err == nil || !strings.Contains(err.Error(), "different content") {
		t.Errorf("name clash: %v", err)
	}
}
