package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rnuma/internal/report"
)

// runCLI drives one in-process invocation, returning the exit code and
// captured stdout/stderr.
func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errBuf bytes.Buffer
	code = run(args, &out, &errBuf)
	return code, out.String(), errBuf.String()
}

const ciTrace = "../../testdata/ci/fft.trace"

// TestUsageExitCodes pins exit 2 for usage errors — unknown flags and
// axes, malformed flag pairs, unparseable value lists — with the
// offending token named on stderr. None of these reach a simulation.
func TestUsageExitCodes(t *testing.T) {
	cases := []struct {
		name  string
		args  []string
		token string
	}{
		{"unknown flag", []string{"-bogus"}, "bogus"},
		{"bad sweep value", []string{"-exp", "sweep", "-sweep-axis", "nodes", "-sweep-values", "4,x"}, `"x"`},
		{"bad sweep axis", []string{"-exp", "sweep", "-sweep-axis", "warp"}, `"warp"`},
		{"bad dilate factor", []string{"-exp", "sweep", "-sweep-axis", "dilate", "-sweep-values", "1/0"}, `"1/0"`},
		{"removed dilate experiment", []string{"-exp", "dilate"}, `"dilate"`},
		{"one grid axis", []string{"-exp", "grid", "-grid-axes", "block"}, `"block"`},
		{"equal grid axes", []string{"-exp", "grid", "-grid-axes", "block,block"}, "different axes"},
		{"bad grid axis", []string{"-exp", "grid", "-grid-axes", "block,warp"}, `"warp"`},
		{"bad grid value", []string{"-exp", "grid", "-grid-axes", "block,threshold", "-grid-values-a", "16,zap"}, `"zap"`},
		{"bad timeline threshold", []string{"-exp", "timeline", "-sweep-values", "16,oops"}, `"oops"`},
		{"removed diff flag", []string{"-diff", "a.trace,b.trace"}, "-diff"},
		{"unknown sweep app", []string{"-exp", "sweep", "-sweep-app", "nosuch", "-sweep-axis", "nodes"}, `"nosuch"`},
		{"missing traffic scenario", []string{"-exp", "traffic"}, "-traffic"},
		{"unknown experiment", []string{"-exp", "fig10"}, `"fig10"`},
		{"empty sweep values", []string{"-exp", "sweep", "-sweep-values", ","}, `","`},
		{"empty timeline thresholds", []string{"-exp", "timeline", "-sweep-values", ","}, `","`},
		{"zero timeline threshold", []string{"-exp", "timeline", "-sweep-values", "16,0"}, `"0"`},
		{"negative grid bound", []string{"-exp", "grid", "-grid-bound", "-1"}, "-1"},
		{"unknown app", []string{"-exp", "fig6", "-apps", "fft,doom"}, `"doom"`},
		{"negative window", []string{"-exp", "timeline", "-window", "-3", "-sweep-trace", ciTrace}, "-window"},
	}
	for _, tc := range cases {
		code, _, stderr := runCLI(t, tc.args...)
		if code != 2 {
			t.Errorf("%s: exit %d, want 2 (stderr: %s)", tc.name, code, stderr)
		}
		if !strings.Contains(stderr, tc.token) {
			t.Errorf("%s: stderr %q does not name %s", tc.name, stderr, tc.token)
		}
	}

	// Runtime errors stay exit 1: a well-formed request over a missing file.
	if code, _, stderr := runCLI(t, "-exp", "sweep", "-sweep-axis", "nodes", "-sweep-trace", "nosuch.trace"); code != 1 {
		t.Errorf("missing trace: exit %d, want 1 (stderr: %s)", code, stderr)
	}
}

// TestGridExperiment runs -exp grid end to end over the committed CI
// capture: the heat map, knee conclusions, and JSON document all land.
func TestGridExperiment(t *testing.T) {
	jsonPath := filepath.Join(t.TempDir(), "grid.json")
	code, stdout, stderr := runCLI(t,
		"-exp", "grid", "-sweep-trace", ciTrace,
		"-grid-axes", "block,threshold",
		"-grid-values-a", "16,32", "-grid-values-b", "16,64",
		"-grid-json", jsonPath)
	if code != 0 {
		t.Fatalf("grid exited %d: %s", code, stderr)
	}
	for _, want := range []string{"GRID — fft: block (x) x threshold (y), 2x2 cells", "heat map (R-NUMA/best):", "knees (R-NUMA/best bound 1.10):", "worst cell:"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("grid output missing %q (output:\n%s)", want, stdout)
		}
	}

	var doc report.GridDoc
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("decode -grid-json: %v", err)
	}
	if doc.Workload != "fft" || len(doc.Cells) != 2 || len(doc.Cells[0]) != 2 || len(doc.Knees) != 4 {
		t.Errorf("grid doc = %q %dx%d cells, %d knees", doc.Workload, len(doc.Cells), len(doc.Cells[0]), len(doc.Knees))
	}
}
