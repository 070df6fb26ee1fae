// Package experiment is the one path from an experiment request to its
// reports. Both front ends build a Request and resolve its inputs to
// bytes — rnuma-experiments from flags and files, rnuma-serve from an
// HTTP body and uploaded artifacts — then call Execute, which validates
// the request, drives the harness, and renders the text report and (for
// the kinds that have one) the JSON document from the same harness
// result. The same request therefore renders the same bytes through
// either front end, and both reject the same bad inputs through Validate.
package experiment

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"

	"rnuma/internal/harness"
	"rnuma/internal/workloads"
)

// Request is one experiment. Type selects the kind; the remaining fields
// apply per kind (see the field comments). It doubles as the daemon's
// job submission, so the JSON field names are the HTTP API.
type Request struct {
	// Type is "replay", "sweep", "grid", "diffstats", "experiments",
	// "timeline", or "traffic". The daemon serves the first five.
	Type string `json:"type"`

	// Artifact references the daemon's input (ID, unique ID prefix, or
	// unique name) for replay, sweep, grid, and diffstats. Front ends
	// resolve references to Inputs before Execute.
	Artifact string `json:"artifact,omitempty"`
	// System names the simulated design: ccnuma, scoma, rnuma, or ideal
	// (default rnuma). Replay and diffstats.
	System string `json:"system,omitempty"`
	// Threshold overrides R-NUMA's relocation threshold when > 0.
	Threshold int `json:"threshold,omitempty"`
	// Normalize also runs the same-shape ideal machine and reports
	// execution time relative to it (replay only).
	Normalize bool `json:"normalize,omitempty"`

	// Axis and Values define a sweep: axis nodes|dilate|block|page|threshold
	// and a comma-separated value list ("4,8,16"; rationals on dilate).
	// Grid jobs use them as the X axis (its transform applies first);
	// timeline uses Values as its R-NUMA thresholds.
	Axis   string `json:"axis,omitempty"`
	Values string `json:"values,omitempty"`

	// AxisB and ValuesB are a grid job's Y axis; KneeBound overrides the
	// knee detector's R-NUMA/best bound when > 0 (default 1.10).
	AxisB     string  `json:"axisB,omitempty"`
	ValuesB   string  `json:"valuesB,omitempty"`
	KneeBound float64 `json:"kneeBound,omitempty"`

	// ArtifactB and SystemB are diffstats' second run (SystemB defaults
	// to System).
	ArtifactB string `json:"artifactB,omitempty"`
	SystemB   string `json:"systemB,omitempty"`

	// Figures selects paper figures for experiments jobs: "model", "5",
	// "table4", "6", "7", "8", "9", "lu" (default "6"). Apps restricts
	// the application list (default: the full catalog).
	Figures []string `json:"figures,omitempty"`
	Apps    []string `json:"apps,omitempty"`
}

// Input kinds.
const (
	KindTrace   = "trace"   // a recorded tracefile encoding
	KindSpec    = "spec"    // a declarative workload spec (JSON)
	KindTraffic = "traffic" // a multi-tenant traffic scenario (JSON)
)

// Input is one resolved input: the bytes of a trace, spec, or traffic
// scenario plus the names the reports print for it. Replay, sweep, grid,
// timeline, and traffic take one input; diffstats takes two; experiments
// takes none.
type Input struct {
	Kind string
	// Name registers a trace with the harness; diffstats tables and
	// timeline headings print it.
	Name string
	// Label names the input in replay headers and kind errors (default
	// Name).
	Label string
	// Dir resolves a traffic scenario's relative spec paths.
	Dir  string
	Data []byte
}

func (in Input) label() string {
	if in.Label != "" {
		return in.Label
	}
	return in.Name
}

// ValueError marks a request whose fields are present but name a bad
// value: an unparseable axis or value list, an unknown figure or
// application, a negative knee bound. The message names the offending
// token; the daemon answers these 422 and the CLI exits 2.
type ValueError struct{ Err error }

func (e *ValueError) Error() string { return e.Err.Error() }
func (e *ValueError) Unwrap() error { return e.Err }

func valuef(format string, args ...any) error {
	return &ValueError{fmt.Errorf(format, args...)}
}

// parsed is a validated request's decoded fields.
type parsed struct {
	axis, axisB     harness.Axis
	values, valuesB []harness.SweepValue
	thresholds      []int
	figures         []figure
	apps            []string
}

// Validate checks a request before any input is resolved or simulation
// runs. sources names registered workloads that an experiments request
// may list besides the catalog. Errors that are not *ValueError are
// structural: a missing field or an unknown type.
func Validate(req Request, sources ...string) error {
	_, err := parse(req, sources)
	return err
}

func parse(req Request, sources []string) (*parsed, error) {
	if _, ok := kinds[req.Type]; !ok {
		return nil, fmt.Errorf("experiment: unknown type %q", req.Type)
	}
	p := &parsed{}
	var err error
	switch req.Type {
	case "sweep":
		if req.Axis == "" || req.Values == "" {
			return nil, errors.New("experiment: sweep needs axis and values")
		}
		p.axis, p.values, err = axisValues(req.Axis, req.Values)
	case "grid":
		if req.Axis == "" || req.Values == "" || req.AxisB == "" || req.ValuesB == "" {
			return nil, errors.New("experiment: grid needs axis, values, axisB, and valuesB")
		}
		if p.axis, p.values, err = axisValues(req.Axis, req.Values); err != nil {
			return nil, err
		}
		if p.axisB, p.valuesB, err = axisValues(req.AxisB, req.ValuesB); err != nil {
			return nil, err
		}
		if p.axis == p.axisB {
			return nil, valuef("experiment: grid axes must name two different axes (both %s)", p.axis)
		}
		if req.KneeBound < 0 {
			return nil, valuef("experiment: bad kneeBound %v (must be >= 0)", req.KneeBound)
		}
	case "timeline":
		var vals []harness.SweepValue
		if _, vals, err = axisValues("threshold", req.Values); err != nil {
			return nil, err
		}
		for _, v := range vals {
			if v.Num < 1 {
				return nil, valuef("experiment: bad timeline threshold %q (must be >= 1)", v)
			}
			p.thresholds = append(p.thresholds, int(v.Num))
		}
		sort.Ints(p.thresholds)
	case "experiments":
		p.figures, p.apps, err = figuresAndApps(req, sources)
	}
	if err != nil {
		return nil, err
	}
	return p, nil
}

// axisValues resolves an axis name and its comma-separated value list.
func axisValues(axisName, values string) (harness.Axis, []harness.SweepValue, error) {
	axis, err := harness.ParseAxis(axisName)
	if err != nil {
		return 0, nil, &ValueError{err}
	}
	vals, err := harness.ParseSweepValues(axis, values)
	if err != nil {
		return 0, nil, &ValueError{err}
	}
	if len(vals) == 0 {
		return 0, nil, valuef("experiment: %s values %q name no points", axis, values)
	}
	return axis, vals, nil
}

// figuresAndApps resolves an experiments request's figure and
// application lists, defaulting to Figure 6 over the whole catalog.
func figuresAndApps(req Request, sources []string) ([]figure, []string, error) {
	names := req.Figures
	if len(names) == 0 {
		names = []string{"6"}
	}
	var figs []figure
	for _, name := range names {
		i := slices.IndexFunc(figures, func(f figure) bool { return f.name == name })
		if i < 0 {
			return nil, nil, valuef("experiment: unknown figure %q (want model, 5, table4, 6, 7, 8, 9, or lu)", name)
		}
		figs = append(figs, figures[i])
	}
	apps := req.Apps
	if len(apps) == 0 {
		apps = harness.AllApps()
	}
	for _, a := range apps {
		if _, ok := workloads.ByName(a); !ok && !slices.Contains(sources, a) {
			return nil, nil, valuef("experiment: unknown application %q", a)
		}
	}
	return figs, apps, nil
}

// kind is one request type: the kinds of the inputs it takes ("" = any)
// and its runner, which writes the text report and returns the JSON
// document (nil for timeline and traffic, which have none).
type kind struct {
	inputs []string
	run    func(h *harness.Harness, w io.Writer, req Request, p *parsed, in []Input) (any, error)
}

var kinds = map[string]kind{
	"replay":      {[]string{""}, replay},
	"sweep":       {[]string{KindTrace}, sweep},
	"grid":        {[]string{KindTrace}, grid},
	"diffstats":   {[]string{KindTrace, KindTrace}, diffstats},
	"experiments": {nil, runFigures},
	"timeline":    {[]string{KindTrace}, timeline},
	"traffic":     {[]string{KindTraffic}, trafficMix},
}

// Execute validates req against the harness's registered sources, runs
// it over the resolved inputs, writes the text report to w as it goes,
// and returns the JSON document.
func Execute(h *harness.Harness, w io.Writer, req Request, in ...Input) (doc any, err error) {
	p, err := parse(req, h.Sources())
	if err != nil {
		return nil, err
	}
	k := kinds[req.Type]
	if len(in) != len(k.inputs) {
		return nil, fmt.Errorf("experiment: %s takes %d inputs, got %d", req.Type, len(k.inputs), len(in))
	}
	for i, want := range k.inputs {
		if want != "" && in[i].Kind != want {
			return nil, fmt.Errorf("experiment: %s needs a %s input, %s is a %s", req.Type, want, in[i].label(), in[i].Kind)
		}
	}
	return k.run(h, w, req, p, in)
}
