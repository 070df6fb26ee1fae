// Command rnuma-experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	rnuma-experiments [-exp all|fig5|table4|fig6|fig7|fig8|fig9|model|lu|sweep|grid|timeline|traffic]
//	                  [-apps barnes,lu,...] [-specs a.json,b.json]
//	                  [-traces x.trace,...] [-scale 1.0] [-seed 0]
//	                  [-parallel N] [-v] [-progress] [-window N]
//	                  [-sweep-trace x.trace] [-sweep-app em3d]
//	                  [-sweep-axis nodes|dilate|block|page|threshold] [-sweep-values ...]
//	                  [-grid-axes block,threshold] [-grid-values-a ...] [-grid-values-b ...]
//	                  [-grid-bound 1.10] [-grid-json grid.json]
//
// Each experiment prints the corresponding rows/series of the paper's
// evaluation (Section 5); see EXPERIMENTS.md for paper-vs-measured values.
// The selected experiments' (application, system) grids are combined into
// one deduplicated plan and executed across -parallel workers (default
// GOMAXPROCS) before the figures are assembled, so shared configurations
// (the ideal baseline, the base protocols) simulate once.
//
// -specs and -traces register declarative workload files and recorded
// traces as additional applications: their rows appear in every selected
// figure alongside the Table 3 catalog (memoized by file content hash).
// Recorded traces must match the experiments' 8x4 base machine shape.
//
// The sensitivity experiments replay one capture — from -sweep-trace, or
// recorded from -sweep-app at the base shape — transformed along one
// parameter axis and normalized to the same-configuration ideal machine
// at every point:
//
//   - -exp sweep sweeps one axis (-sweep-axis, default nodes) over
//     -sweep-values, which defaults per axis: nodes 4,8,16 (round-robin
//     re-homing onto each machine size); dilate 1/2,1,2,4 (compute-gap
//     scale factors — the "faster processors" study: x1/2 halves every
//     compute gap, doubling the relative cost of memory); block
//     16,32,64,128 and page 2048,4096,8192 (sizes in bytes, through
//     geometry retargeting); threshold 16,64,256,1024 (R-NUMA's
//     relocation threshold, forked from one trunk replay);
//   - -exp grid sweeps two axes at once (-grid-axes "x,y", values from
//     -grid-values-a/-grid-values-b, defaulting per axis) and renders a
//     heat map of the per-cell R-NUMA/best ratio, the exact numbers, and
//     per-row/column knee conclusions (first point past -grid-bound,
//     default 1.10); -grid-json also writes the machine-readable
//     document. The first axis's transform applies before the second's;
//     when one axis is the threshold, each grid line along it is
//     pre-computed by the snapshot/fork engine at ~1 replay's cost;
//   - -exp timeline runs a probed threshold fork sweep (-sweep-values,
//     default 16,64) and renders each point's time-resolved telemetry:
//     interval series, relocation bursts, and traffic matrix.
//
// These experiments need a trace, so they run only when selected by
// name, never under -exp all.
//
// -exp traffic -traffic scenario.json compiles a multi-tenant traffic
// scenario (see internal/traffic) at the 8x4 base shape, replays the
// merged mix under every protocol plus the ideal baseline, and prints the
// normalized comparison followed by each protocol's per-client counter
// split — how the tenants share (and steal) the machine. Like the other
// file-driven experiments it runs only when selected by name.
//
// -window N attaches the telemetry sampling probe (window N references)
// to every simulation; -progress reports scheduler throughput to stderr
// while a parallel plan executes.
//
// Every experiment runs through internal/experiment, the executor the
// rnuma-serve daemon also uses: this command only parses flags into an
// experiment.Request, resolves its files (or the -sweep-app recording)
// into bytes, and writes -grid-json.
//
// Exit status: 0 on success, 1 on runtime errors (bad trace files,
// simulation failures), 2 on usage errors — unknown flags, experiments,
// axes, figures, or applications, and unparseable -sweep-values/
// -grid-values-* entries, and a negative -window (the offending token is
// named on stderr).
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"rnuma/internal/experiment"
	"rnuma/internal/harness"
	"rnuma/internal/telemetry"
	"rnuma/internal/tracefile"
	"rnuma/internal/workloads"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options holds the parsed flags.
type options struct {
	exp, apps, specs, traces                   string
	scale                                      float64
	seed, window                               int64
	parallel                                   int
	verbose, progress                          bool
	sweepTrace, sweepApp, sweepAxis, sweepVals string
	gridAxes, gridValsA, gridValsB             string
	gridBound                                  float64
	gridJSON, trafficSpec                      string
}

// usageError marks an error that exits 2 rather than 1.
type usageError struct{ error }

func usage(format string, args ...any) error { return usageError{fmt.Errorf(format, args...)} }

// run executes the CLI against injectable streams and returns the
// process exit code: 0 success, 1 runtime error, 2 usage error.
func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("rnuma-experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.exp, "exp", "all", "experiment: all, fig5, table4, fig6, fig7, fig8, fig9, model, lu, sweep, grid, timeline, traffic")
	fs.StringVar(&o.apps, "apps", "", "comma-separated application subset (default: all ten)")
	fs.StringVar(&o.specs, "specs", "", "comma-separated workload spec files to add as applications")
	fs.StringVar(&o.traces, "traces", "", "comma-separated recorded trace files to add as applications")
	fs.Float64Var(&o.scale, "scale", 1.0, "workload scale (iteration multiplier)")
	fs.Int64Var(&o.seed, "seed", 0, "workload RNG seed (0 = built-in fixed seeds)")
	fs.IntVar(&o.parallel, "parallel", 0, "concurrent simulations (0 = GOMAXPROCS, 1 = serial)")
	fs.BoolVar(&o.verbose, "v", false, "log run progress")
	fs.StringVar(&o.sweepTrace, "sweep-trace", "", "recorded trace to sweep (default: record -sweep-app at the 8x4 base shape)")
	fs.StringVar(&o.sweepApp, "sweep-app", "em3d", "catalog application to record for the sweep when no -sweep-trace is given")
	fs.StringVar(&o.sweepAxis, "sweep-axis", "nodes", "-exp sweep axis: nodes, dilate, block, page, threshold")
	fs.StringVar(&o.sweepVals, "sweep-values", "", "comma-separated values for -sweep-axis (default per axis)")
	fs.StringVar(&o.gridAxes, "grid-axes", "block,threshold", "-exp grid axes \"x,y\"; the x transform applies first")
	fs.StringVar(&o.gridValsA, "grid-values-a", "", "comma-separated values for the first grid axis (default per axis)")
	fs.StringVar(&o.gridValsB, "grid-values-b", "", "comma-separated values for the second grid axis (default per axis)")
	fs.Float64Var(&o.gridBound, "grid-bound", 0, "knee bound on R-NUMA/best for -exp grid (0 = default 1.10)")
	fs.StringVar(&o.gridJSON, "grid-json", "", "also write -exp grid's JSON document to this file")
	fs.StringVar(&o.trafficSpec, "traffic", "", "traffic scenario file for -exp traffic")
	fs.Int64Var(&o.window, "window", 0, "telemetry window in references (0 = off; -exp timeline defaults it)")
	fs.BoolVar(&o.progress, "progress", false, "report scheduler progress (jobs done, refs/s) to stderr")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := o.run(stdout, stderr); err != nil {
		fmt.Fprintf(stderr, "rnuma-experiments: %v\n", err)
		if errors.As(err, new(usageError)) {
			return 2
		}
		return 1
	}
	return 0
}

func (o *options) run(stdout, stderr io.Writer) error {
	if o.window < 0 {
		return usage("-window must be >= 0 references, got %d", o.window)
	}
	req, err := o.request()
	if err != nil {
		return err
	}
	h := harness.New(o.scale)
	h.Seed = o.seed
	h.Workers = o.parallel
	if o.verbose {
		h.Log = stderr
	}
	if o.progress {
		h.Progress = stderr
	}
	// -window attaches the sampling probe to every simulation the harness
	// runs; figures are unaffected (they read counters, not timelines).
	h.Telemetry = telemetry.Config{Window: o.window}

	// -specs and -traces rows join every selected figure.
	if req.Apps, err = o.register(h, stderr); err != nil {
		return err
	}
	if err := experiment.Validate(req, h.Sources()...); err != nil {
		return usageError{err}
	}
	in, err := o.inputs(req)
	if err != nil {
		return err
	}
	doc, err := experiment.Execute(h, stdout, req, in...)
	if err != nil {
		return err
	}
	if req.Type == "grid" && o.gridJSON != "" {
		b, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return err
		}
		return os.WriteFile(o.gridJSON, append(b, '\n'), 0o644)
	}
	return nil
}

// figureExps maps -exp names to the executor's figure lists. Selecting
// "all" runs the evaluation as one deduplicated concurrent plan.
var figureExps = map[string][]string{
	"all":   {"model", "5", "table4", "6", "7", "8", "9", "lu"},
	"model": {"model"}, "fig5": {"5"}, "table4": {"table4"}, "fig6": {"6"},
	"fig7": {"7"}, "fig8": {"8"}, "fig9": {"9"}, "lu": {"lu"},
}

// defaultValues are each sweep axis's values when its flag is empty.
var defaultValues = map[harness.Axis]string{
	harness.AxisNodes:     "4,8,16",
	harness.AxisDilate:    "1/2,1,2,4",
	harness.AxisBlockSize: "16,32,64,128",
	harness.AxisPageSize:  "2048,4096,8192",
	harness.AxisThreshold: "16,64,256,1024",
}

// request turns the flags into the executor's request. The sensitivity
// experiments (sweep, grid, timeline) and traffic need
// an input file, so they run only when selected by name, never under
// "all".
func (o *options) request() (experiment.Request, error) {
	if figs, ok := figureExps[o.exp]; ok {
		return experiment.Request{Type: "experiments", Figures: figs}, nil
	}
	switch o.exp {
	case "sweep":
		csv, err := valuesFor(o.sweepAxis, o.sweepVals)
		return experiment.Request{Type: "sweep", Artifact: o.sweepTrace, Axis: o.sweepAxis, Values: csv}, err
	case "grid":
		names := splitList(o.gridAxes)
		if len(names) != 2 {
			return experiment.Request{}, usage("-grid-axes wants exactly two axes \"x,y\", got %q", o.gridAxes)
		}
		xs, err := valuesFor(names[0], o.gridValsA)
		if err != nil {
			return experiment.Request{}, err
		}
		ys, err := valuesFor(names[1], o.gridValsB)
		if err != nil {
			return experiment.Request{}, err
		}
		return experiment.Request{Type: "grid", Artifact: o.sweepTrace, Axis: names[0], Values: xs, AxisB: names[1], ValuesB: ys, KneeBound: o.gridBound}, nil
	case "timeline":
		csv := o.sweepVals
		if csv == "" {
			csv = "16,64"
		}
		return experiment.Request{Type: "timeline", Artifact: o.sweepTrace, Values: csv}, nil
	case "traffic":
		if o.trafficSpec == "" {
			return experiment.Request{}, usage("-exp traffic needs -traffic <scenario.json>")
		}
		return experiment.Request{Type: "traffic", Artifact: o.trafficSpec}, nil
	}
	return experiment.Request{}, usage("unknown -exp %q", o.exp)
}

// valuesFor resolves one axis's value list, defaulting per axis when
// empty; an unknown axis is a usage error naming it.
func valuesFor(axisName, csv string) (string, error) {
	axis, err := harness.ParseAxis(axisName)
	if err != nil {
		return "", usageError{err}
	}
	if csv == "" {
		csv = defaultValues[axis]
	}
	return csv, nil
}

// register adds the -specs and -traces files to the harness and returns
// the application list their rows join. A registered source shadows a
// same-named catalog generator, so a name already in the list (via
// -apps) is not appended again — the row would be the source replay
// twice, never the generator-vs-trace comparison.
func (o *options) register(h *harness.Harness, stderr io.Writer) ([]string, error) {
	list := harness.AllApps()
	if o.apps != "" {
		list = strings.Split(o.apps, ",")
	}
	add := func(src harness.Source, err error) error {
		if err == nil {
			err = h.Register(src)
		}
		if err != nil {
			return err
		}
		if slices.Contains(list, src.Name()) {
			fmt.Fprintf(stderr, "note: %q rows replay the registered source (it shadows the catalog generator)\n", src.Name())
		} else {
			list = append(list, src.Name())
		}
		return nil
	}
	for _, path := range splitList(o.specs) {
		if err := add(harness.SpecFileSource(path)); err != nil {
			return nil, err
		}
	}
	for _, path := range splitList(o.traces) {
		if err := add(harness.TraceFileSource(path)); err != nil {
			return nil, err
		}
	}
	return list, nil
}

// inputs reads the files a request references: the -traffic scenario,
// or the sensitivity experiments' capture — from
// -sweep-trace, or recorded from -sweep-app at the base shape.
func (o *options) inputs(req experiment.Request) ([]experiment.Input, error) {
	read := func(kind, path string) (experiment.Input, error) {
		data, err := os.ReadFile(path)
		return experiment.Input{Kind: kind, Name: path, Dir: filepath.Dir(path), Data: data}, err
	}
	switch {
	case req.Type == "experiments":
		return nil, nil
	case req.Type == "traffic":
		in, err := read(experiment.KindTraffic, req.Artifact)
		return []experiment.Input{in}, err
	case req.Artifact != "":
		in, err := read(experiment.KindTrace, req.Artifact)
		return []experiment.Input{in}, err
	}
	app, ok := workloads.ByName(o.sweepApp)
	if !ok {
		return nil, usage("unknown -sweep-app %q", o.sweepApp)
	}
	cfg := workloads.DefaultConfig()
	cfg.Scale, cfg.Seed = o.scale, o.seed
	var buf bytes.Buffer
	if _, _, err := tracefile.WriteWorkload(&buf, app.Build(cfg), cfg); err != nil {
		return nil, err
	}
	return []experiment.Input{{Kind: experiment.KindTrace, Name: o.sweepApp, Data: buf.Bytes()}}, nil
}

// splitList splits a comma-separated flag, dropping empty entries.
func splitList(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
