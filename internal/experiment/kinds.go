package experiment

import (
	"bytes"
	"fmt"
	"io"
	"slices"
	"strings"

	"rnuma/internal/config"
	"rnuma/internal/harness"
	"rnuma/internal/model"
	"rnuma/internal/report"
	"rnuma/internal/stats"
	"rnuma/internal/telemetry"
	"rnuma/internal/tracefile"
	"rnuma/internal/workloads"
)

// sep closes one section of a multi-section report.
func sep(w io.Writer) { fmt.Fprintln(w, "\n"+strings.Repeat("=", 80)+"\n") }

// systemFor resolves a request's system name (default rnuma) and
// threshold override.
func systemFor(name string, threshold int) (config.System, error) {
	if name == "" {
		name = "rnuma"
	}
	sys, err := config.SystemByName(name)
	if err != nil {
		return sys, err
	}
	if threshold > 0 {
		sys.Threshold = threshold
	}
	return sys, nil
}

// registerTrace registers a trace input under its Name and sizes sys to
// the recorded machine shape, the same merge NewTraceMachine performs.
func registerTrace(h *harness.Harness, in Input, sys config.System) (config.System, tracefile.Header, error) {
	src, err := harness.TraceSource(in.Data)
	if err != nil {
		return sys, tracefile.Header{}, err
	}
	hdr := src.(interface{ Header() tracefile.Header }).Header()
	if hdr.Nodes < 1 || hdr.CPUs%hdr.Nodes != 0 {
		return sys, hdr, fmt.Errorf("experiment: trace has %d CPUs on %d nodes (not evenly divided)", hdr.CPUs, hdr.Nodes)
	}
	if err := h.Register(harness.RenamedSource(src, in.Name)); err != nil {
		return sys, hdr, err
	}
	sys.Nodes = hdr.Nodes
	sys.CPUsPerNode = hdr.CPUs / hdr.Nodes
	sys.Geometry = hdr.Geometry
	return sys, hdr, nil
}

func replay(h *harness.Harness, w io.Writer, req Request, _ *parsed, inputs []Input) (any, error) {
	in := inputs[0]
	sys, err := systemFor(req.System, req.Threshold)
	if err != nil {
		return nil, err
	}
	app := in.Name
	switch in.Kind {
	case KindTrace:
		var hdr tracefile.Header
		if sys, hdr, err = registerTrace(h, in, sys); err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "trace: %s (workload %s, %d nodes x %d CPUs)\n", in.label(), hdr.Name, sys.Nodes, sys.CPUsPerNode)
	case KindSpec:
		src, err := harness.SpecSource(in.Data)
		if err != nil {
			return nil, err
		}
		if err := h.Register(src); err != nil {
			return nil, err
		}
		app = src.Name()
		fmt.Fprintf(w, "spec: %s (%d nodes x %d CPUs)\n", app, sys.Nodes, sys.CPUsPerNode)
	case KindTraffic:
		cfg := workloads.Config{
			Nodes:       sys.Nodes,
			CPUsPerNode: sys.CPUsPerNode,
			Geometry:    sys.Geometry,
			Scale:       h.Scale,
			Seed:        h.Seed,
		}
		src, err := harness.TrafficSource(in.Data, in.Dir, cfg)
		if err != nil {
			return nil, err
		}
		if err := h.Register(src); err != nil {
			return nil, err
		}
		app = src.Name()
		fmt.Fprintf(w, "traffic: %s (%d clients, %d nodes x %d CPUs)\n",
			app, len(src.Scenario().Clients), sys.Nodes, sys.CPUsPerNode)
	default:
		return nil, fmt.Errorf("experiment: input %s has unknown kind %q", in.label(), in.Kind)
	}
	run, err := h.Run(app, sys)
	if err != nil {
		return nil, err
	}
	report.RunSummary(w, sys.Name, run)
	if len(run.Clients) > 0 {
		fmt.Fprintln(w)
		report.ClientTable(w, run)
	}
	// The normalization line is the one the offline replay CLI prints.
	var base *stats.Run
	if req.Normalize && sys.BlockCacheBytes != config.InfiniteBlockCache {
		ideal := config.Ideal()
		ideal.Nodes, ideal.CPUsPerNode, ideal.Geometry = sys.Nodes, sys.CPUsPerNode, sys.Geometry
		if base, err = h.Run(app, ideal); err != nil {
			return nil, err
		}
		if base.ExecCycles > 0 {
			fmt.Fprintf(w, "  normalized exec time:  %.3f (vs infinite block cache)\n", run.Normalized(base))
		}
	}
	return report.NewRunDoc(app, sys.Name, run, base), nil
}

func sweep(h *harness.Harness, w io.Writer, _ Request, p *parsed, in []Input) (any, error) {
	pts, name, err := h.Sweep(in[0].Data, p.axis, p.values)
	if err != nil {
		return nil, err
	}
	report.Sensitivity(w, name, p.axis, pts)
	return report.NewSensitivityDoc(name, p.axis, pts), nil
}

func grid(h *harness.Harness, w io.Writer, req Request, p *parsed, in []Input) (any, error) {
	g, err := h.SweepGrid(in[0].Data, p.axis, p.values, p.axisB, p.valuesB)
	if err != nil {
		return nil, err
	}
	report.Grid(w, g, req.KneeBound)
	return report.NewGridDoc(g, req.KneeBound), nil
}

func diffstats(h *harness.Harness, w io.Writer, req Request, _ *parsed, in []Input) (any, error) {
	a, b := in[0], in[1]
	sysA, err := systemFor(req.System, req.Threshold)
	if err != nil {
		return nil, err
	}
	sysB := sysA
	if req.SystemB != "" {
		if sysB, err = systemFor(req.SystemB, req.Threshold); err != nil {
			return nil, err
		}
	}
	if sysA, _, err = registerTrace(h, a, sysA); err != nil {
		return nil, err
	}
	if sysB, _, err = registerTrace(h, b, sysB); err != nil {
		return nil, err
	}
	runA, err := h.Run(a.Name, sysA)
	if err != nil {
		return nil, err
	}
	runB, err := h.Run(b.Name, sysB)
	if err != nil {
		return nil, err
	}
	d := stats.Diff(runA, runB)
	report.DeltaTable(w, a.Name, b.Name, d, false)
	return report.NewDeltaDoc(a.Name, b.Name, d), nil
}

// figure is one section of the paper's evaluation: run computes its rows
// through the harness and renders them, and the rows double as the
// section's JSON document.
type figure struct {
	name, doc string
	run       func(h *harness.Harness, w io.Writer, apps []string) (rows any, err error)
}

// section adapts a harness computation and its renderer to a figure.
func section[T any](compute func(*harness.Harness, []string) (T, error), render func(io.Writer, T)) func(*harness.Harness, io.Writer, []string) (any, error) {
	return func(h *harness.Harness, w io.Writer, apps []string) (any, error) {
		rows, err := compute(h, apps)
		if err != nil {
			return nil, err
		}
		render(w, rows)
		return rows, nil
	}
}

// figures is the evaluation in -exp all order.
var figures = []figure{
	{"model", "model", section(func(*harness.Harness, []string) (model.Params, error) {
		costs := config.BaseCosts()
		return model.FromCosts(float64(costs.RemoteFetch),
			float64(costs.PageOpBase()+costs.PageOpPerBlock*32),
			float64(costs.PageOpBase()+costs.PageOpPerBlock*16), 64), nil
	}, report.Model)},
	{"5", "figure5", section((*harness.Harness).Figure5, report.Figure5)},
	{"table4", "table4", section((*harness.Harness).Table4, report.Table4)},
	{"6", "figure6", section((*harness.Harness).Figure6, report.Figure6)},
	{"7", "figure7", section((*harness.Harness).Figure7, report.Figure7)},
	{"8", "figure8", section((*harness.Harness).Figure8, report.Figure8)},
	{"9", "figure9", section((*harness.Harness).Figure9, report.Figure9)},
	{"lu", "lu", section(func(h *harness.Harness, _ []string) (float64, error) { return h.LuImbalance() },
		func(w io.Writer, share float64) {
			fmt.Fprintf(w, "LU LOAD IMBALANCE (Section 5.5) — top-2 nodes' share of S-COMA page replacements: %.0f%%\n", share*100)
			fmt.Fprintln(w, "(the paper attributes lu's relocation-overhead sensitivity to two overloaded nodes)")
		})},
}

func runFigures(h *harness.Harness, w io.Writer, _ Request, p *parsed, _ []Input) (any, error) {
	// The whole evaluation prefetches as one deduplicated plan; a
	// single figure's assembly prefetches exactly its own grid.
	if slices.EqualFunc(p.figures, figures, func(a, b figure) bool { return a.name == b.name }) {
		h.Prefetch(h.PlanAll(p.apps))
	}
	docs := make([]report.FigureDoc, 0, len(p.figures))
	for _, f := range p.figures {
		rows, err := f.run(h, w, p.apps)
		if err != nil {
			return nil, err
		}
		// The lu note closes the evaluation without a separator.
		if f.name != "lu" {
			sep(w)
		}
		docs = append(docs, report.FigureDoc{Figure: f.doc, Rows: rows})
	}
	return docs, nil
}

// timeline runs one probed trunk-and-fork replay over the requested
// R-NUMA thresholds and renders each point's interval series, relocation
// bursts, and traffic matrix. The harness's telemetry window applies
// when set, else the default window.
func timeline(h *harness.Harness, w io.Writer, _ Request, p *parsed, in []Input) (any, error) {
	tcfg := h.Telemetry
	if !tcfg.Enabled() {
		tcfg = telemetry.Config{Window: telemetry.DefaultWindow}
	}
	res, err := harness.Replay(bytes.NewReader(in[0].Data), config.Base(config.RNUMA),
		harness.WithThresholds(p.thresholds...), harness.WithTelemetry(tcfg))
	if err != nil {
		return nil, err
	}
	for i, T := range p.thresholds {
		if i > 0 && T == p.thresholds[i-1] {
			continue
		}
		report.Timeline(w, fmt.Sprintf("%s, R-NUMA T=%d", in[0].Name, T), res.ByThreshold[T].Timeline)
		sep(w)
	}
	return nil, nil
}

// trafficMix compiles a multi-tenant scenario at the 8x4 base shape and
// the harness's scale and seed, replays the mix under every protocol
// plus the ideal baseline, and breaks each run out per tenant.
func trafficMix(h *harness.Harness, w io.Writer, _ Request, _ *parsed, in []Input) (any, error) {
	cfg := workloads.DefaultConfig()
	cfg.Scale, cfg.Seed = h.Scale, h.Seed
	src, err := harness.TrafficSource(in[0].Data, in[0].Dir, cfg)
	if err != nil {
		return nil, err
	}
	if err := h.Register(src); err != nil {
		return nil, err
	}
	sc := src.Scenario()
	systems := []config.System{
		config.Base(config.CCNUMA), config.Base(config.SCOMA), config.Base(config.RNUMA),
	}
	h.Prefetch(harness.NewPlan().AddRuns([]string{src.Name()}, append(slices.Clone(systems), config.Ideal())...))
	ideal, err := h.Ideal(src.Name())
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "TRAFFIC — scenario %s: %d tenants (%s), %d refs, %d pages\n\n",
		sc.Name, len(sc.Clients), strings.Join(sc.Clients, ", "), sc.Records(), sc.SharedPages)
	fmt.Fprintf(w, "%-28s %10s %10s %10s %10s\n", "system", "norm-exec", "remote", "refetch", "reloc")
	fmt.Fprintln(w, strings.Repeat("-", 72))
	runs := make([]*stats.Run, len(systems))
	for i, sys := range systems {
		if runs[i], err = h.Run(src.Name(), sys); err != nil {
			return nil, err
		}
		norm := 0.0
		if ideal.ExecCycles > 0 {
			norm = runs[i].Normalized(ideal)
		}
		fmt.Fprintf(w, "%-28s %10.3f %10d %10d %10d\n", sys.Name, norm, runs[i].RemoteFetches, runs[i].Refetches, runs[i].Relocations)
	}
	for i, sys := range systems {
		fmt.Fprintf(w, "\n%s:\n", sys.Name)
		report.ClientTable(w, runs[i])
	}
	sep(w)
	return nil, nil
}
