// Command rnuma-sim runs one application on one simulated DSM machine and
// prints the run's statistics.
//
// Usage:
//
//	rnuma-sim -app moldyn -protocol rnuma [-bc 128] [-pc 327680] [-T 64]
//	          [-scale 1.0] [-seed 0] [-nodes 8] [-cpus 4] [-soft] [-ideal]
//	          [-record out.rntr] [-parallel N] [-v] [-cpuprofile f] [-memprofile f]
//	rnuma-sim -spec file.json   [...]   (build a declarative spec workload)
//
// Protocols: ccnuma, scoma, rnuma. -ideal runs the normalization baseline
// (CC-NUMA with an infinite block cache) regardless of -protocol.
// Recorded traces replay through `rnuma-trace replay`, which takes the
// machine shape from the trace header.
//
// -record captures the simulated run's reference streams to a trace file
// while it executes (tracefile.Tee, one extra function call per
// reference); the normalization baseline then replays the recorded file,
// so the two runs are guaranteed to see identical references. Recording
// applies to -app and -spec workloads; existing traces are sliced with
// rnuma-trace cut/cat.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"rnuma/internal/config"
	"rnuma/internal/harness"
	"rnuma/internal/machine"
	"rnuma/internal/profiling"
	"rnuma/internal/report"
	"rnuma/internal/tracefile"
	"rnuma/internal/workloads"
)

func main() {
	var (
		appName  = flag.String("app", "moldyn", "application: "+strings.Join(workloads.Names(), ", "))
		specPath = flag.String("spec", "", "build a declarative workload spec file instead of -app")
		protocol = flag.String("protocol", "rnuma", "protocol: ccnuma, scoma, rnuma")
		bc       = flag.Int("bc", -2, "block cache bytes (-1 = infinite, default per protocol)")
		pc       = flag.Int("pc", -2, "page cache bytes (default per protocol)")
		thr      = flag.Int("T", 64, "R-NUMA relocation threshold")
		scale    = flag.Float64("scale", 1.0, "workload scale (iteration multiplier)")
		seed     = flag.Int64("seed", 0, "workload RNG seed (0 = built-in fixed seeds)")
		nodes    = flag.Int("nodes", 8, "SMP nodes")
		cpus     = flag.Int("cpus", 4, "CPUs per node")
		soft     = flag.Bool("soft", false, "use SOFT costs (10-µs traps, 5-µs software shootdowns)")
		ideal    = flag.Bool("ideal", false, "run the infinite-block-cache baseline")
		record   = flag.String("record", "", "record the live run's references to this trace file (tee)")
		parallel = flag.Int("parallel", 0, "concurrent simulations (0 = GOMAXPROCS, 1 = serial)")
		verbose  = flag.Bool("v", false, "log progress")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile to this file at exit")
	)
	flag.Parse()

	sys, err := config.SystemByName(*protocol)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rnuma-sim: %v\n", err)
		os.Exit(2)
	}
	if *ideal {
		sys = config.Ideal()
	}
	if *bc != -2 {
		sys.BlockCacheBytes = *bc
	}
	if *pc != -2 {
		sys.PageCacheBytes = *pc
	}
	sys.Threshold = *thr
	sys.Nodes = *nodes
	sys.CPUsPerNode = *cpus
	if *soft {
		sys.Costs = config.SoftCosts()
	}

	h := harness.New(*scale)
	h.Seed = *seed
	h.Workers = *parallel
	if *verbose {
		h.Log = os.Stderr
	}

	stop, err := profiling.Start(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rnuma-sim: %v\n", err)
		os.Exit(1)
	}
	if *record != "" {
		err = recordRun(sys, *appName, *specPath, *record, *scale, *seed)
	} else {
		err = run(h, sys, *appName, *specPath)
	}
	if perr := stop(); err == nil {
		err = perr
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "rnuma-sim: %v\n", err)
		os.Exit(1)
	}
}

func run(h *harness.Harness, sys config.System, appName, specPath string) error {
	// Resolve the workload: a registered spec source or a catalog
	// application. Sources join the harness's app namespace, so the rest
	// of the pipeline (memoized runs, normalization) is identical.
	name := appName
	var descr string
	if specPath != "" {
		src, err := harness.SpecFileSource(specPath)
		if err != nil {
			return err
		}
		if err := h.Register(src); err != nil {
			return err
		}
		name = src.Name()
		descr = fmt.Sprintf("spec %s", specPath)
	} else {
		app, ok := workloads.ByName(name)
		if !ok {
			return fmt.Errorf("unknown application %q", name)
		}
		descr = app.PaperInput
	}
	if err := sys.Validate(); err != nil {
		return err
	}

	// The requested run and its normalization baseline are independent:
	// fan them out together before assembling the report.
	idealSys := config.Ideal()
	idealSys.Geometry = sys.Geometry
	idealSys.Nodes = sys.Nodes
	idealSys.CPUsPerNode = sys.CPUsPerNode
	h.Prefetch(harness.NewPlan().Add(
		harness.NewJob(name, sys),
		harness.NewJob(name, idealSys)))
	run, err := h.Run(name, sys)
	if err != nil {
		return err
	}
	fmt.Printf("application: %s (%s)\n", name, descr)
	fmt.Printf("system: %s, %dx%d CPUs\n", sys.Name, sys.Nodes, sys.CPUsPerNode)
	report.RunSummary(os.Stdout, sys.Name, run)

	base, err := h.Run(name, idealSys)
	if err == nil && base.ExecCycles > 0 {
		fmt.Printf("  normalized exec time:  %.3f (vs infinite block cache)\n", run.Normalized(base))
	}
	return nil
}

// recordRun simulates the workload once with its streams teed into a
// trace file as they are consumed. The run bypasses the harness memo
// cache (a recording must correspond to exactly one simulation), and the
// ideal-machine normalization replays the recorded file — the baseline
// is therefore guaranteed to see the references the recorded run saw.
func recordRun(sys config.System, appName, specPath, out string, scale float64, seed int64) error {
	// Validate before building: workload construction panics on malformed
	// shapes (it treats them as programmer error), the CLI must not.
	if err := sys.Validate(); err != nil {
		return err
	}
	cfg := workloads.Config{
		Nodes:       sys.Nodes,
		CPUsPerNode: sys.CPUsPerNode,
		Geometry:    sys.Geometry,
		Scale:       scale,
		Seed:        seed,
	}
	var (
		w     *workloads.Workload
		descr string
		err   error
	)
	if specPath != "" {
		src, serr := harness.SpecFileSource(specPath)
		if serr != nil {
			return serr
		}
		if w, err = src.Load(cfg); err != nil {
			return err
		}
		descr = fmt.Sprintf("spec %s", specPath)
	} else {
		app, ok := workloads.ByName(appName)
		if !ok {
			return fmt.Errorf("unknown application %q", appName)
		}
		w = app.Build(cfg)
		descr = app.PaperInput
	}

	f, err := os.Create(out)
	if err != nil {
		return err
	}
	defer f.Close()
	tw, err := tracefile.NewWriter(f, tracefile.WorkloadHeader(w, cfg))
	if err != nil {
		return err
	}
	m, err := machine.New(sys, machine.WithHomes(w.Homes), machine.WithPages(w.SharedPages))
	if err != nil {
		return err
	}
	run, err := m.Run(tracefile.Tee(tw, w.Streams))
	if err != nil {
		return err
	}
	if err := tw.Close(); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("application: %s (%s)\n", w.Name, descr)
	fmt.Printf("system: %s, %dx%d CPUs\n", sys.Name, sys.Nodes, sys.CPUsPerNode)
	report.RunSummary(os.Stdout, sys.Name, run)
	fmt.Printf("  recorded:              %d refs, %d bytes to %s (%.2f bytes/ref)\n",
		tw.Refs(), tw.Bytes(), out, float64(tw.Bytes())/float64(tw.Refs()))

	// Normalize against the ideal machine by replaying the recording.
	rf, err := os.Open(out)
	if err != nil {
		return err
	}
	defer rf.Close()
	d, err := tracefile.NewReader(rf)
	if err != nil {
		return err
	}
	idealSys := config.Ideal()
	idealSys.Geometry = sys.Geometry
	idealSys.Nodes = sys.Nodes
	idealSys.CPUsPerNode = sys.CPUsPerNode
	im, err := machine.New(idealSys, machine.WithHomes(w.Homes), machine.WithPages(w.SharedPages))
	if err != nil {
		return err
	}
	base, err := im.Run(d.Streams())
	if err != nil {
		return err
	}
	if err := d.Err(); err != nil {
		return err
	}
	if base.ExecCycles > 0 {
		fmt.Printf("  normalized exec time:  %.3f (vs infinite block cache, replayed from the recording)\n", run.Normalized(base))
	}
	return nil
}
