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
// -record writes the workload's reference streams to a trace file, then
// replays that recording (the run and its normalization baseline), so
// the report is exactly what `rnuma-trace replay` prints for the file.
// Recording applies to -app and -spec workloads; existing traces are
// sliced with rnuma-trace cut/cat.
//
// The run goes through internal/experiment, the path rnuma-trace replay
// and the rnuma-serve daemon's replay jobs share.
//
// Exit status: 0 on success, 1 on runtime errors, 2 on usage errors
// (unknown flags, protocols, or applications, and extra arguments).
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"rnuma/internal/config"
	"rnuma/internal/experiment"
	"rnuma/internal/harness"
	"rnuma/internal/profiling"
	"rnuma/internal/tracefile"
	"rnuma/internal/workloads"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the CLI against injectable streams and returns the
// process exit code: 0 success, 1 runtime error, 2 usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rnuma-sim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	appName := fs.String("app", "moldyn", "application: "+strings.Join(workloads.Names(), ", "))
	specPath := fs.String("spec", "", "build a declarative workload spec file instead of -app")
	system := config.SystemFlags(fs)
	scale := fs.Float64("scale", 1.0, "workload scale (iteration multiplier)")
	seed := fs.Int64("seed", 0, "workload RNG seed (0 = built-in fixed seeds)")
	nodes := fs.Int("nodes", 8, "SMP nodes")
	cpus := fs.Int("cpus", 4, "CPUs per node")
	record := fs.String("record", "", "record the workload's references to this trace file, then replay it")
	parallel := fs.Int("parallel", 0, "concurrent simulations (0 = GOMAXPROCS, 1 = serial)")
	verbose := fs.Bool("v", false, "log progress")
	cpuProf := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProf := fs.String("memprofile", "", "write a heap profile to this file at exit")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(code int, err error) int {
		fmt.Fprintf(stderr, "rnuma-sim: %v\n", err)
		return code
	}
	if fs.NArg() > 0 {
		return fail(2, fmt.Errorf("unexpected arguments %v", fs.Args()))
	}
	sys, err := system()
	if err != nil {
		return fail(2, err)
	}
	sys.Nodes, sys.CPUsPerNode = *nodes, *cpus
	in := experiment.Input{Kind: experiment.KindApp, Name: *appName}
	if *specPath != "" {
		data, err := os.ReadFile(*specPath)
		if err != nil {
			return fail(1, err)
		}
		in = experiment.Input{Kind: experiment.KindSpec, Name: *specPath, Data: data}
	} else if _, ok := workloads.ByName(*appName); !ok {
		return fail(2, fmt.Errorf("unknown application %q", *appName))
	}

	h := harness.New(*scale)
	h.Seed = *seed
	h.Workers = *parallel
	if *verbose {
		h.Log = stderr
	}
	stop, err := profiling.Start(*cpuProf, *memProf)
	if err != nil {
		return fail(1, err)
	}
	if *record != "" {
		in, err = recordInput(in, sys, *scale, *seed, *record, stderr)
	}
	if err == nil {
		_, err = experiment.Replay(h, stdout, sys, in, true)
	}
	if perr := stop(); err == nil {
		err = perr
	}
	if err != nil {
		return fail(1, err)
	}
	return 0
}

// recordInput builds an app or spec input's workload at sys's shape,
// writes its reference streams to path, and returns the recording as the
// trace input to replay.
func recordInput(in experiment.Input, sys config.System, scale float64, seed int64, path string, stderr io.Writer) (experiment.Input, error) {
	// Validate before building: workload construction panics on malformed
	// shapes (it treats them as programmer error), the CLI must not.
	if err := sys.Validate(); err != nil {
		return in, err
	}
	cfg := workloads.Config{
		Nodes:       sys.Nodes,
		CPUsPerNode: sys.CPUsPerNode,
		Geometry:    sys.Geometry,
		Scale:       scale,
		Seed:        seed,
	}
	var w *workloads.Workload
	if in.Kind == experiment.KindSpec {
		src, err := harness.SpecSource(in.Data)
		if err != nil {
			return in, err
		}
		if w, err = src.Load(cfg); err != nil {
			return in, err
		}
	} else {
		app, _ := workloads.ByName(in.Name) // run rejected unknown names
		w = app.Build(cfg)
	}
	var buf bytes.Buffer
	refs, n, err := tracefile.WriteWorkload(&buf, w, cfg)
	if err != nil {
		return in, err
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return in, err
	}
	fmt.Fprintf(stderr, "recorded %s: %d refs, %d pages, %d bytes to %s (%.2f bytes/ref)\n",
		w.Name, refs, w.SharedPages, n, path, float64(n)/float64(refs))
	return experiment.Input{Kind: experiment.KindTrace, Name: path, Data: buf.Bytes()}, nil
}
