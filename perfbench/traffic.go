package main

import (
	"bytes"
	"path/filepath"
	"reflect"

	"rnuma/internal/config"
	"rnuma/internal/harness"
	"rnuma/internal/machine"
	"rnuma/internal/report"
	"rnuma/internal/stats"
	"rnuma/internal/telemetry"
	"rnuma/internal/traffic"
	"rnuma/internal/workloads"
)

// scenarioPath is the traffic scenario the traffic-timeline workload
// compiles, relative to the repository root.
var scenarioPath = filepath.Join("examples", "scenarios", "burst-collision.json")

// runTraffic is the traffic-timeline workload: the burst-collision
// scenario compiled at full scale (set-up), then per pass one R-NUMA run
// with the telemetry probe at its default window and the scenario's
// per-client attribution, rendered as the timeline and client table.
// The pass right after each set-up is cold; later passes are warm.
func runTraffic(b *bench) error {
	cfg := workloads.DefaultConfig()
	cfg.Seed = b.seed
	path := filepath.Join(b.root, scenarioPath)
	var sc *traffic.Scenario
	rnuma := config.Base(config.RNUMA)
	tcfg := telemetry.Config{Window: telemetry.DefaultWindow}
	onePass := func(tr *tracer, parent int) (*stats.Run, []byte) {
		var run *stats.Run
		tr.do("harness.run_workload", parent, func(int) int64 {
			var err error
			run, err = harness.RunWorkload(sc.Workload(), sc.Cfg, rnuma, harness.WithTelemetry(tcfg))
			if !b.op(err) {
				return 0
			}
			return run.Refs
		})
		if run == nil {
			return nil, nil
		}
		var out bytes.Buffer
		tr.do("report.render", parent, func(int) int64 {
			report.Timeline(&out, sc.Name, run.Timeline)
			report.ClientTable(&out, run)
			return 0
		})
		return run, out.Bytes()
	}

	var (
		first    *stats.Run
		firstOut []byte
	)
	checkPass := func(run *stats.Run, out []byte) {
		if run == nil {
			return
		}
		if first == nil {
			first, firstOut = run, out
			return
		}
		b.check(sameRun(first, run) && bytes.Equal(firstOut, out), "pass differs from the first pass")
	}

	measured := func() float64 {
		var (
			run *stats.Run
			out []byte
		)
		sec := b.pass(func() { run, out = onePass(nil, 0) })
		if run != nil {
			b.e2e.refs += run.Refs
		}
		checkPass(run, out)
		return sec
	}

	// Set-up, repeated: every repetition must compile identical streams.
	reps := b.setupReps(5)
	for i := 0; i < reps; i++ {
		var got *traffic.Scenario
		err := b.setup(func() (err error) {
			b.tr.do("traffic.compile", 0, func(int) int64 {
				var spec *traffic.Spec
				if spec, err = traffic.Load(path); err != nil {
					return 0
				}
				spec.Seed = b.seed
				got, err = traffic.Compile(spec, cfg, filepath.Dir(path))
				return 1
			})
			return err
		})
		if err != nil {
			return err
		}
		b.check(sc == nil || reflect.DeepEqual(sc.Refs, got.Refs), "set-up %d compiled the scenario differently", i)
		sc = got
		if b.tr == nil {
			b.e2e.cold = append(b.e2e.cold, measured())
		}
	}

	if b.tr == nil {
		for b.more(reps + 3) {
			b.e2e.warm = append(b.e2e.warm, measured())
		}
	} else {
		untraced := measure(func() { checkPass(onePass(nil, 0)) })
		traced := measure(func() {
			b.tr.do("bench.pass", 0, func(id int) int64 {
				checkPass(onePass(b.tr, id))
				return 0
			})
		})
		b.overhead(untraced.sec, traced.sec)
	}
	if first == nil {
		return nil
	}

	// Correctness: per-client counters sum to the machine totals, the
	// probe never changes a counter, and seed 0 matches its digests.
	var sum telemetry.Counters
	for _, c := range first.Clients {
		sum.Add(c.Counters)
	}
	b.check(len(first.Clients) == len(sc.Clients) && sum.Refs == first.Refs &&
		sum.RemoteFetches == first.RemoteFetches && sum.Refetches == first.Refetches &&
		sum.Relocations == first.Relocations && sum.Replacements == first.Replacements,
		"per-client counters do not sum to the machine totals")
	unprobed, err := harness.RunWorkload(sc.Workload(), sc.Cfg, rnuma)
	b.check(err == nil && sameRun(unprobed, first), "the probe changed the run's counters")
	b.gate("run", runDigest(first))
	b.gate("report", digestBytes(firstOut))

	if b.tr != nil {
		return b.trafficLayers(sc, first)
	}
	return nil
}

// trafficLayers times the probe and the attribution charge as the
// difference between machine runs over the scenario's streams with and
// without each, alternated five times; medians are compared.
func (b *bench) trafficLayers(sc *traffic.Scenario, run *stats.Run) error {
	var acc layerAcc
	acc.addCounters(run)
	l := b.layers
	l["traffic.compile_s"] = b.tr.seconds("traffic.compile") / float64(b.tr.count("traffic.compile"))
	if run.Timeline != nil {
		l["telemetry.intervals"] = float64(len(run.Timeline.Intervals))
	}

	sys := config.Base(config.RNUMA)
	sys.Geometry, sys.Nodes, sys.CPUsPerNode = sc.Cfg.Geometry, sc.Cfg.Nodes, sc.Cfg.CPUsPerNode
	w := sc.Workload()
	arms := []struct {
		span string
		opts []machine.Option
	}{
		{"rnuma", nil}, // machine.run.rnuma: neither
		{"attribution", []machine.Option{machine.WithAttribution(sc.Attr)}},
		{"probe", []machine.Option{machine.WithAttribution(sc.Attr), machine.WithTelemetry(telemetry.Config{Window: telemetry.DefaultWindow})}},
	}
	times := make([][]float64, len(arms))
	root := b.tr.start("bench.layers", 0)
	for rep := 0; rep < 5; rep++ {
		for i, arm := range arms {
			var m *machine.Machine
			var err error
			opts := append([]machine.Option{machine.WithHomes(w.Homes), machine.WithPages(w.SharedPages)}, arm.opts...)
			b.tr.do("machine.new", root, func(int) int64 {
				m, err = machine.New(sys, opts...)
				return 1
			})
			if err != nil {
				return err
			}
			got, sec, err := b.runMachine(&acc, root, arm.span, m, sc.Refs)
			if err != nil {
				return err
			}
			times[i] = append(times[i], sec)
			b.check(sameCounters(got, run), "machine run with the %s arm differs from the pass", arm.span)
		}
	}
	b.eventSeam(root)
	b.tr.end(root, 0)
	b.fillLayers(&acc)
	plain, attr, probe := median(times[0]), median(times[1]), median(times[2])
	l["trace.attribution_pct"] = 100 * (attr - plain) / plain
	l["telemetry.probe_pct"] = 100 * (probe - attr) / attr
	return nil
}
