package main

import (
	"bytes"
	"fmt"

	"rnuma/internal/config"
	"rnuma/internal/harness"
	"rnuma/internal/stats"
	"rnuma/internal/trace"
	"rnuma/internal/tracefile"
	"rnuma/internal/workloads"
)

// runCatalog is the catalog-replay workload: the ten catalog apps are
// recorded once each at full scale (set-up), and every pass replays each
// recording once under base R-NUMA with the probe off. The pass right
// after each set-up is a cold pass; passes repeated on the same set-up
// are warm.
func runCatalog(b *bench) error {
	cfg := workloads.DefaultConfig()
	cfg.Seed = b.seed
	apps := workloads.Catalog()
	rnuma := config.Base(config.RNUMA)

	var recs [][]byte
	// appPeaks holds each app's peak resident MB per untraced replay: the
	// replays' peaks vary with the collector's timing, so the reported
	// peak is the largest per-app median.
	appPeaks := make([][]float64, len(apps))
	// replayPass replays every recording once; spans hang under parent.
	replayPass := func(tr *tracer, parent int) []*stats.Run {
		runs := make([]*stats.Run, len(apps))
		for i, rec := range recs {
			tr.do("harness.replay", parent, func(int) int64 {
				if tr == nil {
					resetPeakRSS()
					defer func() { appPeaks[i] = append(appPeaks[i], peakRSSMB()) }()
				}
				res, err := harness.Replay(bytes.NewReader(rec), rnuma)
				if !b.op(err) {
					return 0
				}
				runs[i] = res.Run
				return res.Run.Refs
			})
		}
		return runs
	}
	var first []*stats.Run
	checkPass := func(runs []*stats.Run) {
		if first == nil {
			first = runs
			return
		}
		for i := range runs {
			b.check(sameRun(first[i], runs[i]), "pass replayed %s differently", apps[i].Name)
		}
	}
	measured := func() float64 {
		var runs []*stats.Run
		sec := b.pass(func() { runs = replayPass(nil, 0) })
		for _, r := range runs {
			if r != nil {
				b.e2e.refs += r.Refs
			}
		}
		checkPass(runs)
		return sec
	}

	// Set-up, repeated: every repetition must record identical bytes.
	reps := b.setupReps(2)
	for i := 0; i < reps; i++ {
		var got [][]byte
		err := b.setup(func() error {
			var err error
			got, err = recordCatalog(apps, cfg)
			return err
		})
		if err != nil {
			return err
		}
		for j := range recs {
			b.check(bytes.Equal(recs[j], got[j]), "set-up %d recorded %s differently", i, apps[j].Name)
		}
		recs = got
		if b.tr == nil {
			b.e2e.cold = append(b.e2e.cold, measured())
		}
	}

	if b.tr == nil {
		for b.more(reps + 2) {
			b.e2e.warm = append(b.e2e.warm, measured())
		}
		var peak float64
		for _, p := range appPeaks {
			peak = max(peak, median(p))
		}
		b.e2e.peaks = []float64{peak}
	} else {
		untraced := measure(func() { checkPass(replayPass(nil, 0)) })
		var runs []*stats.Run
		traced := measure(func() {
			b.tr.do("bench.pass", 0, func(id int) int64 {
				runs = replayPass(b.tr, id)
				return 0
			})
		})
		b.overhead(untraced.sec, traced.sec)
		checkPass(runs)
		if err := b.catalogLayers(apps, cfg, recs, runs); err != nil {
			return err
		}
	}

	// Correctness: seed 0 against committed digests; any other seed
	// against a live run of the freshly built workload.
	for i, app := range apps {
		if first[i] == nil {
			continue
		}
		if b.seed == 0 {
			b.gate("replay."+app.Name, runDigest(first[i]))
			continue
		}
		live, err := harness.RunWorkload(app.Build(cfg), cfg, rnuma)
		if err != nil {
			b.fail("live run of %s: %v", app.Name, err)
			continue
		}
		b.check(sameRun(live, first[i]), "replay of %s differs from its live run", app.Name)
	}
	return nil
}

// recordCatalog records every app at cfg into memory.
func recordCatalog(apps []workloads.App, cfg workloads.Config) ([][]byte, error) {
	out := make([][]byte, len(apps))
	for i, app := range apps {
		var buf bytes.Buffer
		if _, _, err := tracefile.WriteWorkload(&buf, app.Build(cfg), cfg); err != nil {
			return nil, fmt.Errorf("record %s: %w", app.Name, err)
		}
		out[i] = buf.Bytes()
	}
	return out, nil
}

// catalogLayers times each layer a replay passes through, through public
// seams: decode alone, Machine.Run over pre-decoded streams, encode of
// the same streams, and generation.
func (b *bench) catalogLayers(apps []workloads.App, cfg workloads.Config, recs [][]byte, runs []*stats.Run) error {
	var acc layerAcc
	var bytesTotal int64
	root := b.tr.start("bench.layers", 0)
	for i, rec := range recs {
		bytesTotal += int64(len(rec))
		if runs[i] != nil {
			acc.addCounters(runs[i])
		}
		hdr, refs, err := b.decodeSeam(&acc, root, rec)
		if err != nil {
			return err
		}
		run, err := b.machineSeam(&acc, root, "rnuma", config.Base(config.RNUMA), hdr, refs)
		if err != nil {
			return err
		}
		b.check(runs[i] == nil || sameRun(run, runs[i]), "%s: Machine.Run over pre-decoded streams differs from its replay", apps[i].Name)
		if err := b.encodeSeam(root, hdr, refs); err != nil {
			return err
		}
		b.buildSeam(root, apps[i], cfg)
	}
	b.eventSeam(root)
	b.tr.end(root, 0)

	b.fillLayers(&acc)
	if acc.counters.Refs > 0 {
		b.layers["tracefile.bytes_per_ref"] = float64(bytesTotal) / float64(acc.decodeRefs)
	}
	// What a replay spends outside decode and Machine.Run: reported, not
	// hidden (negative when the two seams together cost more than the
	// interleaved replay).
	if replay := b.tr.seconds("harness.replay"); replay > 0 {
		b.layers["harness.replay_other_pct"] = 100 * (replay - b.tr.seconds("tracefile.decode") - b.tr.seconds("machine.run.rnuma")) / replay
	}
	return nil
}

// encodeSeam encodes pre-decoded streams inside a tracefile.encode span.
func (b *bench) encodeSeam(parent int, hdr tracefile.Header, refs [][]trace.Ref) error {
	w := &workloads.Workload{
		Name:        hdr.Name,
		Streams:     sliceStreams(refs),
		Homes:       hdr.HomeFunc(),
		SharedPages: hdr.SharedPages,
	}
	cfg := workloads.Config{Nodes: hdr.Nodes, CPUsPerNode: hdr.CPUs / hdr.Nodes, Geometry: hdr.Geometry}
	var err error
	b.tr.do("tracefile.encode", parent, func(int) int64 {
		var n int64
		n, _, err = tracefile.WriteWorkload(&bytes.Buffer{}, w, cfg)
		return n
	})
	return err
}

// buildSeam times App.Build plus draining its generated streams.
func (b *bench) buildSeam(parent int, app workloads.App, cfg workloads.Config) {
	b.tr.do("workloads.build", parent, func(int) int64 {
		return drain(app.Build(cfg).Streams)
	})
}

// drain pulls every stream to its end and counts the references.
func drain(streams []trace.Stream) int64 {
	var n int64
	for _, s := range streams {
		if bs, ok := s.(trace.Batcher); ok {
			for {
				k := len(bs.NextBatch(4096))
				if k == 0 {
					break
				}
				n += int64(k)
			}
			continue
		}
		for {
			if _, ok := s.Next(); !ok {
				break
			}
			n++
		}
	}
	return n
}

// sameRun reports whether two runs have identical counters.
func sameRun(a, b *stats.Run) bool {
	return a != nil && b != nil && runDigest(a) == runDigest(b)
}

// sameCounters is sameRun over the machine-level counters alone,
// ignoring the per-client split (present only with attribution).
func sameCounters(a, b *stats.Run) bool {
	if a == nil || b == nil {
		return false
	}
	x, y := *a, *b
	x.Clients, y.Clients = nil, nil
	return runDigest(&x) == runDigest(&y)
}
