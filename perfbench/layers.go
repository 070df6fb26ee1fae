package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"rnuma/internal/config"
	"rnuma/internal/event"
	"rnuma/internal/harness"
	"rnuma/internal/machine"
	"rnuma/internal/stats"
	"rnuma/internal/trace"
	"rnuma/internal/tracefile"
)

// layerMetrics are the per-layer metrics a traced run prints, every one
// on every workload. A layer the workload's path does not pass through
// reads 0 there (no span of that layer was recorded).
var layerMetrics = []struct{ name, unit string }{
	{"tracefile.decode_ns_per_ref", "ns"},
	{"tracefile.decode_alloc_b_per_ref", "B"},
	{"tracefile.encode_ns_per_ref", "ns"},
	{"tracefile.bytes_per_ref", "B"},
	{"tracefile.transform_s", "s"},
	{"event.ns_per_ref", "ns"},
	{"machine.ns_per_ref.rnuma", "ns"},
	{"machine.ns_per_ref.ccnuma", "ns"},
	{"machine.ns_per_ref.scoma", "ns"},
	{"machine.ns_per_ref.ideal", "ns"},
	{"machine.alloc_b_per_ref", "B"},
	{"machine.new_s", "s"},
	{"machine.refs", "count"},
	{"machine.remote_fetches", "count"},
	{"machine.refetches", "count"},
	{"machine.relocations", "count"},
	{"machine.replacements", "count"},
	{"machine.block_cache_hits", "count"},
	{"machine.page_cache_hits", "count"},
	{"telemetry.probe_pct", "%"},
	{"telemetry.intervals", "count"},
	{"trace.attribution_pct", "%"},
	{"workloads.build_ns_per_ref", "ns"},
	{"traffic.compile_s", "s"},
	{"harness.simulations", "count"},
	{"harness.store_hits", "count"},
	{"harness.store_disk_hits", "count"},
	{"harness.worker_busy_frac", "ratio"},
	{"harness.job_s_max", "s"},
	{"harness.assembly_s", "s"},
	{"harness.fork_vs_replay", "ratio"},
	{"harness.store_commit_s", "s"},
	{"harness.store_lookup_s", "s"},
	{"harness.replay_other_pct", "%"},
	{"report.render_s", "s"},
	{"serve.upload_s", "s"},
	{"serve.cold.queue_wait_s", "s"},
	{"serve.cold.run_s", "s"},
	{"serve.cold.http_s", "s"},
	{"serve.warm.queue_wait_s", "s"},
	{"serve.warm.run_s", "s"},
	{"serve.warm.http_s", "s"},
	{"bench.trace_overhead_pct", "%"},
}

// designs are the four simulated designs the machine layer is timed
// under, by metric suffix.
var designs = []struct {
	name string
	sys  config.System
}{
	{"rnuma", config.Base(config.RNUMA)},
	{"ccnuma", config.Base(config.CCNUMA)},
	{"scoma", config.Base(config.SCOMA)},
	{"ideal", config.Ideal()},
}

// allocated runs fn and returns the heap bytes it allocated.
func allocated(fn func()) uint64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	fn()
	runtime.ReadMemStats(&m1)
	return m1.TotalAlloc - m0.TotalAlloc
}

// layerAcc accumulates the per-layer figures that are not plain span
// sums: allocation per reference and the simulated counters.
type layerAcc struct {
	decodeAlloc, decodeRefs   uint64
	machineAlloc, machineRefs uint64
	counters                  stats.Run
}

// addCounters adds a run's counters to the machine.* totals.
func (a *layerAcc) addCounters(r *stats.Run) {
	c := &a.counters
	c.Refs += r.Refs
	c.RemoteFetches += r.RemoteFetches
	c.Refetches += r.Refetches
	c.Relocations += r.Relocations
	c.Replacements += r.Replacements
	c.BlockCacheHits += r.BlockCacheHits
	c.PageCacheHits += r.PageCacheHits
}

// decodeSeam drains a recorded trace through a tracefile.Reader inside a
// tracefile.decode span (decode alone, no simulation), then decodes it
// again into per-CPU slices for the machine seam.
func (b *bench) decodeSeam(acc *layerAcc, parent int, data []byte) (tracefile.Header, [][]trace.Ref, error) {
	var err error
	acc.decodeAlloc += allocated(func() {
		b.tr.do("tracefile.decode", parent, func(int) int64 {
			var d *tracefile.Reader
			if d, err = tracefile.NewReader(bytes.NewReader(data)); err != nil {
				return 0
			}
			counts, derr := d.Drain()
			err = derr
			var n int64
			for _, c := range counts {
				n += c
			}
			acc.decodeRefs += uint64(n)
			return n
		})
	})
	if err != nil {
		return tracefile.Header{}, nil, err
	}
	d, err := tracefile.NewReader(bytes.NewReader(data))
	if err != nil {
		return tracefile.Header{}, nil, err
	}
	refs := collect(d.Streams())
	return d.Header(), refs, d.Err()
}

// collect pulls every stream into a slice, round-robin in batches so a
// demuxing reader's queues stay small.
func collect(streams []trace.Stream) [][]trace.Ref {
	out := make([][]trace.Ref, len(streams))
	live := len(streams)
	done := make([]bool, len(streams))
	for live > 0 {
		for i, s := range streams {
			if done[i] {
				continue
			}
			n := 0
			if bs, ok := s.(trace.Batcher); ok {
				batch := bs.NextBatch(4096)
				out[i] = append(out[i], batch...)
				n = len(batch)
			} else {
				for ; n < 4096; n++ {
					r, ok := s.Next()
					if !ok {
						break
					}
					out[i] = append(out[i], r)
				}
			}
			if n == 0 {
				done[i] = true
				live--
			}
		}
	}
	return out
}

func sliceStreams(refs [][]trace.Ref) []trace.Stream {
	out := make([]trace.Stream, len(refs))
	for i, r := range refs {
		out[i] = trace.FromSlice(r)
	}
	return out
}

// machineSeam builds a machine for a recorded shape (machine.new span)
// and runs it over pre-decoded streams (machine.run.<design> span).
func (b *bench) machineSeam(acc *layerAcc, parent int, design string, sys config.System, hdr tracefile.Header, refs [][]trace.Ref, opts ...machine.Option) (*stats.Run, error) {
	var (
		m   *machine.Machine
		err error
	)
	b.tr.do("machine.new", parent, func(int) int64 {
		m, _, err = harness.NewTraceMachine(hdr, sys, opts...)
		return 1
	})
	if err != nil {
		return nil, err
	}
	run, _, err := b.runMachine(acc, parent, design, m, refs)
	return run, err
}

// runMachine times Machine.Run over pre-decoded streams inside a
// machine.run.<design> span, returning the run and its seconds.
func (b *bench) runMachine(acc *layerAcc, parent int, design string, m *machine.Machine, refs [][]trace.Ref) (*stats.Run, float64, error) {
	streams := sliceStreams(refs)
	var (
		run *stats.Run
		err error
		sec float64
	)
	alloc := allocated(func() {
		t := time.Now()
		defer func() { sec = time.Since(t).Seconds() }()
		b.tr.do("machine.run."+design, parent, func(int) int64 {
			if run, err = m.Run(streams); err != nil {
				return 0
			}
			return run.Refs
		})
	})
	if err != nil {
		return nil, 0, err
	}
	acc.machineAlloc += alloc
	acc.machineRefs += uint64(run.Refs)
	return run, sec, nil
}

// eventSeam times the event queue alone: 32 actors advanced in the
// machine loop's Peek / SecondClock / Update pattern over a fixed
// latency sequence, and checks the actors' final clocks against the sum
// that sequence always produces.
func (b *bench) eventSeam(parent int) {
	const actors, ops = 32, 4 << 20
	lat := make([]int64, 1024)
	x := uint32(2463534242)
	for i := range lat {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		lat[i] = 1 + int64(x%200)
	}
	var q event.Queue
	as := make([]event.Actor, actors)
	for i := range as {
		as[i].ID = i
		q.Push(&as[i])
	}
	b.tr.do("event.queue", parent, func(int) int64 {
		for i := 0; i < ops; i++ {
			a := q.Peek()
			a.Clock += lat[i&1023]
			if s, ok := q.SecondClock(); ok && s < a.Clock {
				q.Update(a)
			}
		}
		return ops
	})
	var sum int64
	for i := range as {
		sum += as[i].Clock
	}
	b.check(sum == eventClockSum, "event queue: actors' clocks sum to %d, want %d", sum, eventClockSum)
}

// eventClockSum is the actors' clock total after eventSeam's ops.
const eventClockSum = 397389824

// fillLayers derives the span-based per-layer metrics shared by every
// workload, plus the accumulated allocation and counter figures.
func (b *bench) fillLayers(acc *layerAcc) {
	t, l := b.tr, b.layers
	l["tracefile.decode_ns_per_ref"] = t.nsPerCount("tracefile.decode")
	if acc.decodeRefs > 0 {
		l["tracefile.decode_alloc_b_per_ref"] = float64(acc.decodeAlloc) / float64(acc.decodeRefs)
	}
	l["tracefile.encode_ns_per_ref"] = t.nsPerCount("tracefile.encode")
	l["event.ns_per_ref"] = t.nsPerCount("event.queue")
	for _, d := range designs {
		l["machine.ns_per_ref."+d.name] = t.nsPerCount("machine.run." + d.name)
	}
	if acc.machineRefs > 0 {
		l["machine.alloc_b_per_ref"] = float64(acc.machineAlloc) / float64(acc.machineRefs)
	}
	if n := t.count("machine.new"); n > 0 {
		l["machine.new_s"] = t.seconds("machine.new") / float64(n)
	}
	c := acc.counters
	l["machine.refs"] = float64(c.Refs)
	l["machine.remote_fetches"] = float64(c.RemoteFetches)
	l["machine.refetches"] = float64(c.Refetches)
	l["machine.relocations"] = float64(c.Relocations)
	l["machine.replacements"] = float64(c.Replacements)
	l["machine.block_cache_hits"] = float64(c.BlockCacheHits)
	l["machine.page_cache_hits"] = float64(c.PageCacheHits)
	l["workloads.build_ns_per_ref"] = t.nsPerCount("workloads.build")
	l["report.render_s"] = t.seconds("report.render")
}

// overhead records the traced pass's cost over an untraced pass of the
// same work, in percent.
func (b *bench) overhead(untraced, traced float64) {
	if untraced > 0 {
		b.layers["bench.trace_overhead_pct"] = 100 * (traced - untraced) / untraced
	}
	fmt.Fprintf(b.log, "perfbench: %s: untraced pass %.3fs, traced pass %.3fs\n", b.workload, untraced, traced)
}
