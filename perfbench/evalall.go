package main

import (
	"bytes"
	"fmt"
	"strings"
	"time"

	"rnuma/internal/config"
	"rnuma/internal/harness"
	"rnuma/internal/machine"
	"rnuma/internal/model"
	"rnuma/internal/report"
	"rnuma/internal/workloads"
)

// evalRig is one eval-all set-up: a fresh harness over a timing store
// and the declared plan.
type evalRig struct {
	h    *harness.Harness
	st   *timingStore
	plan *harness.Plan
	cold harness.StoreStats // the store after the cold pass
}

func (b *bench) newEvalRig(tr *tracer) *evalRig {
	h := harness.New(1.0)
	h.Seed = b.seed
	h.Workers = b.workers
	st := newTimingStore(h.Store, tr)
	h.Store = st
	return &evalRig{h: h, st: st, plan: h.PlanAll(harness.AllApps())}
}

// runEvalAll is the eval-all workload: the `rnuma-experiments -exp all
// -scale 1.0` pipeline through the same public calls — prefetch of the
// whole plan, then assembly and rendering of every section. A cold pass
// starts from an empty store; warm passes rerun the pipeline on the
// filled store.
func runEvalAll(b *bench) error {
	var rig *evalRig
	newRig := func(tr *tracer) {
		_ = b.setup(func() error { rig = b.newEvalRig(tr); return nil }) // building a rig cannot fail
	}
	for i := 0; i < b.setupReps(200); i++ {
		newRig(nil)
	}

	var cold []byte
	checkOut := func(out []byte, what string) {
		if cold == nil {
			cold = out
			return
		}
		b.check(bytes.Equal(cold, out), "%s report differs from the first cold report", what)
	}

	if b.tr == nil {
		for first := true; b.more(1); first = false {
			if !first {
				newRig(nil)
			}
			var out []byte
			sec := b.pass(func() { out = b.pipeline(rig, nil, 0) })
			b.e2e.cold = append(b.e2e.cold, sec)
			b.e2e.refs += rig.st.executedRefs()
			b.checkRig(rig)
			checkOut(out, "cold")
		}
	} else {
		var out []byte
		untraced := measure(func() { out = b.pipeline(rig, nil, 0) })
		b.checkRig(rig)
		checkOut(out, "untraced cold")
		newRig(b.tr)
		traced := measure(func() {
			b.tr.do("bench.pass", 0, func(id int) int64 {
				out = b.pipeline(rig, b.tr, id)
				return 0
			})
		})
		b.overhead(untraced.sec, traced.sec)
		b.checkRig(rig)
		checkOut(out, "traced cold")
	}

	// Warm passes: the same pipeline over the filled store. Each takes
	// milliseconds, so many are timed and the median reported.
	for i := 0; i < 200; i++ {
		t := time.Now()
		out := b.pipeline(rig, nil, 0)
		b.e2e.warm = append(b.e2e.warm, time.Since(t).Seconds())
		checkOut(out, "warm")
	}
	b.check(rig.h.Simulations() == int64(rig.plan.Len()), "warm passes simulated: %d simulations for %d planned jobs", rig.h.Simulations(), rig.plan.Len())

	b.gate("report", digestBytes(cold))
	keys, runs := rig.st.runs()
	b.gate("runs", runsDigest(keys, runs))
	if b.seed != 0 {
		b.crossCheckEval(rig)
	}
	if b.tr != nil {
		return b.evalLayers(rig)
	}
	return nil
}

// pipeline runs the evaluation: prefetch, then every section in the
// CLI's order, rendered to one buffer byte-equal to its stdout. Each
// plan job is one operation; a failed section fails the pass.
func (b *bench) pipeline(rig *evalRig, tr *tracer, parent int) []byte {
	h, list := rig.h, harness.AllApps()
	tr.do("harness.prefetch", parent, func(id int) int64 {
		rig.st.parent.Store(int64(id))
		h.Prefetch(rig.plan)
		return int64(rig.plan.Len())
	})
	b.attempted += int64(rig.plan.Len())

	var out bytes.Buffer
	sep := func() { fmt.Fprintln(&out, "\n"+strings.Repeat("=", 80)+"\n") }
	section := func(assemble func() error, render func()) {
		var err error
		tr.do("harness.assembly", parent, func(int) int64 { err = assemble(); return 0 })
		if err != nil {
			b.fail("assembly: %v", err)
			return
		}
		tr.do("report.render", parent, func(int) int64 { render(); return 0 })
	}
	var (
		p  model.Params
		c5 []harness.Fig5Curve
		t4 []harness.Table4Row
		f6 []harness.Fig6Row
		f7 []harness.Fig7Row
		f8 []harness.Fig8Row
		f9 []harness.Fig9Row
		lu float64
	)
	section(func() error {
		costs := config.BaseCosts()
		p = model.FromCosts(float64(costs.RemoteFetch),
			float64(costs.PageOpBase()+costs.PageOpPerBlock*32),
			float64(costs.PageOpBase()+costs.PageOpPerBlock*16), 64)
		return nil
	}, func() { report.Model(&out, p); sep() })
	section(func() (err error) { c5, err = h.Figure5(list); return }, func() { report.Figure5(&out, c5); sep() })
	section(func() (err error) { t4, err = h.Table4(list); return }, func() { report.Table4(&out, t4); sep() })
	section(func() (err error) { f6, err = h.Figure6(list); return }, func() { report.Figure6(&out, f6); sep() })
	section(func() (err error) { f7, err = h.Figure7(list); return }, func() { report.Figure7(&out, f7); sep() })
	section(func() (err error) { f8, err = h.Figure8(list); return }, func() { report.Figure8(&out, f8); sep() })
	section(func() (err error) { f9, err = h.Figure9(list); return }, func() { report.Figure9(&out, f9); sep() })
	section(func() (err error) { lu, err = h.LuImbalance(); return }, func() {
		fmt.Fprintf(&out, "LU LOAD IMBALANCE (Section 5.5) — top-2 nodes' share of S-COMA page replacements: %.0f%%\n", lu*100)
		fmt.Fprintln(&out, "(the paper attributes lu's relocation-overhead sensitivity to two overloaded nodes)")
	})
	return out.Bytes()
}

// checkRig checks a cold pass's scheduling: every planned job simulated
// exactly once, by an owner claim the store wrapper saw.
func (b *bench) checkRig(rig *evalRig) {
	rig.cold = rig.st.Stats()
	n := int64(rig.plan.Len())
	keys, _ := rig.st.runs()
	b.check(rig.h.Simulations() == n && int64(len(keys)) == n,
		"cold pass: %d simulations, %d executed runs for %d planned jobs", rig.h.Simulations(), len(keys), n)
}

// crossCheckEval re-simulates two apps under the four designs on freshly
// built workloads, outside the harness, and compares with the store.
func (b *bench) crossCheckEval(rig *evalRig) {
	cfg := workloads.DefaultConfig()
	cfg.Seed = b.seed
	for _, name := range []string{"fft", "em3d"} {
		app, _ := workloads.ByName(name)
		for _, d := range designs {
			live, err := harness.RunWorkload(app.Build(cfg), cfg, d.sys)
			if err != nil {
				b.fail("live run of %s on %s: %v", name, d.sys.Name, err)
				continue
			}
			stored, err := rig.h.Run(name, d.sys)
			b.check(err == nil && sameRun(live, stored), "%s on %s: plan result differs from a live run", name, d.sys.Name)
		}
	}
}

// evalLayers fills eval-all's per-layer metrics: the scheduler's figures
// from the traced pass, and the machine and generation layers timed
// through seams on every catalog app.
func (b *bench) evalLayers(rig *evalRig) error {
	var acc layerAcc
	st := rig.st
	keys, runs := st.runs()
	for _, k := range keys {
		acc.addCounters(runs[k])
	}
	ss := rig.cold
	l := b.layers
	l["harness.simulations"] = float64(rig.h.Simulations())
	l["harness.store_hits"] = float64(ss.Hits)
	l["harness.store_disk_hits"] = float64(ss.DiskHits)
	if pf := b.tr.seconds("harness.prefetch"); pf > 0 {
		l["harness.worker_busy_frac"] = float64(st.busyNs) / 1e9 / (pf * float64(b.workers))
	}
	l["harness.job_s_max"] = float64(st.maxJobNs) / 1e9
	l["harness.assembly_s"] = b.tr.seconds("harness.assembly")
	l["harness.store_commit_s"] = float64(st.commitNs.Load()) / 1e9
	l["harness.store_lookup_s"] = float64(st.lookupNs.Load()) / 1e9

	root := b.tr.start("bench.layers", 0)
	cfg := workloads.DefaultConfig()
	cfg.Seed = b.seed
	for _, app := range workloads.Catalog() {
		b.buildSeam(root, app, cfg)
		w := app.Build(cfg)
		refs := collect(w.Streams)
		for _, d := range designs {
			var m *machine.Machine
			var err error
			sys := d.sys
			b.tr.do("machine.new", root, func(int) int64 {
				m, err = machine.New(sys, machine.WithHomes(w.Homes), machine.WithPages(w.SharedPages))
				return 1
			})
			if err != nil {
				return err
			}
			run, _, err := b.runMachine(&acc, root, d.name, m, refs)
			if err != nil {
				return err
			}
			stored, err := rig.h.Run(app.Name, sys)
			b.check(err == nil && sameRun(run, stored), "%s on %s: Machine.Run over pre-built streams differs from the plan result", app.Name, sys.Name)
		}
	}
	b.eventSeam(root)
	b.tr.end(root, 0)
	b.fillLayers(&acc)
	return nil
}
