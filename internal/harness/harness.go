// Package harness drives the paper's experiments: it instantiates
// machines, executes workloads, and produces the rows of every table and
// figure in the evaluation (Section 5).
//
// The experiment grid is declared as a Plan of Jobs (one per (application,
// system) pair) and executed by a concurrent scheduler: runs are memoized
// in a singleflight cache, so figures that share configurations (e.g., the
// ideal baseline) reuse results and concurrent requests for the same
// configuration run it exactly once. Workers bounds the fan-out; figure
// assembly is serial and reads only the cache, so results are identical to
// a serial run regardless of schedule.
package harness

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"

	"rnuma/internal/config"
	"rnuma/internal/stats"
	"rnuma/internal/telemetry"
	"rnuma/internal/workloads"
)

// Harness runs experiments at a given workload scale.
type Harness struct {
	// Scale multiplies workload iteration counts (1.0 = evaluation size).
	Scale float64
	// Seed perturbs the workload generators' RNGs (workloads.Config.Seed).
	// The default 0 keeps the built-in fixed seeds, so results — and any
	// traces recorded from them — are bit-reproducible run to run.
	// Recorded-trace sources ignore it (their references are baked in).
	Seed int64
	// Log, if non-nil, receives progress lines (serialized across workers).
	Log io.Writer
	// Workers bounds how many simulations run concurrently when a plan is
	// prefetched: 0 means GOMAXPROCS, 1 forces serial execution. Individual
	// Run calls are always synchronous; Workers only governs plan fan-out.
	Workers int
	// Telemetry, when enabled (Window > 0), attaches a sampling probe to
	// every machine the harness builds: each memoized Run then carries a
	// telemetry.Timeline alongside its counters. The memo cache stays
	// keyed on (app, system) alone because the configuration is
	// harness-wide and a probe never changes a run's counters.
	Telemetry telemetry.Config
	// Progress, if non-nil, receives periodic jobs-done/total + refs/sec
	// lines while Prefetch executes a plan (CLIs pass os.Stderr under
	// -progress).
	Progress io.Writer
	// Store memoizes simulation results (singleflight: exactly one run
	// per JobKey, even under concurrent requests). New installs a fresh
	// MemoryStore; replace it before first use to share results across
	// harnesses (the server gives every request its own Harness — own
	// Progress/Log — over one shared Store) or to persist them
	// (DiskStore).
	Store Store

	// srcMu guards the source registry only. It is deliberately separate
	// from the store's internal locking so registering artifacts never
	// contends with result lookups: a server can accept uploads while
	// long simulations are in flight.
	srcMu   sync.Mutex
	logMu   sync.Mutex        // serializes progress lines
	sources map[string]Source // registered spec/trace workloads, by name

	sims atomic.Int64 // simulations this harness executed itself
}

// New builds a harness.
func New(scale float64) *Harness {
	return &Harness{Scale: scale, Store: NewMemoryStore()}
}

// store returns the harness's Store, installing a MemoryStore on first
// use for zero-valued harnesses built without New.
func (h *Harness) store() Store {
	h.srcMu.Lock()
	defer h.srcMu.Unlock()
	if h.Store == nil {
		h.Store = NewMemoryStore()
	}
	return h.Store
}

// Simulations reports how many simulations this harness has executed
// itself. Results served by the store — computed earlier, by another
// harness on the same store, or loaded from disk — are not counted,
// which is exactly what makes it the server's per-job "new work"
// accounting.
func (h *Harness) Simulations() int64 { return h.sims.Load() }

func (h *Harness) logf(format string, args ...any) {
	if h.Log == nil {
		return
	}
	h.logMu.Lock()
	fmt.Fprintf(h.Log, format+"\n", args...)
	h.logMu.Unlock()
}

func sysKey(s config.System) string {
	soft := ""
	if s.Costs.SoftTrap != config.BaseCosts().SoftTrap {
		soft = "-soft"
	}
	// The machine shape and geometry are part of the identity: sweeps run
	// the same protocol at several sizes and block/page geometries and
	// must not share cache slots.
	return fmt.Sprintf("%v-g%d.%d-n%d-c%d-bc%d-pc%d-T%d%s",
		s.Protocol, s.Geometry.BlockShift, s.Geometry.PageShift,
		s.Nodes, s.CPUsPerNode, s.BlockCacheBytes, s.PageCacheBytes, s.Threshold, soft)
}

// Run executes (with memoization) one application under one system.
func (h *Harness) Run(appName string, sys config.System) (*stats.Run, error) {
	return h.runJob(NewJob(appName, sys))
}

// runJob executes a job through the singleflight store: exactly one
// simulation per key ever runs, even under concurrent requests (from
// this harness or any other harness sharing the store).
func (h *Harness) runJob(j Job) (*stats.Run, error) {
	key := h.KeyFor(j)
	st := h.store()
	run, owner, err := st.StartOrWait(key)
	if !owner {
		return run, err
	}
	// The claim MUST resolve: a panic in simulate would otherwise leave
	// every waiter on this key blocked forever. Commit the failure as the
	// result, then let the panic continue to the caller.
	committed := false
	defer func() {
		if committed {
			return
		}
		r := recover()
		st.Commit(key, nil, fmt.Errorf("harness: %s: simulation panicked: %v", key, r))
		if r != nil {
			panic(r)
		}
	}()
	run, err = h.simulate(j)
	h.sims.Add(1)
	st.Commit(key, run, err)
	committed = true
	return run, err
}

// simulate builds the workload and machine for a job and runs it. Each
// call constructs a fresh Machine, so concurrent jobs share no mutable
// state; the workload build is deterministic (fixed seeds), so results do
// not depend on the schedule. Registered sources (spec files, recorded
// traces) take precedence over the built-in catalog.
func (h *Harness) simulate(j Job) (*stats.Run, error) {
	cfg := workloads.Config{
		Nodes:       j.Sys.Nodes,
		CPUsPerNode: j.Sys.CPUsPerNode,
		Geometry:    j.Sys.Geometry,
		Scale:       h.Scale,
		Seed:        h.Seed,
	}
	var w *workloads.Workload
	if src := h.source(j.App); src != nil {
		var err error
		if w, err = src.Load(cfg); err != nil {
			return nil, err
		}
	} else {
		app, ok := workloads.ByName(j.App)
		if !ok {
			return nil, fmt.Errorf("harness: unknown application %q", j.App)
		}
		w = app.Build(cfg)
	}
	if j.Tag != "" {
		h.logf("running %-9s on %-40s [%s]", j.App, j.Sys.Name, j.Tag)
	} else {
		h.logf("running %-9s on %-40s", j.App, j.Sys.Name)
	}
	run, err := RunWorkload(w, cfg, j.Sys, WithTelemetry(h.Telemetry), WithMachineOptions(j.opts...))
	if err != nil {
		return nil, err
	}
	h.logf("  %s", run.Summary())
	return run, nil
}

// Ideal returns the app's run on the normalization baseline (CC-NUMA with
// an infinite block cache).
func (h *Harness) Ideal(appName string) (*stats.Run, error) {
	return h.Run(appName, config.Ideal())
}

// Normalized returns the app's execution time under sys relative to the
// ideal machine.
func (h *Harness) Normalized(appName string, sys config.System) (float64, error) {
	run, err := h.Run(appName, sys)
	if err != nil {
		return 0, err
	}
	base, err := h.Ideal(appName)
	if err != nil {
		return 0, err
	}
	return run.Normalized(base), nil
}

// runsOf runs app under each system in order (memoized).
func (h *Harness) runsOf(app string, systems []config.System) ([]*stats.Run, error) {
	out := make([]*stats.Run, len(systems))
	for i, sys := range systems {
		run, err := h.Run(app, sys)
		if err != nil {
			return nil, err
		}
		out[i] = run
	}
	return out, nil
}

// normalizedOf is each system's execution time for app relative to the
// app's ideal machine, in order.
func (h *Harness) normalizedOf(app string, systems []config.System) ([]float64, error) {
	out := make([]float64, len(systems))
	for i, sys := range systems {
		v, err := h.Normalized(app, sys)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// ---------------------------------------------------------------------
// Figure 5: cumulative distribution of refetches over remote pages under
// CC-NUMA with a 32-KB block cache.

// Fig5Curve is one application's CDF.
type Fig5Curve struct {
	App    string
	Points []stats.CDFPoint
	// At10/At30 sample the curve at 10% and 30% of remote pages (the
	// paper's headline observations).
	At10, At30 float64
}

// Figure5 computes the refetch CDFs. Applications with no refetches (fft)
// return an empty curve, matching the paper's omission of fft.
func (h *Harness) Figure5(apps []string) ([]Fig5Curve, error) {
	h.Prefetch(figurePlan(gridFig5, apps))
	systems := figureSystems(gridFig5)
	out := make([]Fig5Curve, 0, len(apps))
	for _, a := range apps {
		runs, err := h.runsOf(a, systems)
		if err != nil {
			return nil, err
		}
		pts := runs[0].RefetchCDF(int(runs[0].RemotePages))
		out = append(out, Fig5Curve{
			App:    a,
			Points: pts,
			At10:   stats.CDFAt(pts, 10),
			At30:   stats.CDFAt(pts, 30),
		})
	}
	return out, nil
}

// ---------------------------------------------------------------------
// Table 4: read-write page refetch fraction in CC-NUMA; R-NUMA refetches
// and replacements relative to CC-NUMA and S-COMA.

// Table4Row is one application's row.
type Table4Row struct {
	App string
	// RWPagePct: percent of CC-NUMA refetches due to pages with both read
	// and write sharing traffic.
	RWPagePct float64
	// RefetchPct: R-NUMA refetches as a percentage of CC-NUMA's.
	RefetchPct float64
	// ReplacementPct: R-NUMA page replacements as a percentage of
	// S-COMA's.
	ReplacementPct float64
}

// Table4 computes the characterization table.
func (h *Harness) Table4(apps []string) ([]Table4Row, error) {
	h.Prefetch(figurePlan(gridTable4, apps))
	systems := figureSystems(gridTable4)
	out := make([]Table4Row, 0, len(apps))
	for _, a := range apps {
		runs, err := h.runsOf(a, systems)
		if err != nil {
			return nil, err
		}
		cc, sc, rn := runs[0], runs[1], runs[2]
		out = append(out, Table4Row{
			App:            a,
			RWPagePct:      100 * stats.Ratio(cc.RWRefetches, cc.Refetches),
			RefetchPct:     100 * stats.Ratio(rn.Refetches, cc.Refetches),
			ReplacementPct: 100 * stats.Ratio(rn.Replacements, sc.Replacements),
		})
	}
	return out, nil
}

// ---------------------------------------------------------------------
// Figure 6: normalized execution time under the base configurations.

// Fig6Row is one application's three bars.
type Fig6Row struct {
	App                       string
	CCNUMA, SCOMA, RNUMA      float64
	BestOfBase, RNUMAOverBest float64
}

// Figure6 computes the base-system comparison.
func (h *Harness) Figure6(apps []string) ([]Fig6Row, error) {
	h.Prefetch(figurePlan(gridFig6, apps))
	systems := figureSystems(gridFig6)[1:] // after the ideal baseline
	out := make([]Fig6Row, 0, len(apps))
	for _, a := range apps {
		v, err := h.normalizedOf(a, systems)
		if err != nil {
			return nil, err
		}
		best := v[0]
		if v[1] < best {
			best = v[1]
		}
		out = append(out, Fig6Row{
			App: a, CCNUMA: v[0], SCOMA: v[1], RNUMA: v[2],
			BestOfBase:    best,
			RNUMAOverBest: v[2] / best,
		})
	}
	return out, nil
}

// ---------------------------------------------------------------------
// Figure 7: cache-size sensitivity.

// Fig7Row holds the five configurations of Figure 7 for one application.
type Fig7Row struct {
	App       string
	CC1K      float64 // CC-NUMA, 1-KB block cache
	CC32K     float64 // CC-NUMA, 32-KB block cache
	R128p320K float64 // R-NUMA, 128-B block cache, 320-KB page cache
	R32Kp320K float64 // R-NUMA, 32-KB block cache, 320-KB page cache
	R128p40M  float64 // R-NUMA, 128-B block cache, 40-MB page cache
}

// Figure7 computes the cache-size sensitivity study.
func (h *Harness) Figure7(apps []string) ([]Fig7Row, error) {
	h.Prefetch(figurePlan(gridFig7, apps))
	systems := figureSystems(gridFig7)[1:] // after the ideal baseline
	out := make([]Fig7Row, 0, len(apps))
	for _, a := range apps {
		v, err := h.normalizedOf(a, systems)
		if err != nil {
			return nil, err
		}
		out = append(out, Fig7Row{App: a, CC1K: v[0], CC32K: v[1], R128p320K: v[2], R32Kp320K: v[3], R128p40M: v[4]})
	}
	return out, nil
}

// ---------------------------------------------------------------------
// Figure 8: relocation-threshold sensitivity.

// Fig8Thresholds are the paper's threshold values.
var Fig8Thresholds = []int{16, 64, 256, 1024}

// Fig8Row holds execution times at each threshold normalized to T=64.
type Fig8Row struct {
	App string
	ByT map[int]float64
}

// Figure8 computes the threshold sensitivity study.
func (h *Harness) Figure8(apps []string) ([]Fig8Row, error) {
	h.Prefetch(figurePlan(gridFig8, apps))
	systems := figureSystems(gridFig8) // base R-NUMA (T=64), then each T
	out := make([]Fig8Row, 0, len(apps))
	for _, a := range apps {
		runs, err := h.runsOf(a, systems)
		if err != nil {
			return nil, err
		}
		row := Fig8Row{App: a, ByT: make(map[int]float64, len(Fig8Thresholds))}
		for i, T := range Fig8Thresholds {
			row.ByT[T] = runs[i+1].Normalized(runs[0])
		}
		out = append(out, row)
	}
	return out, nil
}

// ---------------------------------------------------------------------
// Figure 9: page-fault and TLB-invalidation overhead sensitivity.

// Fig9Row holds the four systems of Figure 9 normalized to the ideal
// machine.
type Fig9Row struct {
	App                                string
	SCOMA, SCOMASoft, RNUMA, RNUMASoft float64
}

// Figure9 computes the overhead sensitivity study (SOFT = 10-µs traps and
// 5-µs software TLB shootdowns).
func (h *Harness) Figure9(apps []string) ([]Fig9Row, error) {
	h.Prefetch(figurePlan(gridFig9, apps))
	systems := figureSystems(gridFig9)[1:] // after the ideal baseline
	out := make([]Fig9Row, 0, len(apps))
	for _, a := range apps {
		v, err := h.normalizedOf(a, systems)
		if err != nil {
			return nil, err
		}
		out = append(out, Fig9Row{App: a, SCOMA: v[0], SCOMASoft: v[1], RNUMA: v[2], RNUMASoft: v[3]})
	}
	return out, nil
}

// ---------------------------------------------------------------------

// LuImbalance reports the per-node replacement distribution for lu under
// S-COMA (Section 5.5: two nodes perform over half the replacements).
func (h *Harness) LuImbalance() (topTwoShare float64, err error) {
	run, err := h.Run("lu", config.Base(config.SCOMA))
	if err != nil {
		return 0, err
	}
	var counts []int64
	var total int64
	for _, c := range run.PerNodeReplacements {
		counts = append(counts, c)
		total += c
	}
	if total == 0 {
		return 0, nil
	}
	sort.Slice(counts, func(i, j int) bool { return counts[i] > counts[j] })
	var top int64
	for i := 0; i < 2 && i < len(counts); i++ {
		top += counts[i]
	}
	return float64(top) / float64(total), nil
}

// AllApps returns the Table 3 application names.
func AllApps() []string { return workloads.Names() }
