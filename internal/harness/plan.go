package harness

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"rnuma/internal/config"
	"rnuma/internal/machine"
	"rnuma/internal/stats"
)

// Job identifies one simulation: an application under a system
// configuration, optionally tagged with ablation machine options. Jobs are
// the unit the scheduler deduplicates and fans out; two jobs with the same
// Key share one simulation through the memo cache.
type Job struct {
	App string
	Sys config.System

	// Tag distinguishes ablation variants that share (App, Sys) but run
	// with different machine options; empty for plain runs.
	Tag string

	opts      []machine.Option
	skipHomes bool // round-robin ablation: omit the workload's home map
}

// NewJob builds a plain (untagged) job.
func NewJob(app string, sys config.System) Job {
	return Job{App: app, Sys: sys}
}

// Key is the job's memo-cache identity.
func (j Job) Key() string {
	k := j.App + "|" + sysKey(j.Sys)
	if j.Tag != "" {
		k += "|" + j.Tag
	}
	return k
}

// Plan is a deduplicated set of jobs: each figure/table declares its
// (application, system) pairs into a plan, and shared configurations (for
// example the ideal normalization baseline every figure divides by) appear
// once no matter how many figures request them.
type Plan struct {
	jobs []Job
	seen map[string]struct{}
}

// NewPlan builds an empty plan.
func NewPlan() *Plan {
	return &Plan{seen: make(map[string]struct{})}
}

// Add appends jobs, skipping any already planned.
func (p *Plan) Add(jobs ...Job) *Plan {
	for _, j := range jobs {
		k := j.Key()
		if _, dup := p.seen[k]; dup {
			continue
		}
		p.seen[k] = struct{}{}
		p.jobs = append(p.jobs, j)
	}
	return p
}

// AddRuns appends one job per (app, sys) pair.
func (p *Plan) AddRuns(apps []string, systems ...config.System) *Plan {
	for _, a := range apps {
		for _, s := range systems {
			p.Add(NewJob(a, s))
		}
	}
	return p
}

// Jobs returns the planned jobs in insertion order.
func (p *Plan) Jobs() []Job { return p.jobs }

// Len reports how many distinct jobs are planned.
func (p *Plan) Len() int { return len(p.jobs) }

// ---------------------------------------------------------------------
// Per-figure grids. One table declares exactly the (app, system) grid
// each figure consumes: the FigureN assemblies prefetch their own entry,
// and PlanAll unions every entry so callers can execute the whole
// evaluation concurrently before serial assembly.

// figureGrid is one figure's grid: each system group is declared across
// every application before the next group.
type figureGrid struct {
	groups [][]config.System
	app    string // fixed application (Section 5.5's lu); "" = the caller's list
}

// Figure indexes into figureGrids, in PlanAll order.
const (
	gridFig5 = iota
	gridTable4
	gridFig6
	gridFig7
	gridFig8
	gridFig9
	gridLu
)

// figureGrids is the evaluation's per-figure system table; the FigureN
// assemblies read their systems from it in declaration order.
func figureGrids() []figureGrid {
	cc, sc, rn := config.Base(config.CCNUMA), config.Base(config.SCOMA), config.Base(config.RNUMA)
	cc1k, r32k, r40m := cc, rn, rn
	cc1k.Name, cc1k.BlockCacheBytes = "CC-NUMA b=1K", 1<<10
	r32k.Name, r32k.BlockCacheBytes = "R-NUMA b=32K p=320K", 32<<10
	r40m.Name, r40m.PageCacheBytes = "R-NUMA b=128 p=40M", 40<<20
	// SOFT costs: 10-µs traps and 5-µs software TLB shootdowns.
	scSoft, rnSoft := sc, rn
	scSoft.Name, scSoft.Costs = "S-COMA-SOFT", config.SoftCosts()
	rnSoft.Name, rnSoft.Costs = "R-NUMA-SOFT", config.SoftCosts()
	fig8 := [][]config.System{{rn}}
	for _, T := range Fig8Thresholds {
		rt := rn
		rt.Name, rt.Threshold = fmt.Sprintf("R-NUMA T=%d", T), T
		fig8 = append(fig8, []config.System{rt})
	}
	return []figureGrid{
		gridFig5:   {groups: [][]config.System{{cc}}},
		gridTable4: {groups: [][]config.System{{cc, sc, rn}}},
		gridFig6:   {groups: [][]config.System{{config.Ideal(), cc, sc, rn}}},
		gridFig7:   {groups: [][]config.System{{config.Ideal(), cc1k, cc, rn, r32k, r40m}}},
		gridFig8:   {groups: fig8},
		gridFig9:   {groups: [][]config.System{{config.Ideal(), sc, scSoft, rn, rnSoft}}},
		gridLu:     {groups: [][]config.System{{sc}}, app: "lu"},
	}
}

// figureSystems is figure fig's systems in declaration order.
func figureSystems(fig int) []config.System {
	var out []config.System
	for _, g := range figureGrids()[fig].groups {
		out = append(out, g...)
	}
	return out
}

// addFigure declares one figure's grid into p.
func (p *Plan) addFigure(g figureGrid, apps []string) *Plan {
	if g.app != "" {
		apps = []string{g.app}
	}
	for _, systems := range g.groups {
		p.AddRuns(apps, systems...)
	}
	return p
}

// figurePlan is figure fig's own grid over apps.
func figurePlan(fig int, apps []string) *Plan {
	return NewPlan().addFigure(figureGrids()[fig], apps)
}

// PlanAll declares every figure and table of the evaluation at once.
func (h *Harness) PlanAll(apps []string) *Plan {
	p := NewPlan()
	for _, g := range figureGrids() {
		p.addFigure(g, apps)
	}
	return p
}

// ---------------------------------------------------------------------
// Scheduler.

// workers resolves the concurrency bound: Workers when positive, else
// GOMAXPROCS.
func (h *Harness) workers() int {
	if h.Workers > 0 {
		return h.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// progressPeriod is how often Prefetch reports scheduler progress when
// the harness has a Progress writer.
const progressPeriod = 2 * time.Second

// Prefetch executes the plan's jobs across the harness's worker pool,
// filling the memo cache. Figures assembled afterwards read every result
// from the cache, so their output is byte-identical to a serial run; only
// the wall-clock order of simulations changes. Job errors are left in the
// cache and surface from the (deterministic, serial) assembly instead, so
// a failing configuration reports the same error no matter how the
// schedule interleaved.
func (h *Harness) Prefetch(p *Plan) {
	jobs := p.Jobs()
	w := h.workers()
	if w > len(jobs) {
		w = len(jobs)
	}
	if w <= 1 || len(jobs) < 2 {
		return // serial mode: assembly runs each job on first use
	}
	var done, refs atomic.Int64
	finish := h.progressLoop(len(jobs), &done, &refs)
	ch := make(chan Job)
	var wg sync.WaitGroup
	for i := 0; i < w; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range ch {
				run, _ := h.runJob(j) //nolint:errcheck // cached; assembly reports it
				if run != nil {
					refs.Add(run.Refs)
				}
				done.Add(1)
			}
		}()
	}
	for _, j := range jobs {
		ch <- j
	}
	close(ch)
	wg.Wait()
	finish()
}

// progressLoop starts the periodic progress reporter (a no-op without a
// Progress writer) and returns the function that stops it and emits the
// final jobs/refs/throughput summary line.
func (h *Harness) progressLoop(total int, done, refs *atomic.Int64) (finish func()) {
	if h.Progress == nil {
		return func() {}
	}
	start := time.Now()
	line := func() {
		el := time.Since(start).Seconds()
		if el <= 0 {
			el = 1e-9
		}
		r := refs.Load()
		fmt.Fprintf(h.Progress, "progress: %d/%d jobs, %.2fM refs, %.2fM refs/s\n",
			done.Load(), total, float64(r)/1e6, float64(r)/1e6/el)
	}
	stop := make(chan struct{})
	go func() {
		t := time.NewTicker(progressPeriod)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				line()
			}
		}
	}()
	return func() {
		close(stop)
		line()
	}
}

// RunPlan executes the plan and returns its results keyed by Job.Key, in
// the plan's declaration order. Unlike Prefetch it propagates the first
// (declaration-order) error.
func (h *Harness) RunPlan(p *Plan) (map[string]*stats.Run, error) {
	h.Prefetch(p)
	out := make(map[string]*stats.Run, p.Len())
	for _, j := range p.Jobs() {
		run, err := h.runJob(j)
		if err != nil {
			return nil, err
		}
		out[j.Key()] = run
	}
	return out, nil
}
