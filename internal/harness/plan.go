package harness

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"rnuma/internal/config"
	"rnuma/internal/machine"
	"rnuma/internal/stats"
	"rnuma/internal/trace"
	"rnuma/internal/workloads"
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

	opts []machine.Option
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
//
// Jobs are dispatched workload by workload (see schedule): a catalog or
// spec workload is generated at most once per Prefetch, by the first of
// its jobs that owns a store claim, so a Prefetch over a filled store
// generates nothing. Dispatch moves to the next workload only after
// handing out the last job of the current one, and a build is dropped
// when its last job finishes, so at most workers+1 builds are alive at
// once and none outlives the call.
func (h *Harness) Prefetch(p *Plan) {
	tasks := h.schedule(p.Jobs())
	if len(tasks) == 0 {
		return
	}
	w := min(h.workers(), len(tasks))
	var done, refs atomic.Int64
	finish := h.progressLoop(len(tasks), &done, &refs)
	ch := make(chan task)
	var wg sync.WaitGroup
	for i := 0; i < w; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := range ch {
				run, simulated, _ := h.runJob(*t.job, t.build) //nolint:errcheck // cached; assembly reports it
				if simulated && run != nil {
					refs.Add(run.Refs)
				}
				t.build.release()
				done.Add(1)
			}
		}()
	}
	for _, t := range tasks {
		ch <- t
	}
	close(ch)
	wg.Wait()
	finish()
}

// task is one plan job and its workload group's shared build (nil when
// the job loads its own workload).
type task struct {
	job   *Job
	build *sharedBuild
}

// workloadKey is a job's workload identity: jobs with equal keys replay
// identical reference streams.
type workloadKey struct {
	app string
	cfg workloads.Config
}

// schedule orders a plan's jobs for dispatch: grouped by workload
// identity, largest groups first so the slowest stragglers are not left
// for the end, plan order among equal-sized groups and within a group.
// Groups of generated workloads (catalog apps and spec sources) share
// one build; recorded traces and traffic scenarios, whose loads open
// fresh readers or streams over already-compiled references, load per
// job.
func (h *Harness) schedule(jobs []Job) []task {
	type group struct {
		jobs  []int // indices into jobs, in plan order
		build *sharedBuild
	}
	var groups []*group
	index := make(map[workloadKey]*group)
	for i := range jobs {
		k := workloadKey{jobs[i].App, h.workloadConfig(jobs[i].Sys)}
		g := index[k]
		if g == nil {
			g = &group{}
			if h.generated(k.app) {
				g.build = &sharedBuild{}
			}
			index[k] = g
			groups = append(groups, g)
		}
		g.jobs = append(g.jobs, i)
	}
	sort.SliceStable(groups, func(a, b int) bool { return len(groups[a].jobs) > len(groups[b].jobs) })
	out := make([]task, 0, len(jobs))
	for _, g := range groups {
		if g.build != nil {
			g.build.left = len(g.jobs)
		}
		for _, i := range g.jobs {
			out = append(out, task{&jobs[i], g.build})
		}
	}
	return out
}

// generated reports whether app's workload is generated in memory from
// its config alone — a catalog app or a spec source — so that one build
// can serve every job of a group. An unknown name counts as a catalog
// app: its shared build fails with the same error a per-job load would.
func (h *Harness) generated(app string) bool {
	switch h.source(app).(type) {
	case nil, *specSource:
		return true
	}
	return false
}

// sharedBuild is one workload group's build. The first job that needs it
// generates it; every job gets its own stream cursors over the build's
// reference slices, which the machine only reads; the group's last job
// drops it.
type sharedBuild struct {
	mu    sync.Mutex
	w     *workloads.Workload
	err   error
	built bool
	left  int // jobs of the group not yet finished
}

// onBuild, when non-nil, sees every shared build made (+1) and dropped
// (-1); tests use it to count builds and bound how many are alive.
var onBuild func(delta int)

// get returns the build (generating it with load on first use) with
// fresh stream cursors for one job. Concurrent callers wait, under the
// lock, for the one generation. Generated workloads come from a
// workloads.Builder, whose streams are all slice-backed.
func (s *sharedBuild) get(load func() (*workloads.Workload, error)) (*workloads.Workload, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.built {
		s.w, s.err = load()
		s.built = true
		if s.w != nil && onBuild != nil {
			onBuild(1)
		}
	}
	if s.err != nil {
		return nil, s.err
	}
	w := *s.w
	w.Streams = make([]trace.Stream, len(s.w.Streams))
	for i, st := range s.w.Streams {
		w.Streams[i] = st.(*trace.SliceStream).Reopen()
	}
	return &w, nil
}

// release records that one of the group's jobs finished, dropping the
// build after the last. It is a no-op on a nil build.
func (s *sharedBuild) release() {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.left--; s.left == 0 && s.w != nil {
		s.w = nil
		if onBuild != nil {
			onBuild(-1)
		}
	}
}

// progressLoop starts the periodic progress reporter (a no-op without a
// Progress writer) and returns the function that stops it and emits the
// final jobs/refs/throughput summary line. The final line waits for the
// reporter to exit, so the two never write to Progress at once.
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
	stop, exited := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(exited)
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
		<-exited
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
		run, _, err := h.runJob(j, nil)
		if err != nil {
			return nil, err
		}
		out[j.Key()] = run
	}
	return out, nil
}
