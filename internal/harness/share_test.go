package harness

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"rnuma/internal/config"
	"rnuma/internal/trace"
	"rnuma/internal/workloads"
)

// shareSystems are the designs the sharing tests run every workload
// under: the ideal baseline, the three base designs, and an R-NUMA that
// relocates at a low threshold.
func shareSystems() []config.System {
	rt := config.Base(config.RNUMA)
	rt.Name, rt.Threshold = "R-NUMA T=16", 16
	return []config.System{config.Ideal(), config.Base(config.CCNUMA), config.Base(config.SCOMA), config.Base(config.RNUMA), rt}
}

// countBuilds installs an onBuild hook for the test's duration and
// returns counters of builds made, builds alive now, and the most alive
// at once.
func countBuilds(t *testing.T) (made, alive, peak func() int) {
	t.Helper()
	var mu sync.Mutex
	var m, a, p int
	onBuild = func(delta int) {
		mu.Lock()
		defer mu.Unlock()
		if delta > 0 {
			m++
		}
		a += delta
		p = max(p, a)
	}
	t.Cleanup(func() { onBuild = nil })
	read := func(v *int) func() int {
		return func() int { mu.Lock(); defer mu.Unlock(); return *v }
	}
	return read(&m), read(&a), read(&p)
}

// TestSharedBuildMatchesFreshBuild: every catalog app gives the same run
// under every design whether Prefetch builds it once for all of its
// jobs or each job builds its own (-short checks three apps).
func TestSharedBuildMatchesFreshBuild(t *testing.T) {
	apps := AllApps()
	if testing.Short() {
		apps = []string{"em3d", "fft", "raytrace"}
	}
	systems := shareSystems()
	h := New(0.02)
	h.Workers = 2
	made, _, _ := countBuilds(t)
	h.Prefetch(NewPlan().AddRuns(apps, systems...))
	if got, want := made(), len(apps); got != want {
		t.Errorf("Prefetch made %d builds for %d workloads", got, want)
	}
	for _, app := range apps {
		a, _ := workloads.ByName(app)
		for _, sys := range systems {
			cfg := h.workloadConfig(sys)
			fresh, err := RunWorkload(a.Build(cfg), cfg, sys)
			if err != nil {
				t.Fatal(err)
			}
			shared, err := h.Run(app, sys)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(fresh, shared) {
				t.Errorf("%s on %s: the shared build's run differs from a fresh build's", app, sys.Name)
			}
		}
	}
	if n := h.Simulations(); n != int64(len(apps)*len(systems)) {
		t.Errorf("%d simulations, want one per job", n)
	}
}

// streamRefs drains a fresh cursor over each of a build's streams.
func streamRefs(w *workloads.Workload) [][]trace.Ref {
	out := make([][]trace.Ref, len(w.Streams))
	for i, s := range w.Streams {
		c := s.(*trace.SliceStream).Reopen()
		for b := c.NextBatch(1 << 16); len(b) > 0; b = c.NextBatch(1 << 16) {
			out[i] = append(out[i], b...)
		}
	}
	return out
}

// TestSharedBuildReadOnly: two concurrent jobs replaying one shared
// build leave its reference slices byte-unchanged, and the build is
// dropped once both have finished.
func TestSharedBuildReadOnly(t *testing.T) {
	h := New(0.05)
	b := &sharedBuild{left: 2}
	sys := []config.System{config.Base(config.RNUMA), config.Ideal()}
	var wg sync.WaitGroup
	for _, s := range sys {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := h.simulate(NewJob("em3d", s), b); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	a, _ := workloads.ByName("em3d")
	want := streamRefs(a.Build(h.workloadConfig(sys[0])))
	if got := streamRefs(b.w); !reflect.DeepEqual(got, want) {
		t.Error("replaying the shared build changed its references")
	}
	b.release()
	b.release()
	if b.w != nil {
		t.Error("the build outlived its group's last job")
	}
}

// TestPrefetchBuildsOncePerPlan: a cold Prefetch builds each workload
// once however many jobs replay it, keeps at most workers+1 builds alive
// at once and none after it returns; a warm Prefetch over the filled
// store builds nothing. Two small apps at three machine sizes make six
// workloads.
func TestPrefetchBuildsOncePerPlan(t *testing.T) {
	plan := NewPlan()
	for _, nodes := range []int{2, 4, 8} {
		for _, sys := range shareSystems()[1:4] {
			sys.Nodes = nodes
			plan.AddRuns([]string{"fft", "em3d"}, sys)
		}
	}
	const groups = 6
	for _, workers := range []int{1, 2, 3} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			made, alive, peak := countBuilds(t)
			h := New(0.02)
			h.Workers = workers
			h.Prefetch(plan)
			if made() != groups {
				t.Errorf("cold Prefetch made %d builds for %d workloads", made(), groups)
			}
			if peak() > workers+1 {
				t.Errorf("%d builds alive at once on %d workers", peak(), workers)
			}
			if alive() != 0 {
				t.Errorf("%d builds alive after Prefetch returned", alive())
			}
			warm := New(h.Scale)
			warm.Store = h.Store
			warm.Workers = workers
			warm.Prefetch(plan)
			if made() != groups {
				t.Errorf("warm Prefetch made %d builds", made()-groups)
			}
			if warm.Simulations() != 0 {
				t.Errorf("warm Prefetch ran %d simulations", warm.Simulations())
			}
		})
	}
}

// TestScheduleGroupsWorkloads: dispatch runs each workload's jobs
// together, largest groups first and plan order otherwise; only
// generated workloads share a build.
func TestScheduleGroupsWorkloads(t *testing.T) {
	h := New(0.05)
	src, err := TraceSource(recordCatalog(t, "fft", 0.05))
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Register(RenamedSource(src, "rec")); err != nil {
		t.Fatal(err)
	}
	cc, rn := config.Base(config.CCNUMA), config.Base(config.RNUMA)
	rn4 := rn
	rn4.Nodes = 4
	p := NewPlan().Add(NewJob("lu", cc), NewJob("rec", cc), NewJob("fft", cc), NewJob("fft", rn),
		NewJob("rec", rn), NewJob("fft", rn4), NewJob("fft", config.Ideal()))
	var got []string
	shared := map[*sharedBuild]bool{}
	for _, tk := range h.schedule(p.Jobs()) {
		got = append(got, fmt.Sprintf("%s/%d", tk.job.App, tk.job.Sys.Nodes))
		if (tk.build != nil) == (tk.job.App == "rec") {
			t.Errorf("%s: shared build %v", tk.job.Key(), tk.build != nil)
		}
		shared[tk.build] = true
	}
	want := "fft/8 fft/8 fft/8 rec/8 rec/8 lu/8 fft/4"
	if strings.Join(got, " ") != want {
		t.Errorf("dispatch order %q, want %q", strings.Join(got, " "), want)
	}
	if len(shared) != 4 { // fft at 8 nodes, lu, fft at 4 nodes, and nil for the trace
		t.Errorf("%d distinct builds, want 4", len(shared))
	}
}

// finalProgress runs a Prefetch of plan with a progress writer and
// returns its final line.
func finalProgress(t *testing.T, h *Harness, plan *Plan) string {
	t.Helper()
	var buf bytes.Buffer
	h.Progress = &buf
	h.Prefetch(plan)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	return lines[len(lines)-1]
}

// TestProgressCountsOwnSimulations: the progress totals count every job
// but only the references of simulations the Prefetch ran itself, so a
// warm Prefetch over a filled store reports no refs.
func TestProgressCountsOwnSimulations(t *testing.T) {
	h := New(0.05)
	h.Workers = 2
	plan := NewPlan().AddRuns([]string{"fft", "em3d"}, shareSystems()[:3]...)
	cold := finalProgress(t, h, plan)
	var refs int64
	for _, j := range plan.Jobs() {
		run, err := h.Run(j.App, j.Sys)
		if err != nil {
			t.Fatal(err)
		}
		refs += run.Refs
	}
	want := fmt.Sprintf("progress: 6/6 jobs, %.2fM refs, ", float64(refs)/1e6)
	if !strings.HasPrefix(cold, want) {
		t.Errorf("cold progress %q, want prefix %q", cold, want)
	}
	warm := New(h.Scale)
	warm.Store = h.Store
	if got := finalProgress(t, warm, plan); !strings.HasPrefix(got, "progress: 6/6 jobs, 0.00M refs, 0.00M refs/s") {
		t.Errorf("warm progress %q counts refs it did not simulate", got)
	}
}
