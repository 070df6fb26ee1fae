package harness

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"

	"rnuma/internal/config"
)

// TestPlanDedup: figures that share configurations (the ideal baseline,
// the base protocols) contribute each shared job exactly once to a
// combined plan.
func TestPlanDedup(t *testing.T) {
	p := NewPlan()
	p.Add(figurePlan(gridFig6, []string{"fft", "lu"}).Jobs()...)
	p.Add(figurePlan(gridFig7, []string{"fft", "lu"}).Jobs()...)
	// Figure 6: ideal, cc, sc, rn (4 systems). Figure 7 adds cc1k, r32k,
	// r40m and re-declares ideal, cc, rn. Union: 7 systems x 2 apps.
	if got, want := p.Len(), 7*2; got != want {
		t.Errorf("combined plan has %d jobs, want %d (shared configs must dedup)", got, want)
	}
	keys := make(map[string]struct{})
	for _, j := range p.Jobs() {
		if _, dup := keys[j.Key()]; dup {
			t.Errorf("duplicate job key %q in plan", j.Key())
		}
		keys[j.Key()] = struct{}{}
	}
}

// TestPlanAllCoversFigures: the whole-evaluation plan contains every
// figure's jobs.
func TestPlanAllCoversFigures(t *testing.T) {
	h := New(0.1)
	apps := []string{"fft", "lu"}
	all := make(map[string]struct{})
	for _, j := range h.PlanAll(apps).Jobs() {
		all[j.Key()] = struct{}{}
	}
	for fig := range figureGrids() {
		for _, j := range figurePlan(fig, apps).Jobs() {
			if _, ok := all[j.Key()]; !ok {
				t.Errorf("PlanAll missing job %q", j.Key())
			}
		}
	}
}

// TestSingleflightRunsEachJobOnce: concurrent requests for the same
// configuration perform exactly one simulation; everyone shares the
// pointer-identical cached result.
func TestSingleflightRunsEachJobOnce(t *testing.T) {
	var buf bytes.Buffer
	h := New(0.05)
	h.Log = &buf
	h.Workers = 8
	sys := config.Base(config.CCNUMA)
	const callers = 16
	var wg sync.WaitGroup
	results := make([]any, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			run, err := h.Run("fft", sys)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = run
		}(i)
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if results[i] != results[0] {
			t.Fatalf("caller %d got a distinct run; memoization broken", i)
		}
	}
	launches := strings.Count(buf.String(), "running")
	if launches != 1 {
		t.Errorf("%d simulations launched for one key, want 1", launches)
	}
}

// renderFig7 serializes Figure 7 rows for byte-exact comparison.
func renderFig7(rows []Fig7Row) string {
	var b strings.Builder
	for _, r := range rows {
		fmt.Fprintf(&b, "%s %.9f %.9f %.9f %.9f %.9f\n",
			r.App, r.CC1K, r.CC32K, r.R128p320K, r.R32Kp320K, r.R128p40M)
	}
	return b.String()
}

// renderFig8 serializes Figure 8 rows for byte-exact comparison.
func renderFig8(rows []Fig8Row) string {
	var b strings.Builder
	for _, r := range rows {
		fmt.Fprintf(&b, "%s", r.App)
		for _, T := range Fig8Thresholds {
			fmt.Fprintf(&b, " T%d=%.9f", T, r.ByT[T])
		}
		fmt.Fprintf(&b, "\n")
	}
	return b.String()
}

// TestParallelMatchesSerial: the concurrent scheduler's Figure 7 and
// Figure 8 output is byte-identical to the serial scheduler's on the same
// grid (run under -race in CI; the acceptance criterion for the
// scheduler's determinism).
func TestParallelMatchesSerial(t *testing.T) {
	apps := []string{"fft", "barnes"}
	scale := 0.1

	serial := New(scale)
	serial.Workers = 1
	s7, err := serial.Figure7(apps)
	if err != nil {
		t.Fatal(err)
	}
	s8, err := serial.Figure8(apps)
	if err != nil {
		t.Fatal(err)
	}

	parallel := New(scale)
	parallel.Workers = 8
	p7, err := parallel.Figure7(apps)
	if err != nil {
		t.Fatal(err)
	}
	p8, err := parallel.Figure8(apps)
	if err != nil {
		t.Fatal(err)
	}

	if got, want := renderFig7(p7), renderFig7(s7); got != want {
		t.Errorf("Figure 7 parallel != serial:\nparallel:\n%s\nserial:\n%s", got, want)
	}
	if got, want := renderFig8(p8), renderFig8(s8); got != want {
		t.Errorf("Figure 8 parallel != serial:\nparallel:\n%s\nserial:\n%s", got, want)
	}
}

// TestRunPlanPropagatesError: a plan containing an unknown application
// reports the error from assembly, deterministically, regardless of
// worker count.
func TestRunPlanPropagatesError(t *testing.T) {
	for _, workers := range []int{1, 4} {
		h := New(0.05)
		h.Workers = workers
		p := NewPlan().Add(NewJob("doom", config.Base(config.CCNUMA)),
			NewJob("fft", config.Base(config.CCNUMA)))
		if _, err := h.RunPlan(p); err == nil {
			t.Errorf("workers=%d: unknown app accepted", workers)
		}
	}
}

// TestRunPlanResults: RunPlan returns one result per planned job, keyed
// by job key.
func TestRunPlanResults(t *testing.T) {
	h := New(0.05)
	h.Workers = 4
	p := NewPlan().AddRuns([]string{"fft"}, config.Base(config.CCNUMA), config.Base(config.SCOMA))
	res, err := h.RunPlan(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("RunPlan returned %d results, want 2", len(res))
	}
	for _, j := range p.Jobs() {
		run, ok := res[j.Key()]
		if !ok || run == nil || run.ExecCycles == 0 {
			t.Errorf("missing or empty result for %q", j.Key())
		}
	}
}
