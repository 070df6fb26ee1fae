package harness

import (
	"rnuma/internal/config"
	"rnuma/internal/machine"
	"rnuma/internal/pagecache"
	"rnuma/internal/stats"
)

// This file implements the ablation studies from DESIGN.md Section 7:
// isolating the design decisions the paper's results rest on.

// ablationJob builds a tagged job carrying extra machine options; the tag
// keys it separately in the memo cache. Job options apply after the
// workload-derived ones, so they can override them.
func ablationJob(appName string, sys config.System, tag string, opts ...machine.Option) Job {
	return Job{App: appName, Sys: sys, Tag: tag, opts: opts}
}

// runWith executes an application with extra machine options through the
// scheduler's singleflight cache.
func (h *Harness) runWith(appName string, sys config.System, tag string, opts ...machine.Option) (*stats.Run, error) {
	run, _, err := h.runJob(ablationJob(appName, sys, tag, opts...), nil)
	return run, err
}

// CountingAblation compares R-NUMA with the paper's refetch-only counters
// against a naive variant whose counters are fed by every remote miss
// (coherence misses included).
type CountingAblation struct {
	App string
	// Execution cycles and relocation counts under each policy.
	RefetchOnly, Naive             *stats.Run
	SlowdownPct                    float64 // naive vs refetch-only execution time
	ExtraRelocations, ExtraReplace int64
}

// AblationCounting demonstrates why Section 3.1 counts only capacity and
// conflict refetches: on a producer-consumer application, naive counting
// relocates communication pages, buying nothing and paying page-operation
// and page-cache-churn costs. It runs at a deliberately low threshold so
// that a communication page's few coherence misses per run are enough to
// cross naively — its refetch count (zero) never is, at any threshold.
func (h *Harness) AblationCounting(appName string) (*CountingAblation, error) {
	sys := config.Base(config.RNUMA)
	sys.Threshold = 6
	sys.Name = "R-NUMA T=6"
	h.Prefetch(NewPlan().Add(NewJob(appName, sys),
		ablationJob(appName, sys, "naive-counting", machine.WithNaiveCounting())))
	base, err := h.Run(appName, sys)
	if err != nil {
		return nil, err
	}
	naive, err := h.runWith(appName, sys, "naive-counting", machine.WithNaiveCounting())
	if err != nil {
		return nil, err
	}
	return &CountingAblation{
		App:              appName,
		RefetchOnly:      base,
		Naive:            naive,
		SlowdownPct:      100 * (float64(naive.ExecCycles)/float64(base.ExecCycles) - 1),
		ExtraRelocations: naive.Relocations - base.Relocations,
		ExtraReplace:     naive.Replacements - base.Replacements,
	}, nil
}

// DemotionAblation compares the paper's base R-NUMA (reverse adaptation
// only via LRM replacement) against the explicit-demotion extension on the
// phase-shift workload.
type DemotionAblation struct {
	Base, Demoting *stats.Run
	SpeedupPct     float64 // execution time saved by demotion
	Demotions      int64
}

// AblationDemotion exercises the reverse-adaptation extension: after a
// reuse set degenerates into a communication set, its page-cache frames
// keep looking "recently missed" to LRM (coherence misses refresh them),
// squeezing the new reuse set. Demotion reclaims those frames.
func (h *Harness) AblationDemotion() (*DemotionAblation, error) {
	sys := config.Base(config.RNUMA)
	dsys := sys
	dsys.DemotionThreshold = 8
	dsys.Name = "R-NUMA +demotion"
	h.Prefetch(NewPlan().Add(NewJob("phaseshift", sys),
		ablationJob("phaseshift", dsys, "demotion")))
	base, err := h.Run("phaseshift", sys)
	if err != nil {
		return nil, err
	}
	demoting, err := h.runWith("phaseshift", dsys, "demotion")
	if err != nil {
		return nil, err
	}
	return &DemotionAblation{
		Base:       base,
		Demoting:   demoting,
		SpeedupPct: 100 * (1 - float64(demoting.ExecCycles)/float64(base.ExecCycles)),
		Demotions:  demoting.Demotions,
	}, nil
}

// PolicyAblation compares the paper's Least Recently Missed replacement
// against conventional LRU under pure S-COMA.
type PolicyAblation struct {
	App      string
	LRM, LRU *stats.Run
	// LRUEffectPct is the execution-time change from switching to LRU
	// (negative = LRU faster).
	LRUEffectPct float64
}

// AblationReplacementPolicy quantifies the cost of the paper's
// hardware-cheap LRM policy versus LRU, which refreshes frames on hits
// and so protects reuse pages from streaming traffic — at the price of
// per-reference bookkeeping the paper's design avoids (Section 4).
func (h *Harness) AblationReplacementPolicy(appName string) (*PolicyAblation, error) {
	sys := config.Base(config.SCOMA)
	lruSys := sys
	lruSys.PageReplacement = pagecache.LRU
	lruSys.Name = "S-COMA LRU"
	h.Prefetch(NewPlan().Add(NewJob(appName, sys), ablationJob(appName, lruSys, "lru")))
	lrm, err := h.Run(appName, sys)
	if err != nil {
		return nil, err
	}
	lru, err := h.runWith(appName, lruSys, "lru")
	if err != nil {
		return nil, err
	}
	return &PolicyAblation{
		App:          appName,
		LRM:          lrm,
		LRU:          lru,
		LRUEffectPct: 100 * (float64(lru.ExecCycles)/float64(lrm.ExecCycles) - 1),
	}, nil
}

// PlacementAblation compares first-touch page placement (the paper's
// Section 2.1 policy, realized here through the workloads' explicit home
// maps) against naive round-robin placement.
type PlacementAblation struct {
	App                    string
	FirstTouch, RoundRobin *stats.Run
	SlowdownPct            float64
	RemoteFetchMultiplier  float64
}

// AblationPlacement quantifies how much of every protocol's performance
// rests on good initial placement: with round-robin homes, a node's
// "own" data is scattered across the machine and even private sweeps go
// remote.
func (h *Harness) AblationPlacement(appName string) (*PlacementAblation, error) {
	sys := config.Base(config.CCNUMA)
	rrSys := sys
	rrSys.FirstTouch = false // machine falls back to round-robin homes
	rrSys.Name = "CC-NUMA round-robin placement"
	noHomes := machine.WithHomes(nil) // ...once the workload's home map is dropped
	h.Prefetch(NewPlan().Add(NewJob(appName, sys), ablationJob(appName, rrSys, "roundrobin", noHomes)))
	ft, err := h.Run(appName, sys)
	if err != nil {
		return nil, err
	}
	rr, err := h.runWith(appName, rrSys, "roundrobin", noHomes)
	if err != nil {
		return nil, err
	}
	return &PlacementAblation{
		App:                   appName,
		FirstTouch:            ft,
		RoundRobin:            rr,
		SlowdownPct:           100 * (float64(rr.ExecCycles)/float64(ft.ExecCycles) - 1),
		RemoteFetchMultiplier: stats.Ratio(rr.RemoteFetches, ft.RemoteFetches),
	}, nil
}
