package main

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"rnuma/internal/harness"
	"rnuma/internal/stats"
)

// timingStore wraps a harness.Store: it times lookups and commits, opens
// a harness.job span for every claim it sees the caller win (owner=true),
// and keeps each executed and donated run for refs accounting and the
// correctness gate. Memo hits are never counted as executed work.
type timingStore struct {
	inner  harness.Store
	tr     *tracer
	parent atomic.Int64 // span ID new job spans hang under

	lookupNs, commitNs atomic.Int64

	mu       sync.Mutex
	claims   map[string]claim
	executed map[string]*stats.Run // owner-claimed runs that committed without error
	donated  map[string]*stats.Run // runs added without a claim (fork lines)
	busyNs   int64                 // Σ claim→commit
	maxJobNs int64
}

type claim struct {
	at   time.Time
	span int
}

func newTimingStore(inner harness.Store, tr *tracer) *timingStore {
	return &timingStore{
		inner:    inner,
		tr:       tr,
		claims:   make(map[string]claim),
		executed: make(map[string]*stats.Run),
		donated:  make(map[string]*stats.Run),
	}
}

func (s *timingStore) StartOrWait(key harness.JobKey) (*stats.Run, bool, error) {
	t := time.Now()
	run, owner, err := s.inner.StartOrWait(key)
	s.lookupNs.Add(int64(time.Since(t)))
	if owner {
		id := s.tr.start("harness.job", int(s.parent.Load()))
		s.mu.Lock()
		s.claims[key.String()] = claim{at: time.Now(), span: id}
		s.mu.Unlock()
	}
	return run, owner, err
}

func (s *timingStore) Commit(key harness.JobKey, run *stats.Run, err error) {
	end := time.Now()
	k := key.String()
	s.mu.Lock()
	c, ok := s.claims[k]
	delete(s.claims, k)
	if ok {
		d := int64(end.Sub(c.at))
		s.busyNs += d
		s.maxJobNs = max(s.maxJobNs, d)
		if err == nil && run != nil {
			s.executed[k] = run
		}
	}
	s.mu.Unlock()
	if ok {
		var refs int64
		if run != nil {
			refs = run.Refs
		}
		s.tr.end(c.span, refs)
	}
	t := time.Now()
	s.inner.Commit(key, run, err)
	s.commitNs.Add(int64(time.Since(t)))
}

func (s *timingStore) Get(key harness.JobKey) (*stats.Run, bool, error) {
	t := time.Now()
	run, ok, err := s.inner.Get(key)
	s.lookupNs.Add(int64(time.Since(t)))
	return run, ok, err
}

func (s *timingStore) Add(key harness.JobKey, run *stats.Run) bool {
	t := time.Now()
	added := s.inner.Add(key, run)
	s.commitNs.Add(int64(time.Since(t)))
	if added {
		s.mu.Lock()
		s.donated[key.String()] = run
		s.mu.Unlock()
	}
	return added
}

func (s *timingStore) Stats() harness.StoreStats { return s.inner.Stats() }

// executedRefs sums the simulated references of owner-claimed runs.
func (s *timingStore) executedRefs() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var n int64
	for _, r := range s.executed {
		n += r.Refs
	}
	return n
}

// runs returns every executed and donated run by key, with the keys sorted.
func (s *timingStore) runs() ([]string, map[string]*stats.Run) {
	s.mu.Lock()
	defer s.mu.Unlock()
	all := make(map[string]*stats.Run, len(s.executed)+len(s.donated))
	for k, r := range s.donated {
		all[k] = r
	}
	for k, r := range s.executed {
		all[k] = r
	}
	keys := make([]string, 0, len(all))
	for k := range all {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys, all
}
