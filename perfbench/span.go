package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans stay in memory and are
// written out when the run ends.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Run    string `json:"run"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
	// Count is the work the call did, taken at the same boundary:
	// simulated references for decode, encode, build and machine spans.
	Count int64 `json:"count,omitempty"`
}

// tracer records spans. A nil tracer records nothing, so untraced runs
// pass nil and pay one nil check per call.
type tracer struct {
	run string
	t0  time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer(run string) *tracer { return &tracer{run: run, t0: time.Now()} }

// start opens a span under parent and returns its ID.
func (t *tracer) start(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Run: t.run, Name: name, Start: now, End: -1})
	return id
}

// end closes span id, recording the work it did.
func (t *tracer) end(id int, count int64) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
	t.spans[id-1].Count = count
}

// add records a span whose bounds were measured elsewhere (the server's
// job timestamps).
func (t *tracer) add(name string, parent int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Run: t.run, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(),
	})
}

// do runs fn inside a span under parent; fn gets the span's ID (to
// parent further spans) and returns the work it did.
func (t *tracer) do(name string, parent int, fn func(id int) int64) {
	id := t.start(name, parent)
	t.end(id, fn(id))
}

// seconds sums the durations of every closed span named name.
func (t *tracer) seconds(name string) float64 {
	var ns int64
	for _, s := range t.named(name) {
		ns += s.End - s.Start
	}
	return float64(ns) / 1e9
}

// count sums the counts of every span named name.
func (t *tracer) count(name string) int64 {
	var n int64
	for _, s := range t.named(name) {
		n += s.Count
	}
	return n
}

// nsPerCount is the named spans' total time per unit of counted work.
func (t *tracer) nsPerCount(name string) float64 {
	n := t.count(name)
	if n == 0 {
		return 0
	}
	return t.seconds(name) * 1e9 / float64(n)
}

func (t *tracer) named(name string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Name == name && s.End >= s.Start {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns each span's self time: its duration minus the part
// of it its children cover (the union of their intervals, clipped).
// bad counts spans whose children cover more than the span itself —
// a child outside its parent's bounds, or one never closed.
func (t *tracer) selfTimes() (self map[int]int64, bad int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self = make(map[int]int64, len(t.spans))
	for _, s := range t.spans {
		if s.End < s.Start {
			bad++
			continue
		}
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered, curS, curE int64
		open := false
		for _, k := range kids {
			if k.End < k.Start || k.Start < s.Start || k.End > s.End {
				bad++
				continue
			}
			switch {
			case !open:
				curS, curE, open = k.Start, k.End, true
			case k.Start <= curE:
				curE = max(curE, k.End)
			default:
				covered += curE - curS
				curS, curE = k.Start, k.End
			}
		}
		if open {
			covered += curE - curS
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self, bad
}

func (t *tracer) violations() int {
	_, bad := t.selfTimes()
	return bad
}

// writeTrace writes the run's spans, per-name totals and self times
// under .bench_build/traces.
func (b *bench) writeTrace() error {
	self, bad := b.tr.selfTimes()
	type total struct {
		Calls  int     `json:"calls"`
		TotalS float64 `json:"total_s"`
		SelfS  float64 `json:"self_s"`
		Count  int64   `json:"count"`
	}
	totals := make(map[string]*total)
	b.tr.mu.Lock()
	spans := append([]span(nil), b.tr.spans...)
	b.tr.mu.Unlock()
	for _, s := range spans {
		tt := totals[s.Name]
		if tt == nil {
			tt = &total{}
			totals[s.Name] = tt
		}
		tt.Calls++
		tt.TotalS += float64(s.End-s.Start) / 1e9
		tt.SelfS += float64(self[s.ID]) / 1e9
		tt.Count += s.Count
	}
	doc := map[string]any{
		"run": b.tr.run, "workload": b.workload, "seed": b.seed, "env": b.env,
		"violations": bad, "totals": totals, "spans": spans,
	}
	dir := filepath.Join(b.root, ".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, b.tr.run+".json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(b.log, "perfbench: %d spans written to %s\n", len(spans), path)
	return nil
}
