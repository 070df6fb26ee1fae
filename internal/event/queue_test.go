package event

import (
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// queueModel is the reference the Queue is checked against: the queued
// actors' (clock, ID) keys, sorted on demand. It records the clock an
// actor was queued or updated with, not its live Clock field, since the
// machine advances a clock in place before deciding whether to Update.
type queueModel map[*Actor]int64

func (m queueModel) sorted() []*Actor {
	out := make([]*Actor, 0, len(m))
	for a := range m {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool {
		ci, cj := m[out[i]], m[out[j]]
		if ci != cj {
			return ci < cj
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// check compares Len, Peek and SecondClock with the model.
func (m queueModel) check(t *testing.T, q *Queue, step int, op string) {
	t.Helper()
	s := m.sorted()
	if q.Len() != len(s) {
		t.Fatalf("step %d (%s): Len %d, model %d", step, op, q.Len(), len(s))
	}
	var want *Actor
	if len(s) > 0 {
		want = s[0]
	}
	if got := q.Peek(); got != want {
		t.Fatalf("step %d (%s): Peek %v, model %v", step, op, got, want)
	}
	sc, ok := q.SecondClock()
	if ok != (len(s) > 1) {
		t.Fatalf("step %d (%s): SecondClock ok=%v with %d queued", step, op, ok, len(s))
	}
	if ok && sc != m[s[1]] {
		t.Fatalf("step %d (%s): SecondClock %d, model %d", step, op, sc, m[s[1]])
	}
}

// TestQueueMatchesModel drives random Push/Update/Remove/Pop sequences
// against the sorted reference. IDs arrive out of order and past the
// current leaf count while others are queued (forcing the tree to grow
// and repack), clocks are drawn from a narrow range so ties are common,
// Removes hit arbitrary actors, barrier-style rounds remove a group and
// re-push it at one release clock, and the queue regularly drains to
// Len() <= 1. Every step also replays the machine's pattern: advance the
// top actor's clock in place, consult SecondClock, then Update.
func TestQueueMatchesModel(t *testing.T) {
	const ids = 70 // crosses the 64-leaf boundary
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var q Queue
		m := queueModel{}
		actors := make([]*Actor, ids)
		for i := range actors {
			actors[i] = &Actor{ID: i}
		}
		pick := func(queued bool) *Actor {
			var c []*Actor
			for _, a := range actors {
				if _, in := m[a]; in == queued {
					c = append(c, a)
				}
			}
			if len(c) == 0 {
				return nil
			}
			return c[rng.Intn(len(c))]
		}
		for step := 0; step < 600; step++ {
			op := ""
			switch r := rng.Intn(20); {
			case r < 7:
				op = "push"
				if a := pick(false); a != nil {
					a.Clock = rng.Int63n(40)
					q.Push(a)
					m[a] = a.Clock
				}
			case r < 11:
				op = "update"
				if a := pick(true); a != nil {
					a.Clock = rng.Int63n(40)
					q.Update(a)
					m[a] = a.Clock
				}
			case r < 14:
				op = "remove"
				if a := pick(true); a != nil {
					q.Remove(a)
					delete(m, a)
				}
			case r < 16:
				op = "pop"
				s := m.sorted()
				got := q.Pop()
				if len(s) == 0 {
					if got != nil {
						t.Fatalf("seed %d step %d: Pop on empty queue returned actor %d", seed, step, got.ID)
					}
					break
				}
				if got != s[0] {
					t.Fatalf("seed %d step %d: Pop returned actor %d, model %d", seed, step, got.ID, s[0].ID)
				}
				delete(m, got)
			case r < 18:
				op = "barrier"
				var group []*Actor
				var release int64
				for _, a := range m.sorted() {
					if rng.Intn(2) == 0 {
						q.Remove(a)
						group = append(group, a)
						release = max(release, m[a])
						delete(m, a)
					}
				}
				m.check(t, &q, step, op+" (parked)")
				for _, a := range group {
					a.Clock = release
					q.Push(a)
					m[a] = release
				}
			default:
				op = "drain"
				for q.Len() > 1 {
					delete(m, q.Pop())
					m.check(t, &q, step, op)
				}
			}
			m.check(t, &q, step, op)

			// The machine loop: the top advances in place; the queue
			// keeps ordering by the queued clock until Update.
			if top := q.Peek(); top != nil {
				before, beforeOK := q.SecondClock()
				top.Clock += rng.Int63n(30)
				if s, ok := q.SecondClock(); ok != beforeOK || s != before || q.Peek() != top {
					t.Fatalf("seed %d step %d: advancing the top in place moved the queue", seed, step)
				}
				q.Update(top)
				m[top] = top.Clock
				m.check(t, &q, step, "advance")
			}
		}
	}
}

// mustPanic runs f and fails unless it panics with a message containing
// want.
func mustPanic(t *testing.T, name, want string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if r == nil {
			t.Errorf("%s: no panic", name)
			return
		}
		if msg, _ := r.(string); !strings.Contains(msg, want) {
			t.Errorf("%s: panic %v, want it to mention %q", name, r, want)
		}
	}()
	f()
}

// TestQueueRejectsInvalid pins the inputs the packed-key tree cannot
// order: each panics instead of silently misordering or corrupting Len.
func TestQueueRejectsInvalid(t *testing.T) {
	mustPanic(t, "negative ID", "negative", func() {
		var q Queue
		q.Push(&Actor{ID: -1})
	})
	mustPanic(t, "negative clock", "outside", func() {
		var q Queue
		q.Push(&Actor{ID: 3, Clock: -5})
	})
	// With 32 leaves the ID takes 5 bits: clocks must stay below 2^59-1.
	full := func() *Queue {
		q := &Queue{}
		for i := 0; i < 32; i++ {
			q.Push(&Actor{ID: i})
		}
		return q
	}
	q := full()
	ok := &Actor{ID: 40, Clock: 1<<58 - 2} // grows to 64 leaves: limit 2^58-1
	q.Push(ok)
	mustPanic(t, "clock past the packable range", "outside", func() {
		q.Push(&Actor{ID: 41, Clock: 1<<58 - 1})
	})
	mustPanic(t, "update past the packable range", "outside", func() {
		ok.Clock = 1 << 60
		q.Update(ok)
	})
	mustPanic(t, "growth that leaves a queued clock unpackable", "outside", func() {
		var q Queue
		q.Push(&Actor{ID: 0, Clock: 1 << 62})
		q.Push(&Actor{ID: 5})
	})
	mustPanic(t, "remove of a never-queued actor", "not queued", func() {
		full().Remove(&Actor{ID: 7})
	})
	mustPanic(t, "remove past the leaf count", "not queued", func() {
		full().Remove(&Actor{ID: 99})
	})
	mustPanic(t, "double remove", "not queued", func() {
		q := full()
		a := q.Pop()
		q.Remove(a)
	})
	mustPanic(t, "update of a removed actor", "not queued", func() {
		q := full()
		q.Update(q.Pop())
	})
	mustPanic(t, "push of a queued ID", "already queued", func() {
		full().Push(&Actor{ID: 4})
	})
}

// BenchmarkQueue times the machine loop's scheduling step over 32 actors
// (perfbench's event seam): Peek the top, advance its clock, and Update
// only when SecondClock shows it overtook another actor.
func BenchmarkQueue(b *testing.B) {
	lat := make([]int64, 1024)
	x := uint32(2463534242)
	for i := range lat {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		lat[i] = 1 + int64(x%200)
	}
	var q Queue
	as := make([]Actor, 32)
	for i := range as {
		as[i].ID = i
		q.Push(&as[i])
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := q.Peek()
		a.Clock += lat[i&1023]
		if s, ok := q.SecondClock(); ok && s < a.Clock {
			q.Update(a)
		}
	}
}
