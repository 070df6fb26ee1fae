// Package event provides the discrete-event machinery of the simulator: a
// winner-tree actor queue that always advances the processor with the
// globally smallest (clock, ID), and FIFO-server resources that model
// contention at the memory bus, the network interfaces, and the protocol
// controllers.
//
// Because the engine only ever processes the event with the minimum
// timestamp, resource acquisitions are causally consistent: an actor that
// acquires a resource at time t can never be preempted retroactively by an
// actor whose clock is still behind t.
package event

import (
	"fmt"
	"math/bits"
)

// Resource is a FIFO server: callers acquire it at some time and hold it
// for an occupancy; later callers queue behind earlier ones. It accumulates
// utilization statistics for contention reporting.
type Resource struct {
	nextFree     int64
	busyCycles   int64
	waitCycles   int64
	acquisitions int64
}

// Acquire requests the resource at time now for occupancy cycles. It
// returns the time service starts (>= now); the resource stays busy until
// start+occupancy.
func (r *Resource) Acquire(now, occupancy int64) (start int64) {
	start = now
	if r.nextFree > start {
		start = r.nextFree
	}
	r.waitCycles += start - now
	r.busyCycles += occupancy
	r.acquisitions++
	r.nextFree = start + occupancy
	return start
}

// Hold occupies the resource without advancing the caller: it acquires at
// now and returns only the queueing delay the caller observed. Use it for
// pipelined actions (e.g., posting a writeback) where the caller does not
// wait for service completion.
func (r *Resource) Hold(now, occupancy int64) (wait int64) {
	start := r.Acquire(now, occupancy)
	return start - now
}

// NextFree reports when the resource becomes idle.
func (r *Resource) NextFree() int64 { return r.nextFree }

// BusyCycles reports total cycles of occupancy accumulated.
func (r *Resource) BusyCycles() int64 { return r.busyCycles }

// WaitCycles reports total queueing delay callers experienced.
func (r *Resource) WaitCycles() int64 { return r.waitCycles }

// Acquisitions reports how many times the resource was acquired.
func (r *Resource) Acquisitions() int64 { return r.acquisitions }

// Reset returns the resource to its initial idle state.
func (r *Resource) Reset() { *r = Resource{} }

// ResourceState is a Resource's complete state in exported form, so
// machine snapshots can capture and restore the in-flight occupancy and
// accumulated contention statistics.
type ResourceState struct {
	NextFree     int64
	BusyCycles   int64
	WaitCycles   int64
	Acquisitions int64
}

// State returns the resource's current state (snapshot support).
func (r *Resource) State() ResourceState {
	return ResourceState{
		NextFree:     r.nextFree,
		BusyCycles:   r.busyCycles,
		WaitCycles:   r.waitCycles,
		Acquisitions: r.acquisitions,
	}
}

// SetState replaces the resource's state (snapshot restore).
func (r *Resource) SetState(s ResourceState) {
	r.nextFree = s.NextFree
	r.busyCycles = s.BusyCycles
	r.waitCycles = s.WaitCycles
	r.acquisitions = s.Acquisitions
}

// Actor is anything with a clock that the engine schedules: in this
// simulator, one per processor. The ID doubles as the actor's leaf in the
// Queue, so IDs must be non-negative and unique among queued actors.
type Actor struct {
	ID    int
	Clock int64
}

// Queue orders actors by clock, ties broken by ID for determinism. The
// zero value is ready to use.
//
// It is a winner tree with one leaf per actor ID. The simulator performs
// one queue operation per memory reference, nearly always rescheduling
// the top actor, and the tree does that with one branch-free min per
// level. Each key packs the clock and the ID into one uint64
// (clock<<shift | ID, shift = log2 of the leaf count), so a single
// unsigned compare orders by (clock, ID) exactly; each internal node
// holds the smaller key of its two children. Update rewrites one leaf and
// recomputes the log2(n) nodes above it, Peek reads the root, and
// SecondClock is the minimum over the siblings along the winner's
// leaf-to-root path.
//
// Limits: a pushed ID must be non-negative and not already queued, and a
// clock must satisfy 0 <= clock < 2^(64-shift)-1 (2^59-1 with 32 leaves).
// The tree grows, repacking every key, when a Push brings an ID at or past
// the leaf count. A violation panics rather than misordering the queue.
type Queue struct {
	tree   []uint64 // tree[1] is the root; ID i's leaf is tree[leaves+i]
	actors []*Actor // the queued actor per ID, nil when absent
	leaves int      // leaf count, a power of two (0 before the first Push)
	shift  uint     // log2(leaves): the key bits that hold the ID
	limit  uint64   // clocks must be below this to pack
	n      int      // queued actors
}

// absent is the key of an empty leaf: it sorts after every packed key.
const absent = ^uint64(0)

// key packs the actor's (clock, ID) for its leaf.
func (q *Queue) key(a *Actor) uint64 {
	c := uint64(a.Clock)
	if c >= q.limit {
		panic(fmt.Sprintf("event: actor %d clock %d outside the queue's range [0, %d)", a.ID, a.Clock, q.limit))
	}
	return c<<q.shift | uint64(a.ID)
}

// fix recomputes the internal nodes on the path from leaf slot i to the
// root.
func (q *Queue) fix(i int) {
	t := q.tree
	k := t[i]
	for i > 1 {
		k = min(k, t[i^1])
		i >>= 1
		t[i] = k
	}
}

// grow widens the tree to the smallest power-of-two leaf count above id,
// repacking the queued keys under the wider ID field. It repacks the
// clocks the tree holds, not the actors' current fields, so an actor
// whose clock advanced without an Update keeps its queued position.
func (q *Queue) grow(id int) {
	shift := uint(bits.Len(uint(id)))
	leaves := 1 << shift
	limit := uint64(1)<<(64-shift) - 1
	if shift == 0 {
		limit = 1 << 63 // a lone leaf packs the whole non-negative int64 range
	}
	tree := make([]uint64, 2*leaves)
	for i := range tree {
		tree[i] = absent
	}
	for i, a := range q.actors {
		if a == nil {
			continue
		}
		c := q.tree[q.leaves+i] >> q.shift
		if c >= limit {
			panic(fmt.Sprintf("event: actor %d clock %d outside the range [0, %d) of a %d-leaf queue", i, c, limit, leaves))
		}
		tree[leaves+i] = c<<shift | uint64(i)
	}
	for i := leaves - 1; i >= 1; i-- {
		tree[i] = min(tree[2*i], tree[2*i+1])
	}
	actors := make([]*Actor, leaves)
	copy(actors, q.actors)
	q.tree, q.actors, q.leaves, q.shift, q.limit = tree, actors, leaves, shift, limit
}

// Push inserts an actor into the queue. It panics on a negative ID, an ID
// that is already queued, or a clock outside the packable range.
func (q *Queue) Push(a *Actor) {
	if a.ID < 0 {
		panic(fmt.Sprintf("event: actor ID %d is negative", a.ID))
	}
	if a.ID >= q.leaves {
		q.grow(a.ID)
	}
	if q.actors[a.ID] != nil {
		panic(fmt.Sprintf("event: actor ID %d is already queued", a.ID))
	}
	i := q.leaves + a.ID
	q.tree[i] = q.key(a)
	q.actors[a.ID] = a
	q.n++
	q.fix(i)
}

// Pop removes and returns the actor with the smallest clock, or nil if the
// queue is empty.
func (q *Queue) Pop() *Actor {
	a := q.Peek()
	if a != nil {
		q.Remove(a)
	}
	return a
}

// Peek returns the actor with the smallest clock without removing it.
func (q *Queue) Peek() *Actor {
	if q.n == 0 {
		return nil
	}
	return q.actors[q.tree[1]&uint64(q.leaves-1)]
}

// Update reorders the queue after a queued actor's clock changed in place.
func (q *Queue) Update(a *Actor) {
	if q.actors[a.ID] != a {
		panic(fmt.Sprintf("event: Update of actor %d, which is not queued", a.ID))
	}
	i := q.leaves + a.ID
	q.tree[i] = q.key(a)
	q.fix(i)
}

// SecondClock returns the smallest clock among actors other than the
// current top, with ok=false when the queue holds at most one actor. The
// event loop uses it to decide whether advancing the top actor's clock
// would overtake anyone — without paying an Update to find out.
func (q *Queue) SecondClock() (int64, bool) {
	if q.n < 2 {
		return 0, false
	}
	t := q.tree
	s := absent
	for i := q.leaves + int(t[1]&uint64(q.leaves-1)); i > 1; i >>= 1 {
		s = min(s, t[i^1])
	}
	return int64(s >> q.shift), true
}

// Remove deletes a queued actor regardless of its position. It panics if
// the actor is not queued.
func (q *Queue) Remove(a *Actor) {
	if a.ID < 0 || a.ID >= q.leaves || q.actors[a.ID] != a {
		panic(fmt.Sprintf("event: Remove of actor %d, which is not queued", a.ID))
	}
	q.actors[a.ID] = nil
	q.n--
	i := q.leaves + a.ID
	q.tree[i] = absent
	q.fix(i)
}

// Len reports the number of queued actors.
func (q *Queue) Len() int { return q.n }
