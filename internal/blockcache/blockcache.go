// Package blockcache implements the CC-NUMA remote access device's block
// cache (paper Section 2.1): a direct-mapped, writeback SRAM cache that
// holds only remote data, acting as another level of the node's cache
// hierarchy.
//
// It tracks node-level coherence state: ReadOnly (the node is a sharer at
// the directory) or ReadWrite (the node is the exclusive owner). Per the
// paper, the cache maintains inclusion with the node's processor caches for
// read-write blocks but not for read-only blocks; enforcing the inclusion
// invalidations is the machine's job, signaled through the eviction result.
//
// A negative size constructs the paper's "infinite block cache" used as the
// normalization baseline: a fully associative, never-evicting cache. Its
// entries live by value in an open-addressed block table
// (dense.BlockTable), so a fill neither hashes through a Go map nor
// allocates once the table has grown to the run's footprint.
package blockcache

import (
	"fmt"
	"sort"

	"rnuma/internal/addr"
	"rnuma/internal/dense"
)

// State is the node-level state of a cached remote block.
type State uint8

const (
	// Invalid: frame empty.
	Invalid State = iota
	// ReadOnly: the node is a sharer; silent drop on eviction.
	ReadOnly
	// ReadWrite: the node is the exclusive owner; eviction writes back to
	// the home and must invalidate processor-cache copies (inclusion).
	ReadWrite
)

// String names the state.
func (s State) String() string {
	switch s {
	case Invalid:
		return "inv"
	case ReadOnly:
		return "ro"
	case ReadWrite:
		return "rw"
	}
	return "?"
}

// Entry is one block-cache frame.
type Entry struct {
	Block   addr.BlockNum
	State   State
	Dirty   bool
	Version uint32
}

// Cache is the direct-mapped block cache (or the infinite baseline cache).
type Cache struct {
	frames   []Entry
	mask     uint32
	infinite bool
	inf      dense.BlockTable[Entry]

	hits   int64
	misses int64
}

// New builds a block cache with the given number of frames; frames < 0
// builds the infinite cache.
func New(frames int) *Cache {
	if frames < 0 {
		return &Cache{infinite: true}
	}
	if frames < 1 {
		frames = 1
	}
	return &Cache{frames: make([]Entry, frames), mask: uint32(frames - 1)}
}

// Infinite reports whether this is the ideal never-evicting cache.
func (c *Cache) Infinite() bool { return c.infinite }

// Frames returns the frame count (0 for the infinite cache).
func (c *Cache) Frames() int { return len(c.frames) }

func (c *Cache) frameFor(b addr.BlockNum) *Entry {
	return &c.frames[uint32(b)&c.mask]
}

// Lookup returns the entry for the block if resident.
func (c *Cache) Lookup(b addr.BlockNum) (Entry, bool) {
	if c.infinite {
		if e, ok := c.inf.Get(b); ok {
			c.hits++
			return *e, true
		}
		c.misses++
		return Entry{}, false
	}
	e := c.frameFor(b)
	if e.State != Invalid && e.Block == b {
		c.hits++
		return *e, true
	}
	c.misses++
	return Entry{}, false
}

// Fill installs the block, returning a displaced valid victim if any.
func (c *Cache) Fill(b addr.BlockNum, st State, dirty bool, ver uint32) (victim Entry, evicted bool) {
	if st == Invalid {
		panic("blockcache: fill with Invalid state")
	}
	if c.infinite {
		e, _ := c.inf.Put(b)
		*e = Entry{Block: b, State: st, Dirty: dirty, Version: ver}
		return Entry{}, false
	}
	e := c.frameFor(b)
	if e.State != Invalid && e.Block != b {
		victim, evicted = *e, true
	}
	*e = Entry{Block: b, State: st, Dirty: dirty, Version: ver}
	return victim, evicted
}

// Update rewrites state/dirty/version of a resident block (e.g., absorbing
// a processor-cache writeback, or an upgrade). It reports whether the block
// was resident.
func (c *Cache) Update(b addr.BlockNum, st State, dirty bool, ver uint32) bool {
	if c.infinite {
		if e, ok := c.inf.Get(b); ok {
			e.State, e.Dirty, e.Version = st, dirty, ver
			return true
		}
		return false
	}
	e := c.frameFor(b)
	if e.State != Invalid && e.Block == b {
		e.State, e.Dirty, e.Version = st, dirty, ver
		return true
	}
	return false
}

// Invalidate removes the block if resident, returning its prior content.
func (c *Cache) Invalidate(b addr.BlockNum) (Entry, bool) {
	if c.infinite {
		return c.inf.Delete(b)
	}
	e := c.frameFor(b)
	if e.State != Invalid && e.Block == b {
		old := *e
		e.State = Invalid
		return old, true
	}
	return Entry{}, false
}

// Downgrade moves a resident block to ReadOnly after its dirty data was
// written back home on an inter-node read of an exclusive block. The
// cached copy is refreshed to the written-back version: the node's L1 may
// have held data newer than this cache's frame, and after the downgrade
// this frame is an authoritative clean copy.
func (c *Cache) Downgrade(b addr.BlockNum, version uint32) {
	if c.infinite {
		if e, ok := c.inf.Get(b); ok {
			e.State, e.Dirty, e.Version = ReadOnly, false, version
		}
		return
	}
	e := c.frameFor(b)
	if e.State != Invalid && e.Block == b {
		e.State, e.Dirty, e.Version = ReadOnly, false, version
	}
}

// PageEntries returns copies of all resident entries belonging to a page
// (for R-NUMA relocation, which moves the node's cached blocks into the
// page cache).
func (c *Cache) PageEntries(g addr.Geometry, p addr.PageNum) []Entry {
	return c.AppendPageEntries(g, p, nil)
}

// AppendPageEntries is PageEntries appending into a caller-supplied
// buffer, so relocation can reuse scratch storage.
func (c *Cache) AppendPageEntries(g addr.Geometry, p addr.PageNum, dst []Entry) []Entry {
	if c.infinite {
		for off := 0; off < g.BlocksPerPage(); off++ {
			if e, ok := c.inf.Get(g.BlockOf(p, off)); ok {
				dst = append(dst, *e)
			}
		}
		return dst
	}
	for i := range c.frames {
		e := &c.frames[i]
		if e.State != Invalid && g.PageOf(e.Block) == p {
			dst = append(dst, *e)
		}
	}
	return dst
}

// InvalidatePage removes all resident blocks of the page.
func (c *Cache) InvalidatePage(g addr.Geometry, p addr.PageNum) {
	if c.infinite {
		for off := 0; off < g.BlocksPerPage(); off++ {
			c.inf.Delete(g.BlockOf(p, off))
		}
		return
	}
	for i := range c.frames {
		e := &c.frames[i]
		if e.State != Invalid && g.PageOf(e.Block) == p {
			e.State = Invalid
		}
	}
}

// Hits and Misses report lookup statistics.
func (c *Cache) Hits() int64   { return c.hits }
func (c *Cache) Misses() int64 { return c.misses }

// State returns a deep copy of the cache's contents and statistics
// (snapshot support). For the finite cache the slice is the full frame
// array in index order; for the infinite cache it is the resident entries
// sorted by block number, so snapshot bytes are deterministic.
func (c *Cache) State() (entries []Entry, hits, misses int64) {
	if c.infinite {
		entries = make([]Entry, 0, c.inf.Len())
		c.inf.Each(func(_ addr.BlockNum, e *Entry) { entries = append(entries, *e) })
		sort.Slice(entries, func(i, j int) bool { return entries[i].Block < entries[j].Block })
		return entries, c.hits, c.misses
	}
	entries = make([]Entry, len(c.frames))
	copy(entries, c.frames)
	return entries, c.hits, c.misses
}

// SetState replaces the cache's contents and statistics (snapshot
// restore).
func (c *Cache) SetState(entries []Entry, hits, misses int64) error {
	if c.infinite {
		var inf dense.BlockTable[Entry]
		for _, e := range entries {
			if e.State == Invalid {
				return fmt.Errorf("blockcache: invalid entry for block %d in infinite-cache snapshot", e.Block)
			}
			v, dup := inf.Put(e.Block)
			if dup {
				return fmt.Errorf("blockcache: duplicate entry for block %d", e.Block)
			}
			*v = e
		}
		c.inf = inf
		c.hits, c.misses = hits, misses
		return nil
	}
	if len(entries) != len(c.frames) {
		return fmt.Errorf("blockcache: snapshot has %d frames, cache has %d", len(entries), len(c.frames))
	}
	copy(c.frames, entries)
	c.hits, c.misses = hits, misses
	return nil
}
