package dense

import "rnuma/internal/addr"

// BlockTable maps block numbers to values of type V: an open-addressed,
// linear-probing hash table with a power-of-two slot count and a
// multiplicative (Fibonacci) hash that keeps runs of neighbouring block
// numbers in adjacent slots (see home). It replaces Go maps on the
// protocol's per-miss path — the directory's block index and the
// infinite block cache — where map hashing, cache misses and, for
// pointer values, per-fill allocation were a measurable share of replay
// time.
//
// The table grows with the blocks actually stored (it doubles at 3/4
// load), never with the highest block number, so a sparse footprint in a
// large address space stays small. Deletion uses backward shift, so no
// tombstones accumulate. Slot order, and therefore Each's iteration order,
// is a pure function of the sequence of Put and Delete calls: two tables
// driven by the same operations iterate identically.
//
// Pointers returned by Get and Put alias slot storage: they are valid
// only until the next Put or Delete.
type BlockTable[V any] struct {
	slots []blockSlot[V] // key 0 marks an empty slot
	n     int            // blocks held in slots
	shift uint           // 32 - log2(len(slots))

	// Block 0 lives in a side slot, since key 0 marks empty slots: the
	// slots then need no occupancy flag, which keeps them at 8 bytes
	// for an int32 value.
	zero    V
	hasZero bool
}

type blockSlot[V any] struct {
	key addr.BlockNum
	val V
}

// minBlockSlots is the slot count of a table's first allocation.
const minBlockSlots = 16

// Len reports how many blocks the table holds.
func (t *BlockTable[V]) Len() int {
	if t.hasZero {
		return t.n + 1
	}
	return t.n
}

// runBits is log2 of how many consecutive block numbers share a home
// run: the hash keeps them in adjacent slots, so the neighbouring blocks
// of one page, which the protocol tends to touch together, share cache
// lines.
const runBits = 3

// home is the block's preferred slot. The run number (the key without
// its low runBits bits) is hashed multiplicatively — the top bits of its
// product with 2^32/φ — which spreads strided keys (multiples of the
// table size included) across the whole table; the low bits then pick
// the slot within the run.
func (t *BlockTable[V]) home(b addr.BlockNum) int {
	run := (uint32(b) >> runBits) * 0x9E3779B1 >> (t.shift + runBits)
	return int(run<<runBits | uint32(b)&(1<<runBits-1))
}

// Get returns the block's value, or false when the block is absent.
func (t *BlockTable[V]) Get(b addr.BlockNum) (*V, bool) {
	if b == 0 {
		if t.hasZero {
			return &t.zero, true
		}
		return nil, false
	}
	if t.n == 0 {
		return nil, false
	}
	mask := len(t.slots) - 1
	for i := t.home(b); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.key == b {
			return &s.val, true
		}
		if s.key == 0 {
			return nil, false
		}
	}
}

// Put returns the block's value, inserting a zero value first when the
// block is absent; found reports whether it was already present.
func (t *BlockTable[V]) Put(b addr.BlockNum) (v *V, found bool) {
	if b == 0 {
		found, t.hasZero = t.hasZero, true
		return &t.zero, found
	}
	if (t.n+1)*4 > len(t.slots)*3 {
		t.grow()
	}
	mask := len(t.slots) - 1
	for i := t.home(b); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.key == b {
			return &s.val, true
		}
		if s.key == 0 {
			s.key = b
			t.n++
			return &s.val, false
		}
	}
}

// grow doubles the slot count (or makes the first allocation) and
// reinserts every block in slot order.
func (t *BlockTable[V]) grow() {
	size := 2 * len(t.slots)
	if size < minBlockSlots {
		size = minBlockSlots
	}
	old := t.slots
	t.slots = make([]blockSlot[V], size)
	t.shift = 32
	for s := size; s > 1; s >>= 1 {
		t.shift--
	}
	mask := size - 1
	for k := range old {
		if old[k].key == 0 {
			continue
		}
		i := t.home(old[k].key)
		for t.slots[i].key != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = old[k]
	}
}

// Delete removes the block, returning its value and whether it was
// present. The probe run after the freed slot shifts back over it, so
// every remaining block stays reachable from its home slot.
func (t *BlockTable[V]) Delete(b addr.BlockNum) (V, bool) {
	var zero V
	if b == 0 {
		old, ok := t.zero, t.hasZero
		t.zero, t.hasZero = zero, false
		return old, ok
	}
	if t.n == 0 {
		return zero, false
	}
	mask := len(t.slots) - 1
	i := t.home(b)
	for ; t.slots[i].key != b; i = (i + 1) & mask {
		if t.slots[i].key == 0 {
			return zero, false
		}
	}
	old := t.slots[i].val
	for j := (i + 1) & mask; t.slots[j].key != 0; j = (j + 1) & mask {
		// The block in slot j may fill the hole at i only when i lies
		// on its probe path, from its home slot up to j.
		if (j-t.home(t.slots[j].key))&mask >= (j-i)&mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = blockSlot[V]{}
	t.n--
	return old, true
}

// Each calls fn for every block — block 0 first, then slot order. fn
// must not Put or Delete.
func (t *BlockTable[V]) Each(fn func(addr.BlockNum, *V)) {
	if t.hasZero {
		fn(0, &t.zero)
	}
	for i := range t.slots {
		if s := &t.slots[i]; s.key != 0 {
			fn(s.key, &s.val)
		}
	}
}
