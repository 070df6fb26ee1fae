package dense

import (
	"encoding/binary"
	"testing"

	"rnuma/internal/addr"
)

// checkTable compares the table against a map oracle: the same size,
// every oracle key found with its value, and Each visiting exactly the
// oracle's keys once each.
func checkTable(t *testing.T, tab *BlockTable[uint64], want map[addr.BlockNum]uint64) {
	t.Helper()
	if tab.Len() != len(want) {
		t.Fatalf("Len = %d, oracle has %d", tab.Len(), len(want))
	}
	for b, v := range want {
		got, ok := tab.Get(b)
		if !ok || *got != v {
			t.Fatalf("Get(%d) = %v, %v; want %d", b, got, ok, v)
		}
	}
	seen := make(map[addr.BlockNum]bool, len(want))
	tab.Each(func(b addr.BlockNum, v *uint64) {
		if seen[b] {
			t.Fatalf("Each visited block %d twice", b)
		}
		seen[b] = true
		if w, ok := want[b]; !ok || *v != w {
			t.Fatalf("Each visited %d=%d; oracle has %d (present %v)", b, *v, w, ok)
		}
	})
	if len(seen) != len(want) {
		t.Fatalf("Each visited %d blocks, oracle has %d", len(seen), len(want))
	}
}

// put stores v under b in both the table and the oracle.
func put(tab *BlockTable[uint64], want map[addr.BlockNum]uint64, b addr.BlockNum, v uint64) {
	p, _ := tab.Put(b)
	*p = v
	want[b] = v
}

func TestBlockTable(t *testing.T) {
	var tab BlockTable[uint64]
	if _, ok := tab.Get(7); ok {
		t.Fatal("Get on the zero table found a block")
	}
	if _, ok := tab.Delete(7); ok {
		t.Fatal("Delete on the zero table removed a block")
	}
	want := map[addr.BlockNum]uint64{}

	// Put reports presence and returns the stored value.
	p, found := tab.Put(0)
	if found || *p != 0 {
		t.Fatalf("first Put(0) = %d, found=%v; want a fresh zero", *p, found)
	}
	*p = 11
	if p, found = tab.Put(0); !found || *p != 11 {
		t.Fatalf("second Put(0) = %d, found=%v; want 11, true", *p, found)
	}
	want[0] = 11
	put(&tab, want, ^addr.BlockNum(0), 12) // the largest block number is an ordinary key
	checkTable(t, &tab, want)

	// Growth across several doublings keeps every block.
	for b := addr.BlockNum(1); b < 5000; b++ {
		put(&tab, want, b*3, uint64(b))
	}
	checkTable(t, &tab, want)
	if n := len(tab.slots); n&(n-1) != 0 || tab.Len()*4 > n*3 {
		t.Fatalf("%d blocks in %d slots: want a power of two at most 3/4 full", tab.Len(), n)
	}

	// Delete returns the value and keeps the rest reachable.
	for b := addr.BlockNum(1); b < 5000; b += 2 {
		v, ok := tab.Delete(b * 3)
		if !ok || v != uint64(b) {
			t.Fatalf("Delete(%d) = %d, %v; want %d, true", b*3, v, ok, b)
		}
		delete(want, b*3)
	}
	if _, ok := tab.Delete(3); ok {
		t.Fatal("second Delete of a block succeeded")
	}
	checkTable(t, &tab, want)
}

// TestBlockTableCollidingKeys drives keys that are all multiples of the
// table size (so their low bits are equal) through insertion and
// deletion: the multiplicative hash must still spread them, and deleting
// from the middle of a probe run must shift the run back.
func TestBlockTableCollidingKeys(t *testing.T) {
	var tab BlockTable[uint64]
	want := map[addr.BlockNum]uint64{}
	for i := addr.BlockNum(0); i < 1000; i++ {
		put(&tab, want, i<<12, uint64(i))
	}
	checkTable(t, &tab, want)
	longest, run := 0, 0
	for _, s := range tab.slots {
		if s.key != 0 {
			run++
			longest = max(longest, run)
		} else {
			run = 0
		}
	}
	if longest > 64 {
		t.Errorf("longest probe run %d for 1000 strided keys in %d slots", longest, len(tab.slots))
	}
	for i := addr.BlockNum(0); i < 1000; i += 3 {
		tab.Delete(i << 12)
		delete(want, i<<12)
		checkTable(t, &tab, want)
	}
}

// TestBlockTableKeepsRunsAdjacent pins the locality the hash is for:
// the blocks of one aligned run of 1<<runBits have consecutive home
// slots, while consecutive runs land far apart.
func TestBlockTableKeepsRunsAdjacent(t *testing.T) {
	var tab BlockTable[uint64]
	for len(tab.slots) < 1<<12 {
		tab.grow()
	}
	const base = 40 << runBits
	for off := 1; off < 1<<runBits; off++ {
		if got, want := tab.home(base+addr.BlockNum(off)), tab.home(base)+off; got != want {
			t.Errorf("block %d of the run homes at slot %d, want %d", off, got, want)
		}
	}
	if d := tab.home(base+1<<runBits) - tab.home(base); d > -64 && d < 64 {
		t.Errorf("the next run homes %d slots away: runs are not spread", d)
	}
}

// TestBlockTableDeleteShiftsRun builds one probe run by hand — blocks
// whose home slots collide — and deletes its head: the rest must shift
// back into the freed home slot and stay reachable.
func TestBlockTableDeleteShiftsRun(t *testing.T) {
	var tab BlockTable[uint64]
	tab.grow() // first allocation: minBlockSlots slots
	var same []addr.BlockNum
	for b := addr.BlockNum(1); len(same) < 4; b++ {
		if len(same) == 0 || tab.home(b) == tab.home(same[0]) {
			same = append(same, b)
		}
	}
	want := map[addr.BlockNum]uint64{}
	for i, b := range same {
		put(&tab, want, b, uint64(i+1))
	}
	tab.Delete(same[0])
	delete(want, same[0])
	checkTable(t, &tab, want)
	if h := tab.home(same[0]); tab.slots[h].key != same[1] {
		t.Errorf("after deleting the run's head, its home slot holds %+v, want block %d", tab.slots[h], same[1])
	}
}

// TestBlockTableOrderDeterministic pins that iteration order depends
// only on the operations applied, not on the process.
func TestBlockTableOrderDeterministic(t *testing.T) {
	order := func() []addr.BlockNum {
		var tab BlockTable[uint64]
		for b := addr.BlockNum(0); b < 300; b++ {
			tab.Put(b * 7919)
		}
		for b := addr.BlockNum(0); b < 300; b += 5 {
			tab.Delete(b * 7919)
		}
		var out []addr.BlockNum
		tab.Each(func(b addr.BlockNum, _ *uint64) { out = append(out, b) })
		return out
	}
	a, b := order(), order()
	if len(a) != 240 || len(b) != 240 {
		t.Fatalf("iterated %d and %d blocks, want 240", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("iteration %d differs between identical tables: %d vs %d", i, a[i], b[i])
		}
	}
}

// FuzzBlockTable drives a table and a Go map with the same operation
// sequence and requires them to agree on every result, and on the whole
// contents after every delete and at the end. Each operation
// is 5 bytes: an opcode and a little-endian key, masked to a small key
// space on some opcodes so deletes and re-inserts hit present blocks.
func FuzzBlockTable(f *testing.F) {
	f.Add([]byte{0, 1, 0, 0, 0, 0, 2, 0, 0, 0, 2, 1, 0, 0, 0})
	f.Add([]byte{0, 0, 16, 0, 0, 0, 0, 32, 0, 0, 0, 0, 48, 0, 0, 3, 0, 16, 0, 0, 1, 0, 32, 0, 0})
	f.Add([]byte{4, 255, 255, 255, 255, 5, 255, 255, 255, 255})
	f.Fuzz(func(t *testing.T, ops []byte) {
		var tab BlockTable[uint64]
		want := map[addr.BlockNum]uint64{}
		for i := 0; i+5 <= len(ops); i += 5 {
			k := binary.LittleEndian.Uint32(ops[i+1:])
			if ops[i]&4 == 0 {
				k &= 0x3f0 // a small strided space: collisions and repeats
			}
			b := addr.BlockNum(k)
			switch ops[i] % 4 {
			case 0, 2:
				v, found := tab.Put(b)
				if _, ok := want[b]; ok != found {
					t.Fatalf("op %d: Put(%d) found=%v, oracle %v", i/5, b, found, ok)
				}
				*v = uint64(i)
				want[b] = uint64(i)
			case 1:
				v, ok := tab.Delete(b)
				w, wok := want[b]
				if ok != wok || v != w {
					t.Fatalf("op %d: Delete(%d) = %d, %v; oracle %d, %v", i/5, b, v, ok, w, wok)
				}
				delete(want, b)
				checkTable(t, &tab, want) // the shift must keep every other block reachable
			case 3:
				v, ok := tab.Get(b)
				w, wok := want[b]
				if ok != wok || (ok && *v != w) {
					t.Fatalf("op %d: Get(%d) = %v, %v; oracle %d, %v", i/5, b, v, ok, w, wok)
				}
			}
		}
		checkTable(t, &tab, want)
	})
}
