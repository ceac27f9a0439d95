package predictor

import (
	"testing"
	"testing/quick"
)

// set inserts ip and stores v as the owner's value in its slot.
func set(tb *LBTable[int], ip uint32, v int) int {
	slot, _ := tb.Insert(ip)
	*tb.At(slot) = v
	return slot
}

// get looks ip up, returning its value; ok is false on a miss.
func get(tb *LBTable[int], ip uint32) (int, bool) {
	slot, ok := tb.Lookup(ip)
	if !ok {
		return 0, false
	}
	return *tb.At(slot), true
}

func TestLBTableLookupMiss(t *testing.T) {
	tb := NewLBTable[int](16, 2)
	if slot, ok := tb.Lookup(0x1000); ok || slot != -1 {
		t.Errorf("lookup on empty table = (%d, %v), want a miss", slot, ok)
	}
}

func TestLBTableInsertAndLookup(t *testing.T) {
	tb := NewLBTable[int](16, 2)
	slot, existed := tb.Insert(0x1000)
	if existed {
		t.Error("first insert should not report existing")
	}
	if slot < 0 || slot >= tb.Entries() {
		t.Fatalf("slot %d out of range [0, %d)", slot, tb.Entries())
	}
	*tb.At(slot) = 42
	if got, ok := get(tb, 0x1000); !ok || got != 42 {
		t.Fatalf("lookup after insert = (%d, %v), want 42", got, ok)
	}
	slot2, existed := tb.Insert(0x1000)
	if !existed || slot2 != slot || *tb.At(slot2) != 42 {
		t.Error("second insert should find the existing entry in the same slot")
	}
}

func TestLBTableLRUEviction(t *testing.T) {
	// 4 entries, 2 ways -> 2 sets. IPs in the same set: set bits are
	// (ip>>2)&1, so ip=0, 8, 16 share set 0.
	tb := NewLBTable[int](4, 2)
	set(tb, 0, 1)
	evicted := set(tb, 8, 2)
	// Touch 0 so 8 becomes LRU.
	if _, ok := tb.Lookup(0); !ok {
		t.Fatal("entry 0 vanished")
	}
	// The new entry takes over the LRU entry's slot.
	if slot := set(tb, 16, 3); slot != evicted {
		t.Errorf("ip 16 allocated slot %d, want the evicted slot %d", slot, evicted)
	}
	if _, ok := tb.Lookup(8); ok {
		t.Error("LRU entry (ip 8) should have been evicted")
	}
	if got, ok := get(tb, 0); !ok || got != 1 {
		t.Error("MRU entry (ip 0) should have survived")
	}
	if got, ok := get(tb, 16); !ok || got != 3 {
		t.Error("new entry (ip 16) missing")
	}
}

func TestLBTableEvictedEntryIsZeroed(t *testing.T) {
	tb := NewLBTable[int](2, 2)
	set(tb, 0, 7)
	set(tb, 8, 8)
	// Set is full; inserting a third evicts LRU (ip 0).
	slot, existed := tb.Insert(16)
	if existed {
		t.Error("insert after eviction should report new entry")
	}
	if v := *tb.At(slot); v != 0 {
		t.Errorf("recycled entry not zeroed: %d", v)
	}
}

func TestLBTableDirectMapped(t *testing.T) {
	tb := NewLBTable[int](4, 1)
	set(tb, 0x100, 5)
	// 0x100>>2 = 0x40, set = 0x40 & 3 = 0; conflicting ip maps same set:
	conflict := uint32(0x100 + 4*4) // next multiple landing in set 0
	tb.Insert(conflict)
	if _, ok := tb.Lookup(0x100); ok {
		t.Error("direct-mapped conflict should evict")
	}
}

func TestLBTableGeometryPanics(t *testing.T) {
	for _, g := range []struct{ e, w int }{{0, 1}, {7, 1}, {4, 3}, {2, 4}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewLBTable(%d,%d) did not panic", g.e, g.w)
				}
			}()
			NewLBTable[int](g.e, g.w)
		}()
	}
}

// Property: after inserting an IP, lookup always finds it (until evicted
// by a conflicting insert), and distinct tags never alias.
func TestLBTableNoFalseHits(t *testing.T) {
	f := func(ips []uint32) bool {
		tb := NewLBTable[uint32](64, 2)
		written := make(map[uint32]uint32)
		for _, ip := range ips {
			slot, _ := tb.Insert(ip)
			*tb.At(slot) = ip
			written[ip] = ip
		}
		// Any hit must return the value written for exactly that IP.
		for ip := range written {
			if slot, ok := tb.Lookup(ip); ok && *tb.At(slot) != ip {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestLBTableEntries(t *testing.T) {
	if got := NewLBTable[int](4096, 2).Entries(); got != 4096 {
		t.Errorf("entries() = %d, want 4096", got)
	}
}

// lruModel is the reference replacement policy: per set, the resident
// IPs from most to least recently used, each with the slot it holds.
type lruModel struct {
	ways int
	sets map[int][]lruLine
}

type lruLine struct {
	ip   uint32
	slot int
}

// touch moves line k of the set to the front.
func (m *lruModel) touch(set, k int) {
	lines := m.sets[set]
	l := lines[k]
	copy(lines[1:k+1], lines[:k])
	lines[0] = l
}

func (m *lruModel) find(set int, ip uint32) int {
	for k, l := range m.sets[set] {
		if l.ip == ip {
			return k
		}
	}
	return -1
}

// TestLBTableMatchesLRUModel drives a 4-way table with random lookups
// and inserts over a few sets, once from a fresh clock and once with the
// clock about to wrap, so the stamps are rebased mid-stream: every hit,
// miss, slot and eviction must match the reference LRU model. A Clear
// halfway through must leave a table that behaves as a new one.
func TestLBTableMatchesLRUModel(t *testing.T) {
	f := func(ops []uint16, nearWrap bool) bool {
		tb := NewLBTable[struct{}](16, 4)
		if nearWrap {
			tb.clock = ^uint32(0) - 5
		}
		m := &lruModel{ways: 4, sets: map[int][]lruLine{}}
		for n, op := range ops {
			if n == len(ops)/2 {
				tb.Clear()
				m.sets = map[int][]lruLine{}
			}
			ip := uint32(op&0x3F) * 4 // 64 IPs over 4 sets
			set := tb.set(ip)
			k := m.find(set, ip)
			if op&0x100 != 0 {
				slot, ok := tb.Lookup(ip)
				if ok != (k >= 0) || ok && slot != m.sets[set][k].slot {
					return false
				}
				if ok {
					m.touch(set, k)
				}
				continue
			}
			slot, existed := tb.Insert(ip)
			switch {
			case k >= 0:
				if !existed || slot != m.sets[set][k].slot {
					return false
				}
				m.touch(set, k)
			case len(m.sets[set]) < m.ways:
				if existed {
					return false
				}
				m.sets[set] = append([]lruLine{{ip, slot}}, m.sets[set]...)
			default:
				lines := m.sets[set]
				if existed || slot != lines[len(lines)-1].slot {
					return false
				}
				lines[len(lines)-1] = lruLine{ip, slot}
				m.touch(set, len(lines)-1)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
