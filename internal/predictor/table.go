package predictor

// LBTable is a generic set-associative table indexed and tagged by static
// instruction address, with true-LRU replacement inside each set. Every
// load buffer (last-address, stride, CAP, hybrid, tournament) is one.
// A probe returns a slot in [0, Entries()) that indexes the per-load
// state of every component under the LB; T is what the owner itself
// keeps per entry (a selector, chooser counters, or struct{}).
type LBTable[T any] struct {
	sets     int
	ways     int
	setLow   uint // bits to shift IP before set selection
	setMask  uint32
	tagShift uint // setLow + log2(sets), precomputed off the hot path
	clock    uint32
	slots    []lbSlot[T]
}

type lbSlot[T any] struct {
	tag   uint32
	stamp uint32 // clock at the last use; 0 marks an invalid way
	val   T
}

// NewLBTable builds a table with the given total entry count and
// associativity; both must be powers of two with entries ≥ ways.
func NewLBTable[T any](entries, ways int) *LBTable[T] {
	checkPow2("LB entries", entries)
	checkPow2("LB ways", ways)
	if ways > entries {
		panic("predictor: LB ways exceed entries")
	}
	sets := entries / ways
	return &LBTable[T]{
		sets:     sets,
		ways:     ways,
		setLow:   2, // instructions are 4-byte aligned in our traces
		setMask:  uint32(sets - 1),
		tagShift: 2 + log2(sets),
		slots:    make([]lbSlot[T], entries),
	}
}

func (t *LBTable[T]) set(ip uint32) int {
	return int((ip >> t.setLow) & t.setMask)
}

func (t *LBTable[T]) tag(ip uint32) uint32 {
	return ip >> t.tagShift
}

// Lookup returns the slot holding ip; ok is false on a miss. A hit
// refreshes LRU.
func (t *LBTable[T]) Lookup(ip uint32) (slot int, ok bool) {
	base := t.set(ip) * t.ways
	tag := t.tag(ip)
	for i := base; i < base+t.ways; i++ {
		s := &t.slots[i]
		if s.stamp != 0 && s.tag == tag {
			t.touch(i)
			return i, true
		}
	}
	return -1, false
}

// Insert returns the slot for ip, allocating (and evicting the LRU way)
// if absent. On allocation (existed false) the slot holds a zero T, and
// the owner must reset every component's state in it.
func (t *LBTable[T]) Insert(ip uint32) (slot int, existed bool) {
	base := t.set(ip) * t.ways
	tag := t.tag(ip)
	victim := base
	for i := base; i < base+t.ways; i++ {
		s := &t.slots[i]
		if s.stamp != 0 && s.tag == tag {
			t.touch(i)
			return i, true
		}
		if s.stamp == 0 {
			victim = i
		} else if t.slots[victim].stamp != 0 && s.stamp < t.slots[victim].stamp {
			victim = i
		}
	}
	s := &t.slots[victim]
	var zero T
	s.tag = tag
	s.val = zero
	t.touch(victim)
	return victim, false
}

// At returns the owner's value in slot.
func (t *LBTable[T]) At(slot int) *T { return &t.slots[slot].val }

// touch stamps slot i most recently used, as memsys.Cache does: a
// monotone clock keeps the exact LRU order of the increment-every-way
// scheme (the valid stamps of a set are distinct and its minimum is the
// least recently used way) with one store instead of one per way. When
// the clock would wrap, rebase renumbers the stamps first.
func (t *LBTable[T]) touch(i int) {
	if t.clock == ^uint32(0) {
		t.rebase()
	}
	t.clock++
	t.slots[i].stamp = t.clock
}

// rebase renumbers every set's valid stamps 1..k in their LRU order and
// restarts the clock above them, so the order survives the clock's
// wrap-around.
func (t *LBTable[T]) rebase() {
	rank := make([]uint32, t.ways)
	for base := 0; base < len(t.slots); base += t.ways {
		set := t.slots[base : base+t.ways]
		for i := range set {
			rank[i] = 0
			if set[i].stamp == 0 {
				continue
			}
			for j := range set {
				if set[j].stamp != 0 && set[j].stamp <= set[i].stamp {
					rank[i]++
				}
			}
		}
		for i := range set {
			set[i].stamp = rank[i]
		}
	}
	t.clock = uint32(t.ways)
}

// Clear invalidates every entry and restarts the clock: the table is
// again as NewLBTable built it.
func (t *LBTable[T]) Clear() {
	clear(t.slots)
	t.clock = 0
}

// Entries returns the table capacity, which bounds every slot index.
func (t *LBTable[T]) Entries() int { return t.sets * t.ways }

// slots is a component's per-load state, one T per slot of its owner's
// load buffer. Components embed it for their Slots and Reset methods.
type slots[T any] struct{ st []T }

// Slots sizes the state to n load-buffer slots, all reset. A second
// call with the same n clears the array it already has.
func (s *slots[T]) Slots(n int) {
	if len(s.st) == n {
		clear(s.st)
		return
	}
	s.st = make([]T, n)
}

// Reset clears a slot the owner's LB has just allocated.
func (s *slots[T]) Reset(slot int) { s.st[slot] = *new(T) }
