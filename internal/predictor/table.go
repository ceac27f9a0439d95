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
	slots    []lbSlot[T]
}

type lbSlot[T any] struct {
	valid bool
	tag   uint32
	age   uint32 // lower is more recently used
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
		if s.valid && s.tag == tag {
			t.touch(base, i)
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
		if s.valid && s.tag == tag {
			t.touch(base, i)
			return i, true
		}
		if !s.valid {
			victim = i
		} else if t.slots[victim].valid && s.age > t.slots[victim].age {
			victim = i
		}
	}
	s := &t.slots[victim]
	var zero T
	s.valid = true
	s.tag = tag
	s.val = zero
	t.touch(base, victim)
	return victim, false
}

// At returns the owner's value in slot.
func (t *LBTable[T]) At(slot int) *T { return &t.slots[slot].val }

// touch marks slot i most recently used within its set.
func (t *LBTable[T]) touch(base, i int) {
	for j := base; j < base+t.ways; j++ {
		if t.slots[j].valid {
			t.slots[j].age++
		}
	}
	t.slots[i].age = 0
}

// Entries returns the table capacity, which bounds every slot index.
func (t *LBTable[T]) Entries() int { return t.sets * t.ways }

// slots is a component's per-load state, one T per slot of its owner's
// load buffer. Components embed it for their Slots and Reset methods.
type slots[T any] struct{ st []T }

// Slots sizes the state to n load-buffer slots, all reset.
func (s *slots[T]) Slots(n int) { s.st = make([]T, n) }

// Reset clears a slot the owner's LB has just allocated.
func (s *slots[T]) Reset(slot int) { s.st[slot] = *new(T) }
