// Package memsys models the memory hierarchy of the paper's baseline
// processor (§4.1): a 32KB L1 data cache, a 1MB L2, and main memory, with
// set-associative, write-back, LRU caches. The timing model uses it to
// derive per-access load-to-use latencies.
package memsys

// CacheConfig describes one cache level.
type CacheConfig struct {
	SizeBytes int // total capacity
	LineBytes int // line size (power of two)
	Ways      int // associativity (power of two)
	HitCycles int // access latency on a hit
}

// Cache is a set-associative, write-back, true-LRU cache model. It tracks
// hits and misses; data values are not modelled, only presence.
type Cache struct {
	cfg      CacheConfig
	sets     int
	lineLow  uint
	tagShift uint
	setMask  uint32
	clock    uint32
	lines    []cacheLine

	Hits   int64
	Misses int64
}

type cacheLine struct {
	valid bool
	dirty bool
	tag   uint32
	age   uint32 // clock stamp of the last access; the set's minimum is LRU
}

// NewCache builds a cache. Size, line size and ways must describe a
// power-of-two set count.
func NewCache(cfg CacheConfig) *Cache {
	if cfg.SizeBytes <= 0 || cfg.LineBytes <= 0 || cfg.Ways <= 0 {
		panic("memsys: cache geometry must be positive")
	}
	lines := cfg.SizeBytes / cfg.LineBytes
	sets := lines / cfg.Ways
	if sets <= 0 || sets&(sets-1) != 0 {
		panic("memsys: set count must be a positive power of two")
	}
	if cfg.LineBytes&(cfg.LineBytes-1) != 0 {
		panic("memsys: line size must be a power of two")
	}
	lineLow := log2(uint(cfg.LineBytes))
	return &Cache{
		cfg:      cfg,
		sets:     sets,
		lineLow:  lineLow,
		tagShift: lineLow + log2(uint(sets)),
		setMask:  uint32(sets - 1),
		lines:    make([]cacheLine, lines),
	}
}

func log2(n uint) uint {
	var l uint
	for n > 1 {
		n >>= 1
		l++
	}
	return l
}

func (c *Cache) set(addr uint32) int {
	return int((addr >> c.lineLow) & c.setMask)
}

func (c *Cache) tag(addr uint32) uint32 {
	return addr >> c.tagShift
}

// Access looks up addr, filling on miss. It returns whether the access hit
// and, on miss, whether a dirty victim was evicted (write-back traffic).
func (c *Cache) Access(addr uint32, write bool) (hit, writeback bool) {
	base := c.set(addr) * c.cfg.Ways
	tag := c.tag(addr)
	victim := base
	for i := base; i < base+c.cfg.Ways; i++ {
		l := &c.lines[i]
		if l.valid && l.tag == tag {
			c.touch(base, i)
			if write {
				l.dirty = true
			}
			c.Hits++
			return true, false
		}
		if !l.valid {
			victim = i
		} else if c.lines[victim].valid && l.age < c.lines[victim].age {
			victim = i
		}
	}
	c.Misses++
	l := &c.lines[victim]
	writeback = l.valid && l.dirty
	l.valid, l.dirty, l.tag = true, write, tag
	c.touch(base, victim)
	return false, writeback
}

// Contains reports whether addr is resident without perturbing LRU or
// statistics.
func (c *Cache) Contains(addr uint32) bool {
	base := c.set(addr) * c.cfg.Ways
	tag := c.tag(addr)
	for i := base; i < base+c.cfg.Ways; i++ {
		l := &c.lines[i]
		if l.valid && l.tag == tag {
			return true
		}
	}
	return false
}

// touch stamps line i as most recently used. A monotone clock keeps the
// exact LRU order of the textbook increment-every-way scheme (stamps in
// a set are distinct, the minimum is always the least recently used)
// at O(1) per access instead of O(ways). Before the clock would wrap,
// rebase renumbers the stamps first.
func (c *Cache) touch(base, i int) {
	if c.clock == ^uint32(0) {
		c.rebase()
	}
	c.clock++
	c.lines[i].age = c.clock
}

// rebase renumbers every set's valid stamps 1..k in their LRU order and
// restarts the clock above them, so the order survives the clock's
// wrap-around.
func (c *Cache) rebase() {
	ways := c.cfg.Ways
	rank := make([]uint32, ways)
	for base := 0; base < len(c.lines); base += ways {
		set := c.lines[base : base+ways]
		for i := range set {
			rank[i] = 0
			if !set[i].valid {
				continue
			}
			for j := range set {
				if set[j].valid && set[j].age <= set[i].age {
					rank[i]++
				}
			}
		}
		for i := range set {
			set[i].age = rank[i]
		}
	}
	c.clock = uint32(ways)
}

// Reset empties the cache and zeroes its statistics in place: it is
// again as NewCache built it.
func (c *Cache) Reset() {
	clear(c.lines)
	c.clock = 0
	c.Hits, c.Misses = 0, 0
}

// HitRate returns hits / accesses.
func (c *Cache) HitRate() float64 {
	total := c.Hits + c.Misses
	if total == 0 {
		return 0
	}
	return float64(c.Hits) / float64(total)
}

// HierarchyConfig describes the two-level hierarchy plus memory latency.
type HierarchyConfig struct {
	L1, L2    CacheConfig
	MemCycles int
}

// DefaultHierarchyConfig mirrors §4.1: 32KB L1, 1MB L2, with latencies in
// line with the paper's era scaled to its 3-cycle load-to-use discussion.
func DefaultHierarchyConfig() HierarchyConfig {
	return HierarchyConfig{
		L1:        CacheConfig{SizeBytes: 32 << 10, LineBytes: 32, Ways: 4, HitCycles: 4},
		L2:        CacheConfig{SizeBytes: 1 << 20, LineBytes: 32, Ways: 8, HitCycles: 8},
		MemCycles: 30,
	}
}

// Hierarchy is the two-level data-cache hierarchy.
type Hierarchy struct {
	cfg HierarchyConfig
	L1  *Cache
	L2  *Cache
}

// NewHierarchy builds the hierarchy.
func NewHierarchy(cfg HierarchyConfig) *Hierarchy {
	return &Hierarchy{cfg: cfg, L1: NewCache(cfg.L1), L2: NewCache(cfg.L2)}
}

// Reset empties both levels and zeroes their statistics in place.
func (h *Hierarchy) Reset() {
	h.L1.Reset()
	h.L2.Reset()
}

// Level is the level of the hierarchy that served an access.
type Level uint8

const (
	L1  Level = iota // an L1 hit
	L2               // an L1 miss that hit in L2
	Mem              // a miss in both levels, served by main memory
)

// Latency returns the load-to-use latency in cycles of an access that
// level l serves: the hit time of every level it passed through, plus
// the memory latency for Mem.
func (c HierarchyConfig) Latency(l Level) int {
	lat := c.L1.HitCycles
	if l >= L2 {
		lat += c.L2.HitCycles
	}
	if l == Mem {
		lat += c.MemCycles
	}
	return lat
}

// Serve performs a load or store and returns the level that served it.
func (h *Hierarchy) Serve(addr uint32, write bool) Level {
	if hit, _ := h.L1.Access(addr, write); hit {
		return L1
	}
	if hit, _ := h.L2.Access(addr, write); hit {
		return L2
	}
	return Mem
}

// Access performs a load or store and returns its total latency in cycles.
func (h *Hierarchy) Access(addr uint32, write bool) int {
	return h.cfg.Latency(h.Serve(addr, write))
}

// L1HitCycles exposes the L1 latency (the minimum load-to-use latency the
// paper's address prediction hides).
func (h *Hierarchy) L1HitCycles() int { return h.cfg.L1.HitCycles }

// Prefetch brings addr's line into the hierarchy without counting it as
// demand traffic in either level's hit statistics.
func (h *Hierarchy) Prefetch(addr uint32) {
	h1, m1 := h.L1.Hits, h.L1.Misses
	h2, m2 := h.L2.Hits, h.L2.Misses
	if hit, _ := h.L1.Access(addr, false); !hit {
		h.L2.Access(addr, false)
	}
	h.L1.Hits, h.L1.Misses = h1, m1
	h.L2.Hits, h.L2.Misses = h2, m2
}
