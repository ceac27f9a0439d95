// Package prefetch implements the hardware data prefetchers the paper's
// prior-art section positions address prediction against: the
// reference-prediction-table stride prefetcher of Baer and Chen
// ([Baer91]/[Chen95]), and the [Gonz97] observation that the same
// stride structures can serve address prediction and prefetching
// simultaneously. Unlike address prediction, a prefetch needs no recovery
// — it only warms the cache for a future reference.
package prefetch

// Prefetcher observes the resolved load stream and proposes addresses to
// bring into the cache ahead of their use.
type Prefetcher interface {
	// Observe trains on one resolved load and returns an address to
	// prefetch (ok=false when none).
	Observe(ip, addr uint32) (prefetchAddr uint32, ok bool)
	// Name identifies the prefetcher.
	Name() string
}

// RPTConfig configures the reference prediction table.
type RPTConfig struct {
	Entries int // direct-mapped table entries (power of two)
	// Degree is how many strides ahead to prefetch (1 = next reference).
	Degree int
	// MinConfidence is the steady-state count required before issuing
	// prefetches (two matching strides, like the paper's 2-bit schemes).
	MinConfidence uint8
}

// DefaultRPTConfig mirrors the classic Baer/Chen configuration.
func DefaultRPTConfig() RPTConfig {
	return RPTConfig{Entries: 4096, Degree: 1, MinConfidence: 2}
}

type rptEntry struct {
	last   uint32
	stride int32
	conf   uint8
	state  uint8 // 0 empty, 1 have-last, 2 have-stride
}

// RPT is the Baer/Chen stride prefetcher.
type RPT struct {
	cfg  RPTConfig
	tab  []rptEntry
	mask uint32
}

// NewRPT builds a reference prediction table.
func NewRPT(cfg RPTConfig) *RPT {
	if cfg.Entries <= 0 || cfg.Entries&(cfg.Entries-1) != 0 {
		panic("prefetch: RPT entries must be a power of two")
	}
	if cfg.Degree < 1 {
		cfg.Degree = 1
	}
	return &RPT{cfg: cfg, tab: make([]rptEntry, cfg.Entries), mask: uint32(cfg.Entries - 1)}
}

// Name implements Prefetcher.
func (r *RPT) Name() string { return "rpt-stride" }

// Reset empties the table in place: it is again as NewRPT built it.
func (r *RPT) Reset() { clear(r.tab) }

// Observe implements Prefetcher.
func (r *RPT) Observe(ip, addr uint32) (uint32, bool) {
	e := &r.tab[(ip>>2)&r.mask]
	defer func() { e.last = addr }()
	switch e.state {
	case 0:
		e.state = 1
		return 0, false
	case 1:
		e.stride = int32(addr - e.last)
		e.state = 2
		e.conf = 0
		return 0, false
	default:
		delta := int32(addr - e.last)
		if delta == e.stride {
			if e.conf < 3 {
				e.conf++
			}
		} else {
			e.stride = delta
			e.conf = 0
		}
		if e.conf >= r.cfg.MinConfidence && e.stride != 0 {
			return addr + uint32(e.stride)*uint32(r.cfg.Degree), true
		}
		return 0, false
	}
}

// NextLine is the trivial sequential prefetcher (next cache line), the
// baseline any stride scheme must beat on strided code.
type NextLine struct {
	LineBytes uint32
}

// NewNextLine builds a next-line prefetcher.
func NewNextLine(lineBytes uint32) *NextLine {
	if lineBytes == 0 {
		lineBytes = 32
	}
	return &NextLine{LineBytes: lineBytes}
}

// Name implements Prefetcher.
func (n *NextLine) Name() string { return "next-line" }

// Observe implements Prefetcher.
func (n *NextLine) Observe(ip, addr uint32) (uint32, bool) {
	return addr + n.LineBytes, true
}
