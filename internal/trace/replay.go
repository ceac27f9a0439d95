package trace

import (
	"fmt"
	"sync"
)

// ReplayCache materialises event streams once, as struct-of-arrays
// column stores (one full-trace Block per key), and hands out
// independent replay cursors over the shared columns. The experiment
// harness replays every trace through dozens of predictor
// configurations; without the cache each replay re-runs the workload
// generator from scratch, which dominates sweep wall-clock. A warm
// cursor's NextBlock delivers zero-copy views into the resident
// columns, so warm replay is bounded by memory bandwidth, not decode:
// no varints, no per-event branches, no allocation.
//
// Columns cost 26 bytes/event resident (vs ~6.7 for the v3 varint
// encoding the trace files use) — the cache deliberately trades memory
// for hardware-speed replay; a full 45-trace × 400k-event roster is
// still under half a gigabyte. The budget caps that footprint.
//
// Concurrency: a key is materialised at most once (concurrent first
// opens of the same key serialise on the entry; distinct keys
// materialise in parallel), and cursors only read the shared immutable
// columns — Block.Resize and Block.Own reallocate before any consumer
// write can land in them — so any number of goroutines may replay the
// same trace concurrently.
//
// Budget: the cache retains at most budget bytes of resident columns. A
// stream that would overflow the budget is not retained — the open that
// discovered it and every later open of the same key fall back to the
// live generator, so results are identical with and without the cache,
// only slower.
type ReplayCache struct {
	budget int64 // bytes; <= 0 means unlimited

	mu       sync.Mutex
	used     int64
	resident int
	rejected int
	hits     int64
	misses   int64
	entries  map[string]*replayEntry
}

// replayEntry is one key's materialisation slot.
type replayEntry struct {
	mu   sync.Mutex
	done bool
	cols *Block // nil when not retained (over budget or source error)
}

// colBytesPerEvent is the resident cost of one event across a Block's
// columns: kind+lat bytes plus six 4-byte lanes.
const colBytesPerEvent = 26

// ReplayStats is a snapshot of the cache's occupancy.
type ReplayStats struct {
	Entries  int   // streams resident in memory
	Bytes    int64 // resident column bytes
	Budget   int64 // configured budget (0 = unlimited)
	Rejected int   // streams not retained (over budget or source error)
	Hits     int64 // opens served from a resident stream
	Misses   int64 // opens that fell back to the live source
}

// NewReplayCache returns a cache bounded to budgetBytes of resident
// columns; a non-positive budget means unlimited.
func NewReplayCache(budgetBytes int64) *ReplayCache {
	return &ReplayCache{budget: budgetBytes, entries: make(map[string]*replayEntry)}
}

// Open returns a Source replaying the stream identified by key. On the
// first open of a key the stream is drawn from gen(), encoded and (budget
// permitting) retained; later opens return fresh cursors over the shared
// encoding. When the stream cannot be retained — it would overflow the
// budget, or gen()'s stream ended on an error — Open falls back to a
// fresh gen() source so the caller sees exactly the live behaviour.
//
// gen must be deterministic for a fixed key: every call yields the same
// stream. The cache trusts the key; callers must fold anything that
// changes the stream (trace name, event budget) into it.
func (c *ReplayCache) Open(key string, gen func() Source) Source {
	c.mu.Lock()
	e := c.entries[key]
	if e == nil {
		e = &replayEntry{}
		c.entries[key] = e
	}
	c.mu.Unlock()

	e.mu.Lock()
	if !e.done {
		e.cols = c.materialise(gen)
		e.done = true
	}
	cols := e.cols
	e.mu.Unlock()

	c.mu.Lock()
	if cols == nil {
		c.misses++
	} else {
		c.hits++
	}
	c.mu.Unlock()

	if cols == nil {
		return gen()
	}
	return newColReader(cols)
}

// materialise drains one stream into a column store, honouring the byte
// budget. It returns nil when the stream is not retained. It appends
// whole column ranges of each delivered block, so cells a kind does not
// carry keep whatever stale data the source left there, as the column
// contract allows; the kind-gated readers (Block.Event, the cursor's
// consumers) see exactly the canonical form the v3 codec round-trips.
//
// A *Limit announces the stream's length, so its columns are sized once
// instead of grown by append; the size is capped at what the budget
// could retain, and the budget check runs before each append, so an
// over-budget stream is rejected without allocating past the budget.
func (c *ReplayCache) materialise(gen func() Source) *Block {
	limit := c.remaining()
	s := gen()
	cols := &Block{}
	if l, ok := s.(*Limit); ok && l.n > 0 {
		n := l.n
		if limit >= 0 && n > limit/colBytesPerEvent {
			n = limit / colBytesPerEvent
		}
		cols = NewBlock(int(n))
	}
	src := AsBlocks(s)
	b := GetBlock()
	defer PutBlock(b)
	for {
		n, ok := src.NextBlock(b, BlockLen)
		if limit >= 0 && int64(cols.Len()+n)*colBytesPerEvent > limit {
			// Over budget: abandon the columns; every open of this key
			// regenerates live instead.
			return c.reject()
		}
		cols.KindTaken = append(cols.KindTaken, b.KindTaken[:n]...)
		cols.IP = append(cols.IP, b.IP[:n]...)
		cols.Addr = append(cols.Addr, b.Addr[:n]...)
		cols.Val = append(cols.Val, b.Val[:n]...)
		cols.Offset = append(cols.Offset, b.Offset[:n]...)
		cols.Src1 = append(cols.Src1, b.Src1[:n]...)
		cols.Src2 = append(cols.Src2, b.Src2[:n]...)
		cols.Lat = append(cols.Lat, b.Lat[:n]...)
		if !ok {
			break
		}
	}
	if err := src.Err(); err != nil {
		// A failing stream is never cached: the error must surface
		// through the live path on every open.
		return c.reject()
	}
	size := int64(cols.Len()) * colBytesPerEvent
	c.mu.Lock()
	defer c.mu.Unlock()
	// Re-check at commit time: concurrent materialisations of distinct
	// keys may each have fit the budget alone but not together.
	if c.budget > 0 && c.used+size > c.budget {
		c.rejected++
		return nil
	}
	c.used += size
	c.resident++
	return cols
}

// remaining returns the unspent byte budget, or -1 for unlimited.
func (c *ReplayCache) remaining() int64 {
	if c.budget <= 0 {
		return -1
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	rem := c.budget - c.used
	if rem < 0 {
		rem = 0
	}
	return rem
}

// reject counts a stream that was not retained and returns the nil
// column slot, so call sites read as one-liners.
func (c *ReplayCache) reject() *Block {
	c.mu.Lock()
	c.rejected++
	c.mu.Unlock()
	return nil
}

// colReader is a replay cursor over a resident column store. NextBlock
// hands out zero-copy views (marked shared, see Block); Next gathers
// events through the kind-gated accessor so per-event consumers see the
// same canonical events.
type colReader struct {
	cols *Block
	pos  int
}

func newColReader(cols *Block) *colReader { return &colReader{cols: cols} }

// Next implements Source.
func (r *colReader) Next() (Event, bool) {
	if r.pos >= r.cols.Len() {
		return Event{}, false
	}
	ev := r.cols.Event(r.pos)
	r.pos++
	return ev, true
}

// Err implements Source: a resident store never fails.
func (r *colReader) Err() error { return nil }

// NextBlock implements BlockSource with a zero-copy view: b's columns
// are repointed at the resident store for the next n events. The view
// is read-only and valid until the next call (the Block contract).
func (r *colReader) NextBlock(b *Block, max int) (int, bool) {
	n := r.cols.Len() - r.pos
	if n > max {
		n = max
	}
	p := r.pos
	b.KindTaken = r.cols.KindTaken[p : p+n]
	b.IP = r.cols.IP[p : p+n]
	b.Addr = r.cols.Addr[p : p+n]
	b.Val = r.cols.Val[p : p+n]
	b.Offset = r.cols.Offset[p : p+n]
	b.Src1 = r.cols.Src1[p : p+n]
	b.Src2 = r.cols.Src2[p : p+n]
	b.Lat = r.cols.Lat[p : p+n]
	b.shared = true
	r.pos += n
	return n, r.pos < r.cols.Len()
}

// Stats returns a snapshot of the cache occupancy and hit counters.
func (c *ReplayCache) Stats() ReplayStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return ReplayStats{
		Entries:  c.resident,
		Bytes:    c.used,
		Budget:   c.budget,
		Rejected: c.rejected,
		Hits:     c.hits,
		Misses:   c.misses,
	}
}

// String renders the stats as one report line.
func (s ReplayStats) String() string {
	budget := "unlimited"
	if s.Budget > 0 {
		budget = fmt.Sprintf("%d MiB", s.Budget>>20)
	}
	return fmt.Sprintf("replay cache: %d streams, %.1f MiB resident (budget %s), %d hits, %d misses, %d rejected",
		s.Entries, float64(s.Bytes)/(1<<20), budget, s.Hits, s.Misses, s.Rejected)
}
