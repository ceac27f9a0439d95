// Package workload synthesises instruction traces that reproduce the load
// address-pattern classes the paper's evaluation traces exhibit (§2):
// constant/global scalars, stack frames, strided array walks, recursive
// data structures (linked lists, doubly linked lists, binary trees),
// call-site-correlated function bodies, hash tables and irregular walks.
//
// A Generator interleaves behaviour instances with a seeded weighted
// scheduler and implements trace.Source, so experiments can stream
// arbitrarily long traces without materialising them. The 45 named traces
// of the paper's eight suites are defined in suites.go.
package workload

import (
	"math/rand"
	"slices"

	"capred/internal/trace"
)

// Behavior is one simulated program component. Each step call emits a
// bounded burst of events (for example one loop iteration) into the
// generator.
type Behavior interface {
	step(g *Generator)
	// loadsPerBurst estimates how many dynamic loads one step emits, so
	// the scheduler can convert target load shares into pick weights.
	loadsPerBurst() int
}

// Generator interleaves behaviours into a single instruction stream.
//
// A burst is emitted straight into columns: buf is a struct-of-arrays
// refill buffer whose columns all share one length, the slots grown so
// far, with the first n filled. Each emit helper writes only the columns
// its event kind carries, as trace.Block's column contract allows, and
// NextBlock hands bursts on with one copy per column.
type Generator struct {
	rng   *rand.Rand
	heap  *Heap
	buf   trace.Block // burst columns; cells past n and cells a kind does not carry are stale
	n     int         // events filled in buf
	pos   int         // read position in buf
	abs   int64       // absolute index of the next event to be emitted
	comps []weightedBehavior
	total int
	ipTop uint32 // next static-code block to hand out
}

type weightedBehavior struct {
	b Behavior
	w int
}

// NewGenerator creates an empty generator with the given seed. Behaviours
// are added with Add; the stream is then consumed via trace.Source.
func NewGenerator(seed int64) *Generator {
	rng := rand.New(rand.NewSource(seed))
	return &Generator{
		rng:   rng,
		heap:  NewHeap(0x1000_0000, 0xD000_0000, rng),
		ipTop: 0x0040_0000,
	}
}

// RNG exposes the generator's seeded random source to behaviours.
func (g *Generator) RNG() *rand.Rand { return g.rng }

// Heap exposes the generator's data address space.
func (g *Generator) Heap() *Heap { return g.heap }

// Add registers a behaviour with a scheduling weight: on each refill the
// generator picks one behaviour with probability weight/total and emits
// one burst from it.
func (g *Generator) Add(b Behavior, weight int) {
	if weight <= 0 {
		panic("workload: behaviour weight must be positive")
	}
	g.comps = append(g.comps, weightedBehavior{b: b, w: weight})
	g.total += weight
}

// AddShare registers a behaviour so that it contributes approximately the
// given share (in load-share units, e.g. 12.5) of the trace's dynamic
// loads, by dividing out the behaviour's burst size.
func (g *Generator) AddShare(b Behavior, share float64) {
	lpb := b.loadsPerBurst()
	if lpb < 1 {
		lpb = 1
	}
	w := int(share*100/float64(lpb) + 0.5)
	if w < 1 {
		w = 1
	}
	g.Add(b, w)
}

// ipBlock hands out a fresh static-code region of the given instruction
// count; behaviours derive their static IPs from it.
func (g *Generator) ipBlock(slots int) uint32 {
	base := g.ipTop
	g.ipTop += uint32(slots) * 4
	return base
}

// Next implements trace.Source: it gathers one event from the burst
// columns with trace.Block.Event.
func (g *Generator) Next() (trace.Event, bool) {
	for g.pos >= g.n {
		if g.total == 0 {
			return trace.Event{}, false
		}
		g.refill()
	}
	// Gather straight into the result: staging the event in a local
	// costs one more 32-byte copy per event.
	g.pos++
	return g.buf.Event(g.pos - 1), true
}

// NextBlock implements trace.BlockSource: it copies burst column ranges
// into b, one copy per column, refilling across burst boundaries until
// the block holds max events, so the hot drain loops pay one call per
// block instead of one interface dispatch per event.
func (g *Generator) NextBlock(b *trace.Block, max int) (int, bool) {
	if g.total == 0 {
		b.Resize(0)
		return 0, false
	}
	b.Resize(max)
	for n := 0; n < max; {
		if g.pos >= g.n {
			g.refill()
			continue
		}
		lo := g.pos
		hi := min(g.n, lo+max-n)
		c := &g.buf
		copy(b.KindTaken[n:], c.KindTaken[lo:hi])
		copy(b.IP[n:], c.IP[lo:hi])
		copy(b.Addr[n:], c.Addr[lo:hi])
		copy(b.Val[n:], c.Val[lo:hi])
		copy(b.Offset[n:], c.Offset[lo:hi])
		copy(b.Src1[n:], c.Src1[lo:hi])
		copy(b.Src2[n:], c.Src2[lo:hi])
		copy(b.Lat[n:], c.Lat[lo:hi])
		n += hi - lo
		g.pos = hi
	}
	return max, true
}

// refill empties the burst columns and emits the next burst into them.
func (g *Generator) refill() {
	g.n, g.pos = 0, 0
	g.pick().step(g)
}

// Err implements trace.Source; generation never fails.
func (g *Generator) Err() error { return nil }

func (g *Generator) pick() Behavior {
	n := g.rng.Intn(g.total)
	for _, c := range g.comps {
		if n < c.w {
			return c.b
		}
		n -= c.w
	}
	panic("workload: unreachable scheduler state")
}

// minBurstCap is the burst columns' first capacity; they double from
// there whenever a burst outgrows them, and keep their size afterwards.
const minBurstCap = 256

// emit claims the next burst slot for an event of the given kind byte
// (kind | trace.KindTakenBit) and IP, and returns the slot's column index
// and the event's absolute stream index, which behaviours use to express
// dependency distances. Callers evaluate their dist fields before
// calling emit, since dist measures from the event being emitted.
func (g *Generator) emit(kindTaken uint8, ip uint32) (int, int64) {
	i := g.n
	if i == len(g.buf.KindTaken) {
		g.grow()
	}
	g.buf.KindTaken[i] = kindTaken
	g.buf.IP[i] = ip
	g.n++
	idx := g.abs
	g.abs++
	return i, idx
}

// grow doubles the burst columns, keeping the filled events.
func (g *Generator) grow() {
	c := &g.buf
	n := max(2*len(c.KindTaken), minBurstCap)
	c.KindTaken = extend(c.KindTaken, n)
	c.IP = extend(c.IP, n)
	c.Addr = extend(c.Addr, n)
	c.Val = extend(c.Val, n)
	c.Offset = extend(c.Offset, n)
	c.Src1 = extend(c.Src1, n)
	c.Src2 = extend(c.Src2, n)
	c.Lat = extend(c.Lat, n)
}

// extend returns s lengthened to n, keeping its contents.
func extend[T any](s []T, n int) []T {
	return slices.Grow(s, n-len(s))[:n]
}

// dist converts a producer's absolute index into the distance field of an
// event emitted right now; zero producers map to "no dependency".
func (g *Generator) dist(producer int64) uint32 {
	if producer < 0 {
		return 0
	}
	d := g.abs - producer
	if d <= 0 || d > 1<<30 {
		return 0
	}
	return uint32(d)
}

// Emission helpers shared by behaviours. Each writes exactly the columns
// its kind carries (trace.Block's column contract): a zero Src2 on loads
// and stores is written, not left stale, because those kinds carry it.

// alu emits an ALU op with up to two dependencies and returns its index.
func (g *Generator) alu(ip uint32, src1, src2 int64, lat uint8) int64 {
	d1, d2 := g.dist(src1), g.dist(src2)
	i, idx := g.emit(uint8(trace.KindALU), ip)
	g.buf.Src1[i] = d1
	g.buf.Src2[i] = d2
	g.buf.Lat[i] = lat
	return idx
}

// stableVal derives a deterministic "memory content" for an address, used
// as the default loaded value: re-reading an unmodified location returns
// the same value, as in a real memory image.
func stableVal(addr uint32) uint32 {
	return addr*2654435761 ^ 0x9e3779b9
}

// load emits a load whose address was produced by addrDep (-1 for none)
// and returns its index. The loaded value defaults to the stable memory
// content of the address.
func (g *Generator) load(ip, addr uint32, offset int32, addrDep int64) int64 {
	return g.loadVal(ip, addr, offset, addrDep, stableVal(addr))
}

// loadVal emits a load with an explicit loaded value — pointer fields
// return the pointee's address, counters return incrementing values, and
// volatile data returns whatever the program last stored.
func (g *Generator) loadVal(ip, addr uint32, offset int32, addrDep int64, val uint32) int64 {
	d := g.dist(addrDep)
	i, idx := g.emit(uint8(trace.KindLoad), ip)
	g.buf.Addr[i] = addr
	g.buf.Val[i] = val
	g.buf.Offset[i] = offset
	g.buf.Src1[i] = d
	g.buf.Src2[i] = 0
	return idx
}

// store emits a store of a value produced by valDep to addr.
func (g *Generator) store(ip, addr uint32, offset int32, valDep int64) int64 {
	d := g.dist(valDep)
	i, idx := g.emit(uint8(trace.KindStore), ip)
	g.buf.Addr[i] = addr
	g.buf.Offset[i] = offset
	g.buf.Src1[i] = d
	g.buf.Src2[i] = 0
	return idx
}

// branch emits a conditional branch depending on condDep.
func (g *Generator) branch(ip, target uint32, taken bool, condDep int64) int64 {
	d := g.dist(condDep)
	kb := uint8(trace.KindBranch)
	if taken {
		kb |= trace.KindTakenBit
	}
	i, idx := g.emit(kb, ip)
	g.buf.Addr[i] = target
	g.buf.Src1[i] = d
	return idx
}

// call and ret emit control transfers used for path history.
func (g *Generator) call(ip, target uint32) int64 {
	i, idx := g.emit(uint8(trace.KindCall), ip)
	g.buf.Addr[i] = target
	return idx
}

func (g *Generator) ret(ip, target uint32) int64 {
	i, idx := g.emit(uint8(trace.KindReturn), ip)
	g.buf.Addr[i] = target
	return idx
}

// consumers emits n dependent ALU ops consuming the value produced at
// producer, modelling the instructions fed by a load.
func (g *Generator) consumers(ip uint32, producer int64, n int) {
	prev := producer
	for i := 0; i < n; i++ {
		prev = g.alu(ip+uint32(4*i), prev, -1, 1)
	}
}
