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
type Generator struct {
	rng   *rand.Rand
	heap  *Heap
	buf   []trace.Event
	pos   int   // read position in buf
	abs   int64 // absolute index of the next event to be emitted
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

// Next implements trace.Source.
func (g *Generator) Next() (trace.Event, bool) {
	for g.pos >= len(g.buf) {
		if g.total == 0 {
			return trace.Event{}, false
		}
		g.buf = g.buf[:0]
		g.pos = 0
		g.pick().step(g)
	}
	ev := g.buf[g.pos]
	g.pos++
	return ev, true
}

// NextBlock implements trace.BlockSource: it scatters behaviour bursts
// straight out of the refill buffer into b, refilling across burst
// boundaries until the block holds max events, so the hot drain loops
// pay one call per block instead of one interface dispatch per event.
func (g *Generator) NextBlock(b *trace.Block, max int) (int, bool) {
	if g.total == 0 {
		b.Resize(0)
		return 0, false
	}
	b.Resize(max)
	for n := 0; n < max; {
		if g.pos >= len(g.buf) {
			g.buf = g.buf[:0]
			g.pos = 0
			g.pick().step(g)
			continue
		}
		burst := g.buf[g.pos:]
		if len(burst) > max-n {
			burst = burst[:max-n]
		}
		for _, ev := range burst {
			b.SetEvent(n, ev)
			n++
		}
		g.pos += len(burst)
	}
	return max, true
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

// emit appends an event and returns its absolute stream index, which
// behaviours use to express dependency distances.
func (g *Generator) emit(ev trace.Event) int64 {
	g.buf = append(g.buf, ev)
	idx := g.abs
	g.abs++
	return idx
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

// Emission helpers shared by behaviours.

// alu emits an ALU op with up to two dependencies and returns its index.
func (g *Generator) alu(ip uint32, src1, src2 int64, lat uint8) int64 {
	return g.emit(trace.Event{
		Kind: trace.KindALU, IP: ip,
		Src1: g.dist(src1), Src2: g.dist(src2), Lat: lat,
	})
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
	return g.emit(trace.Event{
		Kind: trace.KindLoad, IP: ip, Addr: addr, Val: val, Offset: offset,
		Src1: g.dist(addrDep),
	})
}

// store emits a store of a value produced by valDep to addr.
func (g *Generator) store(ip, addr uint32, offset int32, valDep int64) int64 {
	return g.emit(trace.Event{
		Kind: trace.KindStore, IP: ip, Addr: addr, Offset: offset,
		Src1: g.dist(valDep),
	})
}

// branch emits a conditional branch depending on condDep.
func (g *Generator) branch(ip, target uint32, taken bool, condDep int64) int64 {
	return g.emit(trace.Event{
		Kind: trace.KindBranch, IP: ip, Addr: target, Taken: taken,
		Src1: g.dist(condDep),
	})
}

// call and ret emit control transfers used for path history.
func (g *Generator) call(ip, target uint32) int64 {
	return g.emit(trace.Event{Kind: trace.KindCall, IP: ip, Addr: target})
}

func (g *Generator) ret(ip, target uint32) int64 {
	return g.emit(trace.Event{Kind: trace.KindReturn, IP: ip, Addr: target})
}

// consumers emits n dependent ALU ops consuming the value produced at
// producer, modelling the instructions fed by a load.
func (g *Generator) consumers(ip uint32, producer int64, n int) {
	prev := producer
	for i := 0; i < n; i++ {
		prev = g.alu(ip+uint32(4*i), prev, -1, 1)
	}
}
