// Golden testdata for the hotalloc analyzer, scoped as internal/sim so
// StepBlock lands in the declared hot set. Every allocation shape in a
// hot loop is marked, next to the sanctioned idioms (setup before the
// loop, cold error exits, non-escaping closures) that must stay clean.
package hotalloc

import "fmt"

type point struct {
	x int
}

type recorder interface {
	Record(v uint64)
}

type Stepper struct {
	events []uint64
	sink   any
	cb     func() int
	buf    []byte
}

func sinkAny(v any) {}

// StepBlock is hot by contract (internal/sim). Only its loops are the
// hot region; per-drain setup above them allocates freely.
func (s *Stepper) StepBlock(n int, r recorder, name string) error {
	scratch := make([]uint64, 0, n) // clean: setup outside the loop
	for i := 0; i < n; i++ {
		s.events = append(s.events, uint64(i)) // want `append may grow its backing array`
		p := &point{x: i}                      // want `address of composite literal allocates`
		_ = p
		xs := []int{i} // want `slice literal allocates`
		_ = xs
		m := make(map[int]int) // want `make allocates`
		_ = m
		q := new(point) // want `new allocates`
		_ = q
		s.sink = i                     // want `assignment boxes a int into an interface`
		sinkAny(i)                     // want `argument boxes a int into an interface`
		s.cb = func() int { return i } // want `function literal allocates a closure`
		_ = string(s.buf)              // want `string conversion copies its payload`
		b := []byte(name)              // want `\[\]byte conversion copies its payload`
		_ = b
		r.Record(uint64(i)) // clean: concrete parameter, no boxing
		_ = helperNoAlloc(i)
		_ = helperAlloc(i)
		_ = helperClosure(s.buf)
	}
	_ = scratch
	for i := range s.events {
		if s.events[i] == 0 {
			return fmt.Errorf("zero event at %d", i) // clean: cold exit pays once per drain
		}
	}
	return nil
}

// One level of call-graph propagation: called from StepBlock's loop,
// so the full body is a hot region.
func helperAlloc(i int) *point {
	return &point{x: i} // want `address of composite literal allocates in helperAlloc, called from a hot loop`
}

func helperNoAlloc(i int) int {
	return i * 2 // clean: no allocation sites
}

// The decodeEventColumns varint idiom: a closure bound to a local and
// only ever called stays on the stack.
func helperClosure(data []byte) uint64 {
	var off int
	varint := func() uint64 { // clean: non-escaping closure
		var v uint64
		for shift := 0; off < len(data); shift += 7 {
			c := data[off]
			off++
			v |= uint64(c&0x7f) << shift
			if c&0x80 == 0 {
				break
			}
		}
		return v
	}
	return varint() + varint()
}

// capvet:hot
func directiveHot(data []int) int {
	t := 0
	for _, v := range data {
		tmp := []int{v} // want `slice literal allocates`
		t += tmp[0]
		if v < 0 {
			msg := fmt.Sprintf("negative value %d", v) // clean: cold exit pays once
			_ = msg
			break
		}
	}
	return t
}

// notHot allocates the same shapes with no directive and no contract
// name: the analyzer must stay silent.
func notHot(data []int) []*point {
	var out []*point
	for _, v := range data {
		out = append(out, &point{x: v}) // clean: not in the hot set
	}
	return out
}
