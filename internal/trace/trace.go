// Package trace defines the instruction-trace event model shared by the
// workload generators, the address predictors and the timing model.
//
// A trace is an ordered stream of Events. Every event carries the static
// instruction pointer (IP) of the instruction that produced it; loads and
// stores additionally carry the effective address and the immediate offset
// encoded in the instruction, which the base-address scheme of the CAP
// predictor depends on. Events also carry dependency links (distances back
// to producer instructions) so the out-of-order timing model can rebuild
// the data-flow graph without a register model.
package trace

// Kind discriminates trace events.
type Kind uint8

// Event kinds. ALU covers every non-memory, non-control instruction.
const (
	KindALU Kind = iota
	KindLoad
	KindStore
	KindBranch
	KindCall
	KindReturn
	numKinds
)

// String returns a short mnemonic for the kind.
func (k Kind) String() string {
	switch k {
	case KindALU:
		return "alu"
	case KindLoad:
		return "load"
	case KindStore:
		return "store"
	case KindBranch:
		return "branch"
	case KindCall:
		return "call"
	case KindReturn:
		return "return"
	default:
		return "invalid"
	}
}

// Valid reports whether k is one of the defined kinds.
func (k Kind) Valid() bool { return k < numKinds }

// Event is a single dynamic instruction in a trace.
//
// Dependency links (Src1, Src2) are expressed as distances: an instruction
// at stream position p with Src1 = d depends on the instruction at position
// p-d. A distance of zero means "no dependency". For loads, Src1 is by
// convention the producer of the address (so a pointer-chasing load has
// Src1 pointing at the previous load in the chain) and Src2, if set, is any
// additional operand.
type Event struct {
	Kind   Kind
	IP     uint32 // static instruction address
	Addr   uint32 // effective address (load/store); target (branch/call)
	Val    uint32 // value loaded (loads only), for value-prediction studies
	Offset int32  // immediate displacement encoded in a load/store
	Taken  bool   // branch outcome
	Src1   uint32 // distance back to the first source producer, 0 = none
	Src2   uint32 // distance back to the second source producer, 0 = none
	Lat    uint8  // execution latency in cycles (0 is treated as 1)
}

// IsMem reports whether the event accesses memory.
func (e Event) IsMem() bool { return e.Kind == KindLoad || e.Kind == KindStore }

// Latency returns the execution latency, treating the zero value as one
// cycle so that generators may leave Lat unset for simple operations.
func (e Event) Latency() int { return Latency(e.Lat) }

// Latency returns the execution latency a Lat field encodes: zero is
// one cycle. Column readers apply it to Block.Lat directly.
func Latency(lat uint8) int {
	if lat == 0 {
		return 1
	}
	return int(lat)
}

// Source is a stream of trace events. Implementations follow the
// bufio.Scanner error model: Next returns ok=false at end of stream, after
// which Err reports whether the stream ended because of an error.
type Source interface {
	// Next returns the next event. ok is false when the stream is
	// exhausted or an error occurred.
	Next() (ev Event, ok bool)
	// Err returns the first error encountered, or nil on clean EOF.
	Err() error
}

// Sink consumes trace events.
type Sink interface {
	Emit(Event) error
}

// SliceSource adapts an in-memory event slice to the Source interface.
type SliceSource struct {
	events []Event
	pos    int
}

// NewSliceSource returns a Source that yields the given events in order.
// The slice is not copied.
func NewSliceSource(events []Event) *SliceSource {
	return &SliceSource{events: events}
}

// Next implements Source.
func (s *SliceSource) Next() (Event, bool) {
	if s.pos >= len(s.events) {
		return Event{}, false
	}
	ev := s.events[s.pos]
	s.pos++
	return ev, true
}

// Err implements Source; a SliceSource never fails.
func (s *SliceSource) Err() error { return nil }

// Reset rewinds the source to the beginning of the slice.
func (s *SliceSource) Reset() { s.pos = 0 }

// SliceSink collects events into memory, for tests and small tools.
type SliceSink struct {
	Events []Event
}

// Emit implements Sink.
func (s *SliceSink) Emit(ev Event) error {
	s.Events = append(s.Events, ev)
	return nil
}

// Limit wraps a source and truncates it after n events.
type Limit struct {
	src  Source
	blks BlockSource // lazily initialised block view of src
	n    int64
}

// NewLimit returns a Source yielding at most n events from src.
func NewLimit(src Source, n int64) *Limit {
	return &Limit{src: src, n: n}
}

// Next implements Source.
func (l *Limit) Next() (Event, bool) {
	if l.n <= 0 {
		return Event{}, false
	}
	l.n--
	return l.src.Next()
}

// Err implements Source.
func (l *Limit) Err() error { return l.src.Err() }

// Copy streams every event from src into sink and returns the number of
// events transferred. It stops at the first sink or source error.
func Copy(sink Sink, src Source) (int64, error) {
	var n int64
	for {
		ev, ok := src.Next()
		if !ok {
			return n, src.Err()
		}
		if err := sink.Emit(ev); err != nil {
			return n, err
		}
		n++
	}
}
