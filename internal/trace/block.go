package trace

// Struct-of-arrays event delivery. A Block holds one batch of events as
// parallel per-field columns instead of a []Event slice: the hot replay
// loops never materialise a 32-byte Event struct per event, decoders
// write straight into the columns, and consumers read only the columns
// their event kinds carry. NextBlock is the only bulk delivery path: the
// generator, replay cursor, file reader, wrapper chain, sim.Stepper, the
// timing model and the serving path all move blocks end to end, and a
// plain per-event Source is lifted by AsBlocks.
//
// Column contract: a column holds meaningful data only at indices whose
// kind carries that field (the same fields the v3 encoding stores — see
// format.go). Everything else is stale garbage from earlier fills, which
// is what lets decoders skip zeroing 32 bytes per event. Consumers must
// therefore gate every column read on the event kind, either by reading
// the column only inside a switch case for a kind that carries it (as
// Block.Event and sim.Stepper.StepBlock do) or by masking the cell with
// a kind-indexed mask that is zero for kinds that do not carry it (as
// cpu.Run does for Src1/Src2); comparing or copying whole columns across
// events of mixed kinds is a bug.

import "sync"

// BlockLen is the standard block capacity of the hot loops: large enough
// to amortise per-call dispatch, small enough that the cancellation poll
// between blocks stays in the microseconds.
const BlockLen = 1024

// KindTakenBit flags a taken branch inside a Block's KindTaken column;
// the low bits are the event Kind (the v3 kind-byte layout).
const KindTakenBit = takenBit

// Block is a struct-of-arrays batch of events. All columns share one
// length (Len); NextBlock implementations resize the block to exactly
// the events they delivered.
//
// A block may be a zero-copy view over shared storage (a replay cache's
// column store): NextBlock implementations are free to repoint the
// columns at shared memory instead of copying into the caller's backing
// arrays. A delivered block is therefore valid only until the next
// NextBlock call on the same source, and must be treated as read-only
// unless Own has been called first.
type Block struct {
	KindTaken []uint8 // Kind | KindTakenBit (branches)
	IP        []uint32
	Addr      []uint32 // load/store/call/return: effective; branch: target
	Val       []uint32 // loads only
	Offset    []int32  // load/store only
	Src1      []uint32 // load/store/branch/alu
	Src2      []uint32 // load/store/alu
	Lat       []uint8  // alu only

	// shared marks the columns as aliasing storage the block does not
	// own. Resize and Own reallocate before any write can land there.
	shared bool
}

// NewBlock returns an empty block with all columns pre-allocated to the
// given capacity. Resize grows past it on demand; pre-sizing just avoids
// the reallocation.
func NewBlock(capacity int) *Block {
	b := &Block{}
	b.Resize(capacity)
	b.Resize(0)
	return b
}

// Len returns the number of events in the block.
func (b *Block) Len() int { return len(b.KindTaken) }

// Resize sets the block's length to n events, reallocating the columns
// when n exceeds their capacity (or when they alias shared storage, so
// a filler can never scribble over another cursor's data). Newly
// exposed entries hold unspecified (stale) data; fillers overwrite the
// fields their kinds carry.
func (b *Block) Resize(n int) {
	if b.shared || cap(b.KindTaken) < n {
		b.shared = false
		b.KindTaken = make([]uint8, n)
		b.IP = make([]uint32, n)
		b.Addr = make([]uint32, n)
		b.Val = make([]uint32, n)
		b.Offset = make([]int32, n)
		b.Src1 = make([]uint32, n)
		b.Src2 = make([]uint32, n)
		b.Lat = make([]uint8, n)
		return
	}
	b.KindTaken = b.KindTaken[:n]
	b.IP = b.IP[:n]
	b.Addr = b.Addr[:n]
	b.Val = b.Val[:n]
	b.Offset = b.Offset[:n]
	b.Src1 = b.Src1[:n]
	b.Src2 = b.Src2[:n]
	b.Lat = b.Lat[:n]
}

// Own ensures the block owns its columns, copying them out of shared
// storage if NextBlock delivered a zero-copy view. Mutators (SetEvent on
// a delivered block, fault injectors) must call it first; it is a no-op
// on an already-owned block.
func (b *Block) Own() {
	if !b.shared {
		return
	}
	n := len(b.KindTaken)
	kt := make([]uint8, n)
	copy(kt, b.KindTaken)
	ip := make([]uint32, n)
	copy(ip, b.IP)
	addr := make([]uint32, n)
	copy(addr, b.Addr)
	val := make([]uint32, n)
	copy(val, b.Val)
	off := make([]int32, n)
	copy(off, b.Offset)
	src1 := make([]uint32, n)
	copy(src1, b.Src1)
	src2 := make([]uint32, n)
	copy(src2, b.Src2)
	lat := make([]uint8, n)
	copy(lat, b.Lat)
	b.KindTaken, b.IP, b.Addr, b.Val, b.Offset, b.Src1, b.Src2, b.Lat = kt, ip, addr, val, off, src1, src2, lat
	b.shared = false
}

// Kind returns event i's kind.
func (b *Block) Kind(i int) Kind { return Kind(b.KindTaken[i] &^ KindTakenBit) }

// Taken reports event i's branch outcome.
func (b *Block) Taken(i int) bool { return b.KindTaken[i]&KindTakenBit != 0 }

// Event gathers event i into the AoS representation, reading only the
// columns event i's kind carries — fields the kind does not store come
// back zero, exactly as a Reader would decode them.
func (b *Block) Event(i int) Event {
	kb := b.KindTaken[i]
	ev := Event{Kind: Kind(kb &^ KindTakenBit), IP: b.IP[i]}
	switch ev.Kind {
	case KindLoad:
		ev.Addr = b.Addr[i]
		ev.Val = b.Val[i]
		ev.Offset = b.Offset[i]
		ev.Src1 = b.Src1[i]
		ev.Src2 = b.Src2[i]
	case KindStore:
		ev.Addr = b.Addr[i]
		ev.Offset = b.Offset[i]
		ev.Src1 = b.Src1[i]
		ev.Src2 = b.Src2[i]
	case KindBranch:
		ev.Addr = b.Addr[i]
		ev.Taken = kb&KindTakenBit != 0
		ev.Src1 = b.Src1[i]
	case KindCall, KindReturn:
		ev.Addr = b.Addr[i]
	case KindALU:
		ev.Src1 = b.Src1[i]
		ev.Src2 = b.Src2[i]
		ev.Lat = b.Lat[i]
	}
	return ev
}

// SetEvent scatters ev into the columns at index i, writing exactly the
// fields ev's kind carries (the column contract above).
func (b *Block) SetEvent(i int, ev Event) {
	kb := uint8(ev.Kind)
	if ev.Kind == KindBranch && ev.Taken {
		kb |= KindTakenBit
	}
	b.KindTaken[i] = kb
	b.IP[i] = ev.IP
	switch ev.Kind {
	case KindLoad:
		b.Addr[i] = ev.Addr
		b.Val[i] = ev.Val
		b.Offset[i] = ev.Offset
		b.Src1[i] = ev.Src1
		b.Src2[i] = ev.Src2
	case KindStore:
		b.Addr[i] = ev.Addr
		b.Offset[i] = ev.Offset
		b.Src1[i] = ev.Src1
		b.Src2[i] = ev.Src2
	case KindBranch:
		b.Addr[i] = ev.Addr
		b.Src1[i] = ev.Src1
	case KindCall, KindReturn:
		b.Addr[i] = ev.Addr
	case KindALU:
		b.Src1[i] = ev.Src1
		b.Src2[i] = ev.Src2
		b.Lat[i] = ev.Lat
	}
}

// BlockSource is a Source that can deliver events as SoA blocks. The
// contract mirrors Source's scanner model:
//
//   - NextBlock fills b with up to max events (max ≥ 1; the block is
//     resized to exactly the count delivered) and returns that count.
//   - ok is false once the stream is exhausted (clean EOF or error); the
//     final partial block may be delivered alongside ok == false.
//   - After ok == false, Err reports whether the stream ended on an
//     error, exactly as for Source.
type BlockSource interface {
	Source
	NextBlock(b *Block, max int) (n int, ok bool)
}

// blockPool recycles standard-capacity blocks across drain loops, so a
// steady-state replay allocates nothing per trace, let alone per event.
var blockPool = sync.Pool{New: func() any { return NewBlock(BlockLen) }}

// GetBlock returns a pooled block; pair it with PutBlock when the drain
// loop is done. Its column capacity is at least BlockLen.
func GetBlock() *Block { return blockPool.Get().(*Block) }

// PutBlock returns a block obtained from GetBlock to the pool.
func PutBlock(b *Block) {
	if b != nil {
		blockPool.Put(b)
	}
}

// AsBlocks returns src itself when it already delivers blocks natively,
// or wraps it in an adapter that fills blocks with per-event Next calls.
// Wrapper chains built from the package's own sources and wrappers stay
// block-native end to end; the adapter is for plain sources such as
// ErrSource, Hang and external implementations.
func AsBlocks(src Source) BlockSource {
	if bs, ok := src.(BlockSource); ok {
		return bs
	}
	return &blockAdapter{src: src}
}

// blockAdapter lifts a per-event Source to block delivery.
type blockAdapter struct{ src Source }

// Next implements Source.
func (a *blockAdapter) Next() (Event, bool) { return a.src.Next() }

// Err implements Source.
func (a *blockAdapter) Err() error { return a.src.Err() }

// NextBlock implements BlockSource by scattering one Next per event.
func (a *blockAdapter) NextBlock(b *Block, max int) (int, bool) {
	b.Resize(max)
	for i := 0; i < max; i++ {
		ev, ok := a.src.Next()
		if !ok {
			b.Resize(i)
			return i, false
		}
		b.SetEvent(i, ev)
	}
	return max, true
}

// NextBlock implements BlockSource by scattering straight out of the
// slice.
func (s *SliceSource) NextBlock(b *Block, max int) (int, bool) {
	n := len(s.events) - s.pos
	if n > max {
		n = max
	}
	b.Resize(n)
	for i, ev := range s.events[s.pos : s.pos+n] {
		b.SetEvent(i, ev)
	}
	s.pos += n
	return n, s.pos < len(s.events)
}

// NextBlock implements BlockSource: the limit truncates the block, and
// block delivery is preserved through the wrapped source when it
// supports it.
func (l *Limit) NextBlock(b *Block, max int) (int, bool) {
	if l.n <= 0 {
		b.Resize(0)
		return 0, false
	}
	if int64(max) > l.n {
		max = int(l.n)
	}
	if l.blks == nil {
		l.blks = AsBlocks(l.src)
	}
	n, ok := l.blks.NextBlock(b, max)
	l.n -= int64(n)
	if l.n <= 0 {
		ok = false
	}
	return n, ok
}
