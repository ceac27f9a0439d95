package trace

// Block pipeline tests: SoA delivery must be indistinguishable from the
// per-event stream for every source and wrapper in the package, the
// zero-copy replay views must be tamper-proof against consumers that
// mutate their block, and the warm drain loop must not allocate.

import (
	"bytes"
	"errors"
	"testing"
)

// testEvents returns a deterministic mixed-kind stream of n events.
func testEvents(n int) []Event {
	evs := make([]Event, n)
	for i := range evs {
		switch i % 5 {
		case 0:
			evs[i] = Event{Kind: KindLoad, IP: uint32(i), Addr: uint32(i * 8), Val: uint32(i * 3), Offset: int32(i % 64), Src1: uint32(i % 7)}
		case 1:
			evs[i] = Event{Kind: KindStore, IP: uint32(i), Addr: uint32(i * 4), Offset: -int32(i % 32), Src2: uint32(i % 3)}
		case 2:
			evs[i] = Event{Kind: KindBranch, IP: uint32(i), Addr: uint32(i + 100), Taken: i%3 == 0, Src1: uint32(i % 5)}
		case 3:
			evs[i] = Event{Kind: KindALU, IP: uint32(i), Src1: 1, Src2: 2, Lat: uint8(1 + i%4)}
		default:
			evs[i] = Event{Kind: KindCall, IP: uint32(i), Addr: uint32(i * 16)}
		}
	}
	return evs
}

func eventsEqual(t *testing.T, got, want []Event) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d events, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("event %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
}

// unbatched is a Next-only source: it hides any NextBlock method, so
// AsBlocks must install the per-event adapter.
type unbatched struct{ src Source }

func (u *unbatched) Next() (Event, bool) { return u.src.Next() }
func (u *unbatched) Err() error          { return u.src.Err() }

// gatherBlock appends every event of b to dst through the kind-gated
// accessor.
func gatherBlock(dst []Event, b *Block) []Event {
	for i := 0; i < b.Len(); i++ {
		dst = append(dst, b.Event(i))
	}
	return dst
}

// drainBlocks pulls every event out of src through NextBlock at the
// given block size, gathering into []Event for comparison, then checks
// Err.
func drainBlocks(t *testing.T, src Source, blockLen int) []Event {
	t.Helper()
	bs := AsBlocks(src)
	b := NewBlock(blockLen)
	var out []Event
	for {
		n, ok := bs.NextBlock(b, blockLen)
		out = gatherBlock(out, b)
		if n != b.Len() {
			t.Fatalf("NextBlock returned %d but resized the block to %d", n, b.Len())
		}
		if !ok {
			break
		}
	}
	if err := src.Err(); err != nil {
		t.Fatalf("Err after drain: %v", err)
	}
	return out
}

// warmReplayCursor materialises evs into a cache and returns an opener
// for warm cursors over the resident columns.
func warmReplayCursor(t *testing.T, evs []Event) func() Source {
	t.Helper()
	c := NewReplayCache(0)
	gen := func() Source { return NewSliceSource(evs) }
	c.Open("k", gen) // materialise
	if st := c.Stats(); st.Entries != 1 {
		t.Fatalf("stream not resident: %+v", st)
	}
	return func() Source { return c.Open("k", gen) }
}

// TestBlockMatchesPerEvent checks that every block-native implementation
// and the scatter adapter yield exactly the canonical per-event stream,
// across block sizes that divide, straddle and exceed the stream length.
func TestBlockMatchesPerEvent(t *testing.T) {
	want := testEvents(1000)
	sources := map[string]func() Source{
		"slice":   func() Source { return NewSliceSource(want) },
		"adapter": func() Source { return &unbatched{src: NewSliceSource(want)} },
		"limit": func() Source {
			return NewLimit(NewSliceSource(testEvents(4000)), 1000)
		},
		"corrupt-every-1e9": func() Source {
			return NewCorrupt(NewSliceSource(want), 1<<40, nil)
		},
		"replay-warm": warmReplayCursor(t, want),
	}
	for name, mk := range sources {
		for _, bl := range []int{1, 7, 100, 1000, 4096} {
			got := drainBlocks(t, mk(), bl)
			switch name {
			case "limit":
				eventsEqual(t, got, testEvents(4000)[:1000])
			case "replay-warm":
				// The cache stores the canonical form, like the v3 codec.
				eventsEqual(t, got, canonicalAll(want))
			default:
				eventsEqual(t, got, want)
			}
		}
	}
}

// TestBatchMatchesPerEvent checks that a consumer which changes its
// batch size from one NextBlock call to the next, through one reused
// block, still sees exactly the per-event stream — for plain, adapted
// and stacked-wrapper sources alike.
func TestBatchMatchesPerEvent(t *testing.T) {
	sizes := []int{1, 7, 100, 3, 1000, 64}
	sources := map[string]func() Source{
		"slice":   func() Source { return NewSliceSource(testEvents(1000)) },
		"adapter": func() Source { return &unbatched{src: NewSliceSource(testEvents(1000))} },
		"limit-over-adapter": func() Source {
			return NewLimit(&unbatched{src: NewSliceSource(testEvents(4000))}, 1000)
		},
		"corrupt-over-limit": func() Source {
			return NewCorrupt(NewLimit(NewSliceSource(testEvents(4000)), 1000), 1<<40, nil)
		},
	}
	for name, mk := range sources {
		// Perform the same variable-size drain on the per-event path.
		perEvent := mk()
		var want []Event
		for {
			ev, ok := perEvent.Next()
			if !ok {
				break
			}
			want = append(want, ev)
		}
		if err := perEvent.Err(); err != nil {
			t.Fatalf("%s: per-event Err: %v", name, err)
		}
		eventsEqual(t, want, testEvents(1000))

		src := mk()
		bs := AsBlocks(src)
		b := NewBlock(BlockLen)
		var got []Event
		for call := 0; ; call++ {
			max := sizes[call%len(sizes)]
			n, ok := bs.NextBlock(b, max)
			if n > max {
				t.Fatalf("%s: call %d returned %d events, asked for at most %d", name, call, n, max)
			}
			got = gatherBlock(got, b)
			if !ok {
				break
			}
		}
		if err := src.Err(); err != nil {
			t.Fatalf("%s: Err after drain: %v", name, err)
		}
		eventsEqual(t, got, want)
	}
}

// TestBlockGatherScatterRoundTrip pins the column contract: SetEvent
// followed by Event returns exactly the canonical form — the fields the
// kind carries, everything else zero — even when the columns start out
// full of another event's data.
func TestBlockGatherScatterRoundTrip(t *testing.T) {
	evs := randomEvents(7, 500)
	b := NewBlock(len(evs))
	b.Resize(len(evs))
	// Pre-soil every column so a missing kind gate would leak stale data.
	for i := range b.KindTaken {
		b.SetEvent(i, Event{Kind: KindLoad, IP: ^uint32(0), Addr: ^uint32(0),
			Val: ^uint32(0), Offset: -1, Src1: ^uint32(0), Src2: ^uint32(0)})
	}
	for i, ev := range evs {
		b.SetEvent(i, ev)
		if got, want := b.Event(i), canonical(ev); got != want {
			t.Fatalf("event %d (%v): gather got %+v, want %+v", i, ev.Kind, got, want)
		}
	}
}

// TestBlockEventEveryKindByte gathers one soiled cell under every kind
// byte, including the ones SetEvent never writes (a taken bit on a
// non-branch, a byte that names no kind): Event's masks must keep exactly
// the fields the reference canonical form keeps.
func TestBlockEventEveryKindByte(t *testing.T) {
	b := NewBlock(1)
	b.Resize(1)
	b.IP[0], b.Addr[0], b.Val[0], b.Offset[0] = 0x400100, 0x8000_0010, 0x1234, -4
	b.Src1[0], b.Src2[0], b.Lat[0] = 3, 5, 7
	for kb := 0; kb < 256; kb++ {
		b.KindTaken[0] = uint8(kb)
		want := canonical(Event{Kind: Kind(kb &^ KindTakenBit), IP: b.IP[0], Addr: b.Addr[0],
			Val: b.Val[0], Offset: b.Offset[0], Taken: kb&KindTakenBit != 0,
			Src1: b.Src1[0], Src2: b.Src2[0], Lat: b.Lat[0]})
		if got := b.Event(0); got != want {
			t.Fatalf("kind byte %#02x: gather got %+v, want %+v", kb, got, want)
		}
	}
}

// TestReaderBlockDecodes drives the windowed file Reader's columnar
// decode over a stream several times the window size, at block sizes
// that force partial blocks at window boundaries, and requires the exact
// canonical event stream.
func TestReaderBlockDecodes(t *testing.T) {
	// ~6.7 bytes/event: 40k events ≈ 4 windows, so refill, compaction and
	// the window-boundary partial-block path all run many times.
	evs := randomEvents(42, 40_000)
	data := encodeEvents(t, evs)
	want := canonicalAll(evs)
	for _, bl := range []int{1, 333, BlockLen} {
		got := drainBlocks(t, NewReader(bytes.NewReader(data)), bl)
		eventsEqual(t, got, want)
	}
}

// TestReaderBatchDecodes decodes the structured mixed-kind stream
// through the Reader in off-size 33-event blocks.
func TestReaderBatchDecodes(t *testing.T) {
	want := canonicalAll(testEvents(500))
	r := NewReader(bytes.NewReader(encodeEvents(t, want)))
	eventsEqual(t, drainBlocks(t, r, 33), want)
}

// TestReaderMixedBlockAndEventReads interleaves NextBlock with per-event
// Next on one Reader: the pending-block hand-off between the two entry
// points must not drop, duplicate or reorder events.
func TestReaderMixedBlockAndEventReads(t *testing.T) {
	evs := randomEvents(3, 10_000)
	data := encodeEvents(t, evs)
	want := canonicalAll(evs)

	r := NewReader(bytes.NewReader(data))
	b := NewBlock(97)
	var out []Event
	for i := 0; ; i++ {
		if i%2 == 0 {
			n, ok := r.NextBlock(b, 97)
			out = gatherBlock(out, b)
			if n == 0 && !ok {
				break
			}
		} else {
			for j := 0; j < 13; j++ {
				ev, ok := r.Next()
				if !ok {
					break
				}
				out = append(out, ev)
			}
		}
	}
	if err := r.Err(); err != nil {
		t.Fatalf("Err: %v", err)
	}
	eventsEqual(t, out, want)
}

// TestReaderMixedReadsKeepEventsBeforeError: when the decode that filled
// the Reader's pending block stopped on corrupt bytes, the events decoded
// before them must still reach a consumer that switches from Next to
// NextBlock — exactly as many as pure per-event reading delivers — and
// only then the error, wherever the consumer switches.
func TestReaderMixedReadsKeepEventsBeforeError(t *testing.T) {
	want := canonicalAll(testEvents(300))
	data := append(encodeEvents(t, want), 0x3f) // invalid kind byte after the last event
	open := func() *Reader { return NewReader(bytes.NewReader(data)) }

	perEvent := open()
	eventsEqual(t, drainNext(perEvent), want)
	if perEvent.Err() == nil {
		t.Fatal("per-event drain: corrupt tail not reported")
	}
	for k := 1; k < len(want); k++ {
		r := open()
		got := drainNext(NewLimit(r, int64(k)))
		b := NewBlock(64)
		for {
			_, ok := r.NextBlock(b, 64)
			got = gatherBlock(got, b)
			if !ok {
				break
			}
		}
		eventsEqual(t, got, want)
		if r.Err() == nil {
			t.Fatalf("%d Next calls, then blocks: corrupt tail not reported", k)
		}
	}
}

// drainNext pulls src dry per-event, leaving Err to the caller.
func drainNext(src Source) []Event {
	var out []Event
	for {
		ev, ok := src.Next()
		if !ok {
			return out
		}
		out = append(out, ev)
	}
}

// TestLimitBatchTruncatesExactly drains a Limit through blocks larger
// than, equal to and smaller than its budget: it delivers exactly
// min(limit, stream length) events, whatever the block size.
func TestLimitBatchTruncatesExactly(t *testing.T) {
	all := testEvents(100)
	for _, limit := range []int64{0, 1, 99, 100, 101, 250} {
		want := all[:min(int(limit), len(all))]
		for _, bl := range []int{1, 64, 1024} {
			got := drainBlocks(t, NewLimit(NewSliceSource(all), limit), bl)
			eventsEqual(t, got, want)
		}
	}
}

// TestFailAfterBatchReportsInjectedError: the default fault is
// ErrInjected, reported after exactly the budgeted prefix of the stream.
func TestFailAfterBatchReportsInjectedError(t *testing.T) {
	src := NewFailAfter(NewSliceSource(testEvents(100)), 37, nil)
	bs := AsBlocks(src)
	b := NewBlock(16)
	var out []Event
	for {
		_, ok := bs.NextBlock(b, 16)
		out = gatherBlock(out, b)
		if !ok {
			break
		}
	}
	if err := src.Err(); err != ErrInjected {
		t.Fatalf("Err = %v, want ErrInjected", err)
	}
	eventsEqual(t, out, testEvents(100)[:37])
}

// TestCorruptBatchMutatesSameSchedule: block delivery corrupts exactly
// the events per-event delivery corrupts, at block sizes that divide,
// straddle and cover the every-k period — over a scattering SliceSource
// and over a warm replay cursor's zero-copy views alike.
func TestCorruptBatchMutatesSameSchedule(t *testing.T) {
	const every = 7
	evs := testEvents(200)
	for _, open := range []func() Source{
		func() Source { return NewSliceSource(evs) },
		warmReplayCursor(t, evs),
	} {
		want := canonicalAll(drainAll(t, NewCorrupt(open(), every, nil)))
		for _, bl := range []int{1, 5, 64, 200} {
			eventsEqual(t, drainBlocks(t, NewCorrupt(open(), every, nil), bl), want)
		}
	}
}

// TestFailAfterBlockReportsInjectedError: exactly n events delivered
// through blocks, then the caller's injected error.
func TestFailAfterBlockReportsInjectedError(t *testing.T) {
	boom := errors.New("boom")
	src := NewFailAfter(NewSliceSource(testEvents(1000)), 700, boom)
	bs := AsBlocks(src)
	b := NewBlock(128)
	var got int
	for {
		n, ok := bs.NextBlock(b, 128)
		got += n
		if !ok {
			break
		}
	}
	if got != 700 {
		t.Fatalf("delivered %d events before failing, want 700", got)
	}
	if err := src.Err(); !errors.Is(err, boom) {
		t.Fatalf("Err: got %v, want injected error", err)
	}
}

// TestCorruptBlockLeavesSharedStorageIntact is the Own contract end to
// end: a Corrupt wrapper mutating blocks from a warm replay cursor must
// corrupt only its own consumer's view — a second, clean cursor over the
// same resident columns must still see the pristine stream.
func TestCorruptBlockLeavesSharedStorageIntact(t *testing.T) {
	evs := testEvents(3000)
	open := warmReplayCursor(t, evs)
	want := canonicalAll(evs)

	corrupted := drainBlocks(t, NewCorrupt(open(), 5, nil), 256)
	var mutated int
	for i := range corrupted {
		if corrupted[i] != want[i] {
			mutated++
		}
	}
	if mutated == 0 {
		t.Fatal("corrupt wrapper mutated nothing through the block path")
	}

	// The resident columns must be untouched.
	eventsEqual(t, drainBlocks(t, open(), 256), want)
}

// TestWarmBlockDrainZeroAlloc is the steady-state allocation guard for
// the hot path: draining a warm replay cursor through pooled blocks must
// not allocate per event — the full-trace drain is allowed only the
// constant per-open overhead (the cursor itself and its adapter checks).
func TestWarmBlockDrainZeroAlloc(t *testing.T) {
	const events = 100_000
	evs := testEvents(events)
	open := warmReplayCursor(t, evs)

	var total int64
	allocs := testing.AllocsPerRun(10, func() {
		src := open()
		bs := AsBlocks(src)
		b := GetBlock()
		for {
			n, ok := bs.NextBlock(b, BlockLen)
			total += int64(n)
			if !ok {
				break
			}
		}
		PutBlock(b)
	})
	if total == 0 {
		t.Fatal("drained nothing")
	}
	// Per-open constant overhead only: cursor allocation and cache
	// bookkeeping, nothing proportional to the 100k events drained.
	if allocs > 8 {
		t.Fatalf("warm block drain allocated %.0f times per full-trace drain; the per-event hot path must not allocate", allocs)
	}
}

// TestFeedBlocksMatchesReference runs the streaming decoder against the
// frozen per-event reference decoder over every chunking of the same
// bytes — including chunks smaller than decodeMargin, which the padded
// end-of-chunk decode handles alone, with events pending across chunks
// — and requires identical events, counts and a clean close.
func TestFeedBlocksMatchesReference(t *testing.T) {
	evs := randomEvents(11, 5_000)
	data := encodeEvents(t, evs)
	want, err := refDecodeAll(data)
	if err != nil {
		t.Fatalf("reference decode: %v", err)
	}
	eventsEqual(t, want, canonicalAll(evs))
	for _, chunk := range []int{1, 3, 64, 71, 72, 73, 1024, len(data)} {
		d := NewStreamDecoder()
		got, err := feedChunks(d, data, chunk)
		if err != nil {
			t.Fatalf("chunk %d: FeedBlocks: %v", chunk, err)
		}
		eventsEqual(t, got, want)
		if d.Events() != int64(len(want)) {
			t.Fatalf("chunk %d: decoder counted %d events, want %d", chunk, d.Events(), len(want))
		}
		if err := d.Close(); err != nil {
			t.Fatalf("chunk %d: Close after complete stream: %v", chunk, err)
		}
	}
}

// TestFeedBlocksLatchesDecodeError: corruption mid-stream latches, so
// every later chunk reports the same error — and every event before the
// corrupt byte is delivered first, however the stream was chunked.
func TestFeedBlocksLatchesDecodeError(t *testing.T) {
	want := canonicalAll(testEvents(100))
	data := append(encodeEvents(t, want), 0x3f) // invalid kind byte where the next event should start
	for _, chunk := range []int{1, 7, 64, len(data)} {
		d := NewStreamDecoder()
		got, err := feedChunks(d, data, chunk)
		if err == nil {
			t.Fatalf("chunk %d: corrupt stream decoded cleanly", chunk)
		}
		eventsEqual(t, got, want)
		if err2 := d.FeedBlocks([]byte{0}, nil); !errors.Is(err2, err) {
			t.Fatalf("chunk %d: error not latched: first %v, then %v", chunk, err, err2)
		}
	}
}

// TestAsBlocksReturnsNativeImplementation: AsBlocks passes block-native
// sources through and adapts only Next-only ones.
func TestAsBlocksReturnsNativeImplementation(t *testing.T) {
	s := NewSliceSource(testEvents(10))
	if AsBlocks(s) != BlockSource(s) {
		t.Fatalf("AsBlocks re-wrapped a native BlockSource")
	}
	u := &unbatched{src: s}
	if _, ok := AsBlocks(u).(*blockAdapter); !ok {
		t.Fatalf("AsBlocks did not adapt an unblocked source")
	}
}
