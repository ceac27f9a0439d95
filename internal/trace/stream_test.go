package trace

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// encodeEvents renders evs in the binary format, header included.
func encodeEvents(t *testing.T, evs []Event) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, ev := range evs {
		if err := w.Emit(ev); err != nil {
			t.Fatalf("Emit: %v", err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return buf.Bytes()
}

// randomEvents builds a deterministic pseudo-random event mix.
func randomEvents(seed int64, n int) []Event {
	rng := rand.New(rand.NewSource(seed))
	evs := make([]Event, n)
	for i := range evs {
		evs[i] = Event{
			Kind:   Kind(rng.Intn(int(numKinds))),
			IP:     rng.Uint32(),
			Addr:   rng.Uint32(),
			Val:    rng.Uint32(),
			Offset: int32(rng.Uint32()),
			Taken:  rng.Intn(2) == 0,
			Src1:   rng.Uint32() % 1024,
			Src2:   rng.Uint32() % 1024,
			Lat:    uint8(rng.Intn(20)),
		}
	}
	return evs
}

// feedChunks drives d over data in fixed-size chunks through FeedBlocks,
// gathering the decoded events; it stops at the first error.
func feedChunks(d *StreamDecoder, data []byte, chunk int) ([]Event, error) {
	var out []Event
	collect := func(b *Block) { out = gatherBlock(out, b) }
	for pos := 0; pos < len(data); pos += chunk {
		if err := d.FeedBlocks(data[pos:min(pos+chunk, len(data))], collect); err != nil {
			return out, err
		}
	}
	return out, nil
}

// feedAll decodes data as one whole stream in fixed-size chunks,
// closing the decoder at the end.
func feedAll(t *testing.T, data []byte, chunk int) ([]Event, error) {
	t.Helper()
	d := NewStreamDecoder()
	out, err := feedChunks(d, data, chunk)
	if err != nil {
		return out, err
	}
	return out, d.Close()
}

func TestStreamDecoderChunkSizes(t *testing.T) {
	evs := randomEvents(7, 500)
	data := encodeEvents(t, evs)
	for _, chunk := range []int{1, 2, 3, 5, 7, 64, 4096, len(data)} {
		got, err := feedAll(t, data, chunk)
		if err != nil {
			t.Fatalf("chunk %d: %v", chunk, err)
		}
		if len(got) != len(evs) {
			t.Fatalf("chunk %d: decoded %d events, want %d", chunk, len(got), len(evs))
		}
		for i := range evs {
			if got[i] != canonical(evs[i]) {
				t.Fatalf("chunk %d: event %d = %+v, want %+v", chunk, i, got[i], canonical(evs[i]))
			}
		}
	}
}

func TestStreamDecoderEmptyStream(t *testing.T) {
	data := encodeEvents(t, nil) // header only
	got, err := feedAll(t, data, 2)
	if err != nil || len(got) != 0 {
		t.Fatalf("header-only stream: got %d events, err %v", len(got), err)
	}
}

func TestStreamDecoderBadHeader(t *testing.T) {
	if _, err := feedAll(t, []byte("XXXX\x03rest"), 3); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("bad magic: got %v", err)
	}
	if _, err := feedAll(t, []byte{'C', 'A', 'P', 'T', 99}, 2); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("bad version: got %v", err)
	}
	// A stream that ends before a full header is indistinguishable from a
	// non-trace stream.
	if _, err := feedAll(t, []byte("CAP"), 1); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("short header: got %v", err)
	}
	if _, err := feedAll(t, nil, 1); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("empty stream: got %v", err)
	}
}

func TestStreamDecoderTruncatedTail(t *testing.T) {
	evs := randomEvents(11, 50)
	data := encodeEvents(t, evs)
	for cut := len(data) - 1; cut > len(data)-10 && cut > 5; cut-- {
		got, err := feedAll(t, data[:cut], 7)
		if err == nil {
			t.Fatalf("cut at %d: no error from truncated stream", cut)
		}
		if len(got) >= len(evs) {
			t.Fatalf("cut at %d: decoded %d events from truncated stream of %d", cut, len(got), len(evs))
		}
	}
}

func TestStreamDecoderInvalidKind(t *testing.T) {
	data := append(encodeEvents(t, randomEvents(3, 4)), 0x17) // kind 23 is invalid
	_, err := feedAll(t, data, 3)
	if err == nil {
		t.Fatal("invalid kind byte not rejected")
	}
}

func TestStreamDecoderErrorLatches(t *testing.T) {
	d := NewStreamDecoder()
	if err := d.FeedBlocks([]byte("XXXXXXXX"), nil); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("first FeedBlocks: %v", err)
	}
	if err := d.FeedBlocks(encodeEvents(t, randomEvents(1, 3)), nil); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("error did not latch: %v", err)
	}
	if err := d.Close(); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("Close after error: %v", err)
	}
}

// TestStreamDecoderSpansReaders: one logical stream split across two
// request bodies, each fed in its own read-sized chunks, decodes
// seamlessly.
func TestStreamDecoderSpansReaders(t *testing.T) {
	evs := randomEvents(29, 200)
	data := encodeEvents(t, evs)
	cut := len(data) / 2
	d := NewStreamDecoder()
	first, err := feedChunks(d, data[:cut], 13)
	if err != nil {
		t.Fatalf("first body: %v", err)
	}
	second, err := feedChunks(d, data[cut:], 13)
	if err != nil {
		t.Fatalf("second body: %v", err)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	eventsEqual(t, append(first, second...), canonicalAll(evs))
}

// TestStreamDecoderTailBounded: an event left pending by one chunk is
// completed from the head of the next without copying that chunk, so
// the held-back buffer stays within decodeMargin however large the next
// chunk is — the shape of a request body split at its byte midpoint.
func TestStreamDecoderTailBounded(t *testing.T) {
	evs := randomEvents(17, 10_000)
	data := encodeEvents(t, evs)
	var got []Event
	collect := func(b *Block) { got = gatherBlock(got, b) }
	var d *StreamDecoder
	cut := 1000
	for ; ; cut++ {
		got = got[:0]
		d = NewStreamDecoder()
		if err := d.FeedBlocks(data[:cut], collect); err != nil {
			t.Fatalf("first chunk: %v", err)
		}
		if len(d.tail) > 0 {
			break // cut lies inside an event
		}
	}
	next := cut + 64<<10
	if err := d.FeedBlocks(data[cut:next], collect); err != nil {
		t.Fatalf("64 KiB chunk: %v", err)
	}
	if cap(d.tail) > decodeMargin {
		t.Fatalf("pending buffer grew to %d bytes, want at most %d", cap(d.tail), decodeMargin)
	}
	if err := d.FeedBlocks(data[next:], collect); err != nil {
		t.Fatalf("last chunk: %v", err)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	eventsEqual(t, got, canonicalAll(evs))
}

// readAll drains a Reader over data through Next, the per-event
// interface that sits on NextBlock.
func readAll(data []byte) ([]Event, error) {
	r := NewReader(bytes.NewReader(data))
	var out []Event
	for {
		ev, ok := r.Next()
		if !ok {
			return out, r.Err()
		}
		out = append(out, ev)
	}
}

// FuzzStreamDecoder cross-checks the chunked stream decoder (FeedBlocks)
// against the frozen per-event reference decoder over identical bytes:
// same events, and errors on the same inputs — including truncated and
// corrupt tails. The one tolerated divergence: on a truncated tail the
// padded reference may emit a final garbage event decoded out of its
// padding before flagging the error; the stream decoder never emits it.
// Reader over the same bytes must match the stream decoder exactly:
// the same events and the same error.
func FuzzStreamDecoder(f *testing.F) {
	valid := func(n int) []byte {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		rng := rand.New(rand.NewSource(int64(n)))
		for i := 0; i < n; i++ {
			_ = w.Emit(Event{
				Kind: Kind(rng.Intn(int(numKinds))), IP: rng.Uint32(), Addr: rng.Uint32(),
				Val: rng.Uint32(), Offset: int32(rng.Uint32()), Taken: i%2 == 0,
				Src1: rng.Uint32() % 512, Src2: rng.Uint32() % 512, Lat: uint8(i),
			})
		}
		_ = w.Close()
		return buf.Bytes()
	}
	v30 := valid(30)
	f.Add(valid(20), uint8(3))
	f.Add(valid(5)[:20], uint8(1))          // truncated mid-event
	f.Add(append(valid(2), 0x42), uint8(4)) // corrupt tail kind
	f.Add([]byte("CAPT\x03"), uint8(1))
	f.Add([]byte("CAPT\x02"), uint8(2))
	f.Add([]byte{}, uint8(1))
	f.Add(append(valid(8), 0x42), uint8(63)) // corrupt kind after several events in one chunk
	f.Add(v30[:len(v30)-1], uint8(17))       // final event cut by one byte

	f.Fuzz(func(t *testing.T, data []byte, chunk uint8) {
		step := int(chunk)%64 + 1
		want, wantErr := refDecodeAll(data)
		got, gotErr := feedAll(t, data, step)

		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("error divergence: reference=%v stream=%v", wantErr, gotErr)
		}
		if wantErr == nil {
			if len(got) != len(want) {
				t.Fatalf("decoded %d events, reference %d", len(got), len(want))
			}
		} else {
			// Reference may have emitted one extra padding-built event.
			if len(want)-len(got) > 1 || len(got) > len(want) {
				t.Fatalf("on error: decoded %d events, reference %d", len(got), len(want))
			}
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("event %d: stream %+v, reference %+v", i, got[i], want[i])
			}
		}

		read, readErr := readAll(data)
		if fmt.Sprint(readErr) != fmt.Sprint(gotErr) {
			t.Fatalf("error divergence: reader=%v stream=%v", readErr, gotErr)
		}
		if len(read) != len(got) {
			t.Fatalf("reader %d events, stream %d", len(read), len(got))
		}
		for i := range read {
			if read[i] != got[i] {
				t.Fatalf("event %d: reader %+v, stream %+v", i, read[i], got[i])
			}
		}
	})
}
