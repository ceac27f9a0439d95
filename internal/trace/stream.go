package trace

import "fmt"

// StreamDecoder decodes the binary trace format incrementally from
// arbitrarily-segmented chunks of one logical stream — the shape of a
// network ingest path, where a session's events arrive across many
// request bodies split at whatever byte boundaries the transport chose.
// FeedBlocks is its one ingest entry point. The delta-compression state
// persists across FeedBlocks calls, so the concatenation of all chunks
// decodes to exactly the events a Reader would produce over the whole
// stream at once.
//
// Bytes that form an incomplete trailing event are buffered until the
// next chunk supplies the rest; the buffer is bounded by the largest
// possible encoded event (a few tens of bytes), since every varint is
// capped at ten bytes before it is rejected as overlong. Only Close can
// tell truncation apart from "more chunks coming", so the decoder
// reports a mid-event stream end when the caller declares the stream
// finished, exactly like Reader does at a file's EOF.
type StreamDecoder struct {
	st      deltaState
	tail    []byte // owned buffer of an incomplete trailing event (or header)
	started bool   // header consumed
	err     error
	events  int64
}

// NewStreamDecoder returns a decoder expecting the standard file header
// at the start of the stream.
func NewStreamDecoder() *StreamDecoder { return &StreamDecoder{} }

// Events returns the number of events decoded so far.
func (d *StreamDecoder) Events() int64 { return d.events }

// Buffered returns the number of bytes held back as an incomplete
// trailing event.
func (d *StreamDecoder) Buffered() int { return len(d.tail) }

// Err returns the first error encountered, or nil.
func (d *StreamDecoder) Err() error { return d.err }

// FeedBlocks appends chunk to the stream, decodes every complete event
// in it straight into SoA blocks and invokes fn (which may be nil) on
// each non-empty block, never materialising an Event per event on the
// bulk path. chunk is not retained. The bulk of the chunk goes through
// the columnar word-at-a-time core (safe wherever an event's farthest
// possible speculative read stays inside the chunk); the final
// decodeMargin bytes go through the fully bounds-checked per-event
// path, so everything complete decodes now and only a genuinely
// incomplete trailing event waits for the next chunk.
//
// The block passed to fn is reused across calls and valid only for the
// duration of the call. Once the decoder has failed, FeedBlocks keeps
// returning the same error.
func (d *StreamDecoder) FeedBlocks(chunk []byte, fn func(*Block)) error {
	if d.err != nil {
		return d.err
	}
	data := chunk
	if len(d.tail) > 0 {
		d.tail = append(d.tail, chunk...)
		data = d.tail
	}
	pos := 0
	if !d.started {
		if len(data) < 5 {
			d.keepTail(data, 0)
			return nil
		}
		if [4]byte(data[:4]) != magic {
			d.err = ErrBadMagic
			return d.err
		}
		if data[4] != formatVersion {
			d.err = fmt.Errorf("%w: %d", ErrBadVersion, data[4])
			return d.err
		}
		d.started = true
		pos = 5
	}
	b := GetBlock()
	defer PutBlock(b)
	// Columnar bulk. Holding end decodeMargin short of the chunk keeps
	// every speculative read of the word-at-a-time core inside data; the
	// final event before end may legitimately extend past it (those are
	// real bytes, not padding), and the tail sweep resumes after it.
	for end := len(data) - decodeMargin; pos < end; {
		n, next, err := decodeColumns(b, BlockLen, data, pos, end, &d.st)
		pos = next
		d.events += int64(n)
		if n > 0 && fn != nil {
			fn(b)
		}
		if err != nil {
			d.err = err
			d.tail = nil
			return d.err
		}
	}
	// Margin sweep: per-event and bounds-checked, stopping only at a
	// genuinely incomplete trailing event. At most decodeMargin bytes —
	// a handful of events — so the gather/scatter cost is immaterial.
	// As in the bulk, events before a corrupt one are delivered before
	// the error latches, so what fn sees never depends on where the
	// transport split the stream.
	b.Resize(BlockLen)
	i := 0
	var err error
	for pos < len(data) {
		ev, next, e := decodeStreamEvent(data, pos, &d.st)
		if e != nil {
			if e != errShortEvent {
				err = e
			}
			break
		}
		b.SetEvent(i, ev)
		i++
		pos = next
	}
	if i > 0 {
		b.Resize(i)
		d.events += int64(i)
		if fn != nil {
			fn(b)
		}
	}
	if err != nil {
		d.err = err
		d.tail = nil
		return err
	}
	d.keepTail(data, pos)
	return nil
}

// keepTail retains data[pos:] in the decoder-owned tail buffer. data may
// be the tail buffer itself (overlapping copy is fine) or the caller's
// chunk (which must be copied, not aliased).
func (d *StreamDecoder) keepTail(data []byte, pos int) {
	rem := data[pos:]
	if len(rem) == 0 {
		d.tail = d.tail[:0]
		return
	}
	if d.tail == nil {
		d.tail = make([]byte, 0, 64)
	}
	d.tail = d.tail[:0]
	d.tail = append(d.tail, rem...)
}

// Close declares the end of the stream. It returns an error when the
// stream ended in the middle of an event — or before a complete header,
// which mirrors Reader treating a short header as ErrBadMagic — and nil
// on a clean event boundary.
func (d *StreamDecoder) Close() error {
	if d.err != nil {
		return d.err
	}
	if !d.started {
		d.err = ErrBadMagic
		return d.err
	}
	if len(d.tail) > 0 {
		d.err = errTruncatedEvent
		return d.err
	}
	return nil
}

// decodeStreamEvent decodes one event at data[pos:], advancing the delta
// state. It returns errShortEvent — without touching st — when data ends
// before the event does, so the caller can retry once more bytes arrive.
func decodeStreamEvent(data []byte, pos int, st *deltaState) (Event, int, error) {
	// Decode against a scratch copy of the state: a short event must not
	// leave half-advanced deltas behind for the retry.
	scratch := *st
	kb := data[pos]
	pos++
	ev := Event{Kind: Kind(kb &^ takenBit)}
	if !ev.Kind.Valid() {
		return Event{}, 0, fmt.Errorf("trace: invalid event kind %d", kb)
	}
	u, pos, err := streamUvarint(data, pos)
	if err != nil {
		return Event{}, 0, err
	}
	scratch.prevIP += zigzag32(u)
	ev.IP = scratch.prevIP
	addr := func() error {
		u, pos, err = streamUvarint(data, pos)
		if err == nil {
			scratch.prevAddr[ev.Kind] += zigzag32(u)
			ev.Addr = scratch.prevAddr[ev.Kind]
		}
		return err
	}
	switch ev.Kind {
	case KindLoad, KindStore:
		if err := addr(); err != nil {
			return Event{}, 0, err
		}
		if ev.Kind == KindLoad {
			if pos+4 > len(data) {
				return Event{}, 0, errShortEvent
			}
			ev.Val = uint32(data[pos]) | uint32(data[pos+1])<<8 |
				uint32(data[pos+2])<<16 | uint32(data[pos+3])<<24
			pos += 4
		}
		if u, pos, err = streamUvarint(data, pos); err != nil {
			return Event{}, 0, err
		}
		ev.Offset = int32(zigzag32(u))
		if u, pos, err = streamUvarint(data, pos); err != nil {
			return Event{}, 0, err
		}
		ev.Src1 = uint32(u)
		if u, pos, err = streamUvarint(data, pos); err != nil {
			return Event{}, 0, err
		}
		ev.Src2 = uint32(u)
	case KindBranch:
		if err := addr(); err != nil {
			return Event{}, 0, err
		}
		ev.Taken = kb&takenBit != 0
		if u, pos, err = streamUvarint(data, pos); err != nil {
			return Event{}, 0, err
		}
		ev.Src1 = uint32(u)
	case KindCall, KindReturn:
		if err := addr(); err != nil {
			return Event{}, 0, err
		}
	case KindALU:
		if u, pos, err = streamUvarint(data, pos); err != nil {
			return Event{}, 0, err
		}
		ev.Src1 = uint32(u)
		if u, pos, err = streamUvarint(data, pos); err != nil {
			return Event{}, 0, err
		}
		ev.Src2 = uint32(u)
		if pos >= len(data) {
			return Event{}, 0, errShortEvent
		}
		ev.Lat = data[pos]
		pos++
	}
	*st = scratch
	return ev, pos, nil
}

// errShortEvent reports that the chunk ends before the current event
// does; unlike errTruncatedEvent it is recoverable — the decoder waits
// for the next chunk.
var errShortEvent = fmt.Errorf("trace: event continues past chunk")

// streamUvarint decodes an unsigned varint at data[pos:], distinguishing
// "ran out of bytes" (errShortEvent) from an overlong encoding, which is
// corruption no further bytes can repair.
func streamUvarint(data []byte, pos int) (uint64, int, error) {
	var v uint64
	var s uint
	for i := pos; i < len(data); i++ {
		b := data[i]
		if b < 0x80 {
			if s == 63 && b > 1 {
				return 0, 0, errTruncatedEvent // overflows uint64
			}
			return v | uint64(b)<<s, i + 1, nil
		}
		v |= uint64(b&0x7f) << s
		s += 7
		if s >= 64 {
			return 0, 0, errTruncatedEvent
		}
	}
	return 0, 0, errShortEvent
}
