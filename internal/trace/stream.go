package trace

// StreamDecoder decodes the binary trace format incrementally from
// arbitrarily-segmented chunks of one logical stream — the shape of a
// network ingest path, where a session's events arrive across many
// request bodies split at whatever byte boundaries the transport chose.
// FeedBlocks is its one ingest entry point. The delta-compression state
// persists across FeedBlocks calls, so the concatenation of all chunks
// decodes to exactly the events a Reader would produce over the whole
// stream at once.
//
// Every byte goes through the columnar core Reader uses. The end of
// each chunk is decoded the way Reader decodes the end of a file: from
// a zero-padded copy, where an event that runs past the real bytes is
// incomplete. Its bytes are held back until the next chunk supplies the
// rest; the buffer never exceeds decodeMargin bytes, since one event's
// parse is bounded by maxEventBytes even on hostile input. Only Close
// can tell truncation apart from "more chunks coming", so the decoder
// reports a mid-event stream end when the caller declares the stream
// finished, exactly like Reader does at a file's EOF.
type StreamDecoder struct {
	st      deltaState
	tail    []byte // incomplete trailing event (or header); cap decodeMargin
	started bool   // header consumed
	err     error
	events  int64

	// win is the zero-padded copy decodeEnd decodes the final bytes in.
	win [decodeMargin + replayPad]byte
}

// NewStreamDecoder returns a decoder expecting the standard file header
// at the start of the stream.
func NewStreamDecoder() *StreamDecoder {
	return &StreamDecoder{tail: make([]byte, 0, decodeMargin)}
}

// Events returns the number of events decoded so far.
func (d *StreamDecoder) Events() int64 { return d.events }

// Err returns the first error encountered, or nil.
func (d *StreamDecoder) Err() error { return d.err }

// FeedBlocks appends chunk to the stream, decodes every complete event
// in it straight into SoA blocks and invokes fn (which may be nil) on
// each non-empty block, never materialising an Event per event. chunk
// is not retained. An event left pending by the previous chunk is
// completed from the head of this one through decodeEnd; the bulk then
// runs in place, holding decodeMargin short of the chunk's end so every
// read stays inside it; and decodeEnd finishes the last bytes, so
// everything complete decodes now and only a genuinely incomplete
// trailing event waits for the next chunk. Events before a corrupt one
// are delivered before the error latches, so what fn sees never depends
// on where the transport split the stream.
//
// The block passed to fn is reused across calls and valid only for the
// duration of the call. Once the decoder has failed, FeedBlocks keeps
// returning the same error.
func (d *StreamDecoder) FeedBlocks(chunk []byte, fn func(*Block)) error {
	if d.err != nil {
		return d.err
	}
	if !d.started {
		k := min(len(chunk), headerLen-len(d.tail))
		d.tail = append(d.tail, chunk[:k]...)
		chunk = chunk[k:]
		if len(d.tail) < headerLen {
			return nil
		}
		if d.err = checkHeader(d.tail); d.err != nil {
			return d.err
		}
		d.started = true
		d.tail = d.tail[:0]
	}
	b := GetBlock()
	defer PutBlock(b)
	pos := 0
	if len(d.tail) > 0 {
		// The pending event needs fewer than maxEventBytes more bytes, so
		// a decodeMargin window ends past it unless chunk ends first —
		// and then the window is the whole rest of the stream.
		held := len(d.tail)
		k := min(len(chunk), decodeMargin-held)
		next, err := d.decodeEnd(b, d.tail, chunk[:k], fn)
		if err != nil || k == len(chunk) {
			return err
		}
		pos = next - held
	}
	for end := len(chunk) - decodeMargin; pos < end; {
		n, next, err := decodeColumns(b, BlockLen, chunk, pos, end, &d.st)
		pos = next
		d.deliver(b, n, fn)
		if err != nil {
			d.err = err
			return err
		}
	}
	_, err := d.decodeEnd(b, chunk[pos:], nil, fn)
	return err
}

// decodeEnd decodes head followed by rest, at most decodeMargin bytes,
// from a zero-padded copy with decodeToEnd: it delivers the complete
// events, keeps the bytes of the incomplete one left over as the tail
// and returns how many bytes were consumed. Only when the window ends
// where the stream received so far ends is that tail a pending event;
// otherwise the caller decodes on in its chunk and the tail is reset
// at the chunk's end.
func (d *StreamDecoder) decodeEnd(b *Block, head, rest []byte, fn func(*Block)) (int, error) {
	n := copy(d.win[:], head)
	n += copy(d.win[n:], rest)
	clear(d.win[n:])
	k, next, err := decodeToEnd(b, BlockLen, d.win[:], 0, n, &d.st)
	d.deliver(b, k, fn)
	if err != nil {
		d.err = err
		return next, err
	}
	d.tail = append(d.tail[:0], d.win[next:n]...)
	return next, nil
}

// deliver counts the n events decoded into b and hands a non-empty
// block to fn.
func (d *StreamDecoder) deliver(b *Block, n int, fn func(*Block)) {
	d.events += int64(n)
	if n > 0 && fn != nil {
		fn(b)
	}
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
