package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Binary trace file format
//
//	magic   [4]byte  "CAPT"
//	version uint8    currently 3
//	events  ...      repeated until EOF
//
// Each event is a kind byte followed by varint-encoded fields. Only the
// fields meaningful for the kind are stored, and the large 32-bit fields
// (IP, Addr, Val) are delta-encoded against the previous event carrying
// the same field, which keeps most varints in the 1-2 byte range: real
// instruction streams revisit nearby IPs and walk nearby addresses, so
// consecutive differences are small where absolute values never are. A
// branch's taken flag rides in bit 7 of its kind byte.
//
//	all kinds:     kind|taken<<7, varint(IP - prevIP)
//	load:          varint(Addr - prevAddr[load]) u32le(Val) varint(Offset) uvarint(Src1) uvarint(Src2)
//	store:         varint(Addr - prevAddr[store]) varint(Offset) uvarint(Src1) uvarint(Src2)
//	branch:        varint(Addr - prevAddr[branch]) uvarint(Src1)
//	call, return:  varint(Addr - prevAddr[kind])
//	alu:           uvarint(Src1) uvarint(Src2) byte(Lat)
//
// Deltas are computed on wrapping uint32 arithmetic and stored as the
// zigzag varint of the signed 32-bit difference, so every field value
// round-trips exactly. The per-kind Addr history means interleaved load
// and store streams do not destroy each other's locality. Load values are
// the one field with no exploitable locality — they are near-random, so a
// varint (delta or absolute) averages five to six bytes; a fixed
// little-endian word is both smaller and a single load to decode.
var (
	magic = [4]byte{'C', 'A', 'P', 'T'}

	// ErrBadMagic is returned when a trace file does not start with the
	// expected magic bytes.
	ErrBadMagic = errors.New("trace: bad magic, not a trace file")
	// ErrBadVersion is returned for an unsupported format version.
	ErrBadVersion = errors.New("trace: unsupported format version")
)

const formatVersion = 3

// headerLen is the size of the file header: magic and version.
const headerLen = len(magic) + 1

// checkHeader validates the file header at the start of hdr, which
// holds at least headerLen bytes.
func checkHeader(hdr []byte) error {
	if [4]byte(hdr[:4]) != magic {
		return ErrBadMagic
	}
	if hdr[4] != formatVersion {
		return fmt.Errorf("%w: %d", ErrBadVersion, hdr[4])
	}
	return nil
}

// takenBit flags a taken branch inside the kind byte.
const takenBit = 0x80

// deltaState is the codec's running compression context: the previous
// IP and the previous Addr per event kind. Writer and the readers
// advance identical copies of it, so the encoded deltas resolve to the
// original absolute values.
type deltaState struct {
	prevIP   uint32
	prevAddr [8]uint32 // indexed by Kind
}

// Writer encodes events to an io.Writer in the binary trace format.
type Writer struct {
	w      *bufio.Writer
	buf    []byte
	st     deltaState
	wrote  bool
	closed bool
}

// NewWriter returns a Writer that writes the file header lazily on the
// first Emit. Call Flush before closing the underlying writer.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriterSize(w, 1<<16), buf: make([]byte, 0, 64)}
}

func (w *Writer) header() error {
	if w.wrote {
		return nil
	}
	w.wrote = true
	if _, err := w.w.Write(magic[:]); err != nil {
		return err
	}
	return w.w.WriteByte(formatVersion)
}

// Emit implements Sink.
func (w *Writer) Emit(ev Event) error {
	if w.closed {
		return errors.New("trace: write after Close")
	}
	if !ev.Kind.Valid() {
		return fmt.Errorf("trace: invalid event kind %d", ev.Kind)
	}
	if err := w.header(); err != nil {
		return err
	}
	kb := byte(ev.Kind)
	if ev.Kind == KindBranch && ev.Taken {
		kb |= takenBit
	}
	b := w.buf[:0]
	b = append(b, kb)
	b = binary.AppendVarint(b, int64(int32(ev.IP-w.st.prevIP)))
	w.st.prevIP = ev.IP
	addrDelta := func(b []byte) []byte {
		b = binary.AppendVarint(b, int64(int32(ev.Addr-w.st.prevAddr[ev.Kind])))
		w.st.prevAddr[ev.Kind] = ev.Addr
		return b
	}
	switch ev.Kind {
	case KindLoad, KindStore:
		b = addrDelta(b)
		if ev.Kind == KindLoad {
			b = binary.LittleEndian.AppendUint32(b, ev.Val)
		}
		b = binary.AppendVarint(b, int64(ev.Offset))
		b = binary.AppendUvarint(b, uint64(ev.Src1))
		b = binary.AppendUvarint(b, uint64(ev.Src2))
	case KindBranch:
		b = addrDelta(b)
		b = binary.AppendUvarint(b, uint64(ev.Src1))
	case KindCall, KindReturn:
		b = addrDelta(b)
	case KindALU:
		b = binary.AppendUvarint(b, uint64(ev.Src1))
		b = binary.AppendUvarint(b, uint64(ev.Src2))
		b = append(b, ev.Lat)
	}
	w.buf = b[:0]
	_, err := w.w.Write(b)
	return err
}

// Flush writes any buffered data (and the header, for an empty trace) to
// the underlying writer.
func (w *Writer) Flush() error {
	if err := w.header(); err != nil {
		return err
	}
	return w.w.Flush()
}

// Close flushes the writer and rejects any further Emit calls. It does
// not close the underlying io.Writer.
func (w *Writer) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	return w.Flush()
}

// Reader decodes a binary trace file as a Source. It buffers the input
// in a sliding byte window and runs the same columnar decode core
// (decodeColumns) as the streaming decoder, so file-backed and
// network-ingested streams share one decode cost model; Next gathers
// events out of an internal block.
type Reader struct {
	r       io.Reader
	buf     []byte // window; buf[pos:filled] is undecoded input
	pos     int
	filled  int
	st      deltaState
	err     error
	started bool
	eof     bool // underlying reader hit EOF; padding appended

	// pend holds decoded-ahead events for the per-event interface;
	// pend[pi:] are not yet delivered.
	pend *Block
	pi   int
}

// readerWindow is the Reader's input buffer size.
const readerWindow = 1 << 16

// NewReader returns a Source reading the binary trace format from r.
// The header is validated on the first read.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: r, buf: make([]byte, readerWindow)}
}

// fill slides the undecoded tail of the window to the front and reads
// more input after it. The window always keeps replayPad bytes of slack
// at its top; at EOF that slack is zeroed so the decode core sees the
// same padded tail a replay cursor does. Read errors go to r.err.
func (r *Reader) fill() {
	if r.pos > 0 {
		r.filled = copy(r.buf, r.buf[r.pos:r.filled])
		r.pos = 0
	}
	for tries := 0; !r.eof && r.err == nil; {
		n, err := r.r.Read(r.buf[r.filled : len(r.buf)-replayPad])
		r.filled += n
		switch {
		case err == io.EOF:
			r.eof = true
		case err != nil:
			r.err = err
		case n > 0:
			return
		default:
			// A reader stuck on (0, nil) must not spin us forever.
			if tries++; tries >= 100 {
				r.err = io.ErrNoProgress
			}
		}
	}
	if r.eof {
		// Zero padding: terminates any varint and keeps every in-event
		// read inside the slice, exactly like a replay cursor's tail.
		pad := r.buf[r.filled : r.filled+replayPad]
		for i := range pad {
			pad[i] = 0
		}
	}
}

// start consumes and validates the file header.
func (r *Reader) start() {
	r.started = true
	for r.filled-r.pos < headerLen && !r.eof && r.err == nil {
		r.fill()
	}
	if r.err != nil {
		return
	}
	if r.filled-r.pos < headerLen {
		r.err = ErrBadMagic
		return
	}
	if r.err = checkHeader(r.buf[r.pos:]); r.err == nil {
		r.pos += headerLen
	}
}

// NextBlock implements BlockSource. Mid-stream it decodes only up to
// decodeMargin short of the buffered bytes (so no event parse can leave
// the window), refilling as the window drains; after EOF it decodes to
// the logical end over the zero padding with decodeToEnd, where an
// incomplete event left over means a truncated final event.
func (r *Reader) NextBlock(b *Block, max int) (int, bool) {
	if max <= 0 {
		b.Resize(0)
		return 0, false
	}
	if r.pend != nil && r.pi < r.pend.Len() {
		// A per-event consumer left decoded-ahead events behind; deliver
		// the remainder as a view before decoding any further — and
		// before reporting an error, since the decode that filled pend
		// may have stopped on one after these events.
		n := r.pend.Len() - r.pi
		if n > max {
			n = max
		}
		viewBlock(b, r.pend, r.pi, n)
		r.pi += n
		return n, true
	}
	if r.err != nil {
		b.Resize(0)
		return 0, false
	}
	if !r.started {
		r.start()
		if r.err != nil {
			b.Resize(0)
			return 0, false
		}
	}
	for !r.eof {
		if end := r.filled - decodeMargin; r.pos < end {
			n, pos, err := decodeColumns(b, max, r.buf, r.pos, end, &r.st)
			r.pos = pos
			if err != nil {
				r.err = err
				return n, false
			}
			if n > 0 {
				return n, true
			}
		}
		r.fill()
		if r.err != nil {
			b.Resize(0)
			return 0, false
		}
	}
	n, pos, err := decodeToEnd(b, max, r.buf, r.pos, r.filled, &r.st)
	r.pos = pos
	if err == nil && pos < r.filled {
		if n == max {
			return n, true
		}
		err = errTruncatedEvent
	}
	r.err = err
	return n, false
}

// viewBlock points b at n events of src starting at off, as a shared
// read-only view.
func viewBlock(b, src *Block, off, n int) {
	b.KindTaken = src.KindTaken[off : off+n]
	b.IP = src.IP[off : off+n]
	b.Addr = src.Addr[off : off+n]
	b.Val = src.Val[off : off+n]
	b.Offset = src.Offset[off : off+n]
	b.Src1 = src.Src1[off : off+n]
	b.Src2 = src.Src2[off : off+n]
	b.Lat = src.Lat[off : off+n]
	b.shared = true
}

// refillPend decodes the next run of events into the internal block for
// the per-event interface.
func (r *Reader) refillPend() int {
	if r.pend == nil {
		r.pend = NewBlock(BlockLen)
	}
	n, _ := r.NextBlock(r.pend, BlockLen)
	r.pi = 0
	return n
}

// Next implements Source.
func (r *Reader) Next() (Event, bool) {
	if r.pend == nil || r.pi >= r.pend.Len() {
		if r.refillPend() == 0 {
			return Event{}, false
		}
	}
	ev := r.pend.Event(r.pi)
	r.pi++
	return ev, true
}

// Err implements Source.
func (r *Reader) Err() error { return r.err }
