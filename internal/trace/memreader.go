package trace

import (
	"errors"
	"fmt"
)

var errTruncatedEvent = errors.New("trace: truncated event")

// replayPad is the run of zero bytes a decoder keeps after the logical
// end of an encoded stream (Reader zeroes it at EOF). Zero bytes are
// one-byte varints, so a decoder that has consumed the last real event
// can never index past the slice while finishing its bookkeeping — which
// lets the hot decode loop drop per-byte bounds checks.
const replayPad = 16

// maxEventBytes bounds how far one event's parse can advance, even on
// hostile bytes: kind, five varints of at most ten bytes each (longer
// ones fail inside uvarintLongAt before consuming an eleventh byte),
// the 4-byte load value and the latency byte. The writer never emits a
// varint over five bytes, but the decode margin must hold for corrupt
// input too.
const maxEventBytes = 1 + 5*10 + 4 + 1

// decodeMargin is how far short of its valid bytes a buffered reader
// must hold decodeColumns' end: an event starting just before end may
// advance maxEventBytes past it, the two-byte varint fast path peeks
// one byte further, and the word fast path reads 16 bytes from the
// event start.
const decodeMargin = maxEventBytes + 16

// uvarintLongAt decodes a multi-byte unsigned varint at pos. The caller
// has already handled the one-byte case and guarantees pos is in range
// (the padding keeps every in-event read inside the slice). A negative
// result position reports an overlong varint. It is kept out of line so
// the decoders' inline one- and two-byte fast paths stay small.
//
//go:noinline
func uvarintLongAt(data []byte, pos int) (uint64, int) {
	var v uint64
	var s uint
	for pos < len(data) {
		b := data[pos]
		pos++
		if b < 0x80 {
			if s == 63 && b > 1 {
				return 0, -1 // overflows uint64
			}
			return v | uint64(b)<<s, pos
		}
		v |= uint64(b&0x7f) << s
		s += 7
		if s >= 64 {
			return 0, -1
		}
	}
	return 0, -1
}

// zigzag32 maps a zigzag-encoded varint back to a wrapping 32-bit delta.
func zigzag32(u uint64) uint32 {
	return uint32(u>>1) ^ -uint32(u&1)
}

// le64 assembles the eight little-endian bytes at data[pos:] into one
// word. The padding keeps the read in bounds for every position inside
// the stream (pos < end implies pos+8 ≤ end+7 < len for replayPad ≥ 8).
func le64(data []byte, pos int) uint64 {
	b := data[pos : pos+8 : pos+8]
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

// decodeColumns is the columnar word-at-a-time decode core shared by
// the buffered file Reader and the streaming decoder: each event's
// leading bytes are read as one 64-bit word, and when every varint of
// the event fits in one byte — the overwhelmingly common case under
// delta encoding — the whole event is extracted from the word with
// shifts and written column by column, with no per-field byte loop and
// no Event materialisation. Events with a multi-byte varint (or the
// rare store) take the generic per-field path.
//
// It decodes up to max events from data[pos:end] into b (resized to the
// count decoded) and returns the count and the new position. The caller
// guarantees every byte offset the decode can touch is readable: an
// event starting before end reads at most maxEventBytes beyond its
// first byte plus the two 8-byte words of the fast path, so
// len(data) ≥ end + replayPad suffices when the bytes past end are
// zeros (padding), and a buffered reader must keep its window end at
// least decodeMargin short of the valid bytes. A position past end on
// return means the final event's fields overran the logical stream —
// truncation when the stream is complete, "refill and retry" for a
// windowed caller.
func decodeColumns(b *Block, max int, data []byte, pos, end int, stp *deltaState) (int, int, error) {
	b.Resize(max)
	kt := b.KindTaken
	ip := b.IP[:len(kt)]
	addr := b.Addr[:len(kt)]
	val := b.Val[:len(kt)]
	off := b.Offset[:len(kt)]
	src1 := b.Src1[:len(kt)]
	src2 := b.Src2[:len(kt)]
	st := *stp
	i := 0
	for i < len(kt) {
		if pos >= end {
			break
		}
		w := le64(data, pos)
		kb := uint8(w)
		kt[i] = kb
		switch kb {
		case uint8(KindALU):
			// bytes: kind, IPΔ, Src1, Src2, Lat — varints at 1..3.
			if w&0x80808000 == 0 {
				st.prevIP += zigzag32((w >> 8) & 0x7f)
				ip[i] = st.prevIP
				src1[i] = uint32(w>>16) & 0x7f
				src2[i] = uint32(w>>24) & 0x7f
				b.Lat[i] = uint8(w >> 32)
				pos += 5
				i++
				continue
			}
		case uint8(KindLoad):
			// bytes: kind, IPΔ, AddrΔ, Val (4 fixed), Offset | Src1, Src2
			// in the next word — varints at 1, 2, 7, 8, 9.
			if w&0x8000000000808000 == 0 {
				w2 := le64(data, pos+8)
				if w2&0x8080 == 0 {
					st.prevIP += zigzag32((w >> 8) & 0x7f)
					ip[i] = st.prevIP
					st.prevAddr[KindLoad] += zigzag32((w >> 16) & 0x7f)
					addr[i] = st.prevAddr[KindLoad]
					val[i] = uint32(w >> 24)
					off[i] = int32(zigzag32((w >> 56) & 0x7f))
					src1[i] = uint32(w2) & 0x7f
					src2[i] = uint32(w2>>8) & 0x7f
					pos += 10
					i++
					continue
				}
			}
		case uint8(KindBranch), uint8(KindBranch) | takenBit:
			// bytes: kind|taken, IPΔ, AddrΔ, Src1 — varints at 1..3.
			if w&0x80808000 == 0 {
				st.prevIP += zigzag32((w >> 8) & 0x7f)
				ip[i] = st.prevIP
				st.prevAddr[KindBranch] += zigzag32((w >> 16) & 0x7f)
				addr[i] = st.prevAddr[KindBranch]
				src1[i] = uint32(w>>24) & 0x7f
				pos += 4
				i++
				continue
			}
		case uint8(KindCall), uint8(KindReturn):
			// bytes: kind, IPΔ, AddrΔ — varints at 1..2.
			if w&0x808000 == 0 {
				st.prevIP += zigzag32((w >> 8) & 0x7f)
				ip[i] = st.prevIP
				st.prevAddr[kb] += zigzag32((w >> 16) & 0x7f)
				addr[i] = st.prevAddr[kb]
				pos += 3
				i++
				continue
			}
		}
		// Slow path: a multi-byte varint somewhere in the event, a store,
		// or an invalid kind byte. Decodes one event generically into the
		// columns (or fails), then the loop resumes on the fast paths.
		next, err := decodeEventColumns(data, b, i, pos, &st)
		if err != nil {
			*stp = st
			b.Resize(i)
			return i, pos, err
		}
		pos = next
		i++
	}
	*stp = st
	b.Resize(i)
	return i, pos, nil
}

// decodeToEnd is decodeColumns up to the logical end of the bytes in
// hand, which the caller follows with replayPad zero bytes — the rule
// Reader applies at EOF and StreamDecoder at the end of every chunk.
// An event whose parse runs past end was built partly from padding, so
// it is incomplete: it is dropped from b, *st is rolled back to before
// it, and the returned position is its first byte. A clean return
// short of end with fewer than max events therefore marks an
// incomplete event.
func decodeToEnd(b *Block, max int, data []byte, pos, end int, st *deltaState) (int, int, error) {
	saved := *st
	n, next, err := decodeColumns(b, max, data, pos, end, st)
	if next > end {
		// Only a clean decode overruns (an error stops it at the bad
		// event's first byte), so re-decoding all but the overrunning
		// event cleanly rebuilds b and *st.
		*st = saved
		n, next, err = decodeColumns(b, n-1, data, pos, end, st)
	}
	return n, next, err
}

// decodeEventColumns is decodeColumns' generic slow path: it decodes
// the single event at pos field by field into b's columns at index i,
// advancing st, and returns the position after the event. Each varint's
// one- and two-byte cases are decoded inline (two bytes covers every
// delta within ±8 KiB, which is nearly all of the multi-byte tail);
// only longer encodings pay the uvarintLongAt call.
func decodeEventColumns(data []byte, b *Block, i, pos int, st *deltaState) (int, error) {
	kb := data[pos]
	pos++
	kind := Kind(kb &^ takenBit)
	if !kind.Valid() {
		return 0, fmt.Errorf("trace: invalid event kind %d", kb)
	}
	var u uint64
	varint := func() bool {
		if c := data[pos]; c < 0x80 {
			u = uint64(c)
			pos++
		} else if c2 := data[pos+1]; c2 < 0x80 {
			// Two bytes are always in range: the zero padding extends
			// past the logical end of the stream.
			u = uint64(c&0x7f) | uint64(c2)<<7
			pos += 2
		} else if u, pos = uvarintLongAt(data, pos); pos < 0 {
			return false
		}
		return true
	}
	if !varint() {
		return 0, errTruncatedEvent
	}
	st.prevIP += zigzag32(u)
	b.IP[i] = st.prevIP
	switch kind {
	case KindLoad, KindStore:
		if !varint() {
			return 0, errTruncatedEvent
		}
		st.prevAddr[kind] += zigzag32(u)
		b.Addr[i] = st.prevAddr[kind]
		if kind == KindLoad {
			b.Val[i] = uint32(data[pos]) | uint32(data[pos+1])<<8 |
				uint32(data[pos+2])<<16 | uint32(data[pos+3])<<24
			pos += 4
		}
		if !varint() {
			return 0, errTruncatedEvent
		}
		b.Offset[i] = int32(zigzag32(u))
		if !varint() {
			return 0, errTruncatedEvent
		}
		b.Src1[i] = uint32(u)
		if !varint() {
			return 0, errTruncatedEvent
		}
		b.Src2[i] = uint32(u)
	case KindBranch:
		if !varint() {
			return 0, errTruncatedEvent
		}
		st.prevAddr[kind] += zigzag32(u)
		b.Addr[i] = st.prevAddr[kind]
		if !varint() {
			return 0, errTruncatedEvent
		}
		b.Src1[i] = uint32(u)
	case KindCall, KindReturn:
		if !varint() {
			return 0, errTruncatedEvent
		}
		st.prevAddr[kind] += zigzag32(u)
		b.Addr[i] = st.prevAddr[kind]
	case KindALU:
		if !varint() {
			return 0, errTruncatedEvent
		}
		b.Src1[i] = uint32(u)
		if !varint() {
			return 0, errTruncatedEvent
		}
		b.Src2[i] = uint32(u)
		b.Lat[i] = data[pos]
		pos++
	}
	return pos, nil
}
