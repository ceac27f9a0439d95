package trace

import "fmt"

// The frozen reference decoder: a straightforward per-event v3 decoder
// over a zero-padded byte slice, kept only as the oracle the production
// decoder (the columnar core behind FeedBlocks and Reader) is
// differentially tested against. It shares no decoding code with it —
// its varint reader included — so a bug in the production helpers
// cannot hide by appearing on both sides. Do not optimise it.

// refDecodeAll decodes data (header + events, no padding) one event at
// a time out of a zero-padded copy, returning every event decoded and
// the error that stopped the stream, if any. A final event whose fields
// ran into the padding is emitted before the truncation is flagged.
func refDecodeAll(data []byte) ([]Event, error) {
	end := len(data)
	data = append(append([]byte{}, data...), make([]byte, replayPad)...)
	if end < 5 || [4]byte(data[:4]) != magic {
		return nil, ErrBadMagic
	}
	if data[4] != formatVersion {
		return nil, fmt.Errorf("%w: %d", ErrBadVersion, data[4])
	}
	pos := 5
	overlong := false
	// uvarint reads one unsigned varint, flagging an encoding longer than
	// ten bytes or overflowing uint64. The zero padding terminates every
	// varint that starts inside the stream, so reads stay in bounds.
	uvarint := func() uint64 {
		var v uint64
		for s := uint(0); s < 64; s += 7 {
			b := data[pos]
			pos++
			if b < 0x80 {
				if s == 63 && b > 1 {
					break
				}
				return v | uint64(b)<<s
			}
			v |= uint64(b&0x7f) << s
		}
		overlong = true
		return 0
	}
	zigzag := func(u uint64) uint32 { return uint32(u>>1) ^ -uint32(u&1) }

	var out []Event
	var prevIP uint32
	var prevAddr [numKinds]uint32
	for pos < end {
		kb := data[pos]
		pos++
		ev := Event{Kind: Kind(kb &^ takenBit)}
		if !ev.Kind.Valid() {
			return out, fmt.Errorf("trace: invalid event kind %d", kb)
		}
		prevIP += zigzag(uvarint())
		ev.IP = prevIP
		switch ev.Kind {
		case KindLoad, KindStore:
			prevAddr[ev.Kind] += zigzag(uvarint())
			ev.Addr = prevAddr[ev.Kind]
			if ev.Kind == KindLoad {
				ev.Val = uint32(data[pos]) | uint32(data[pos+1])<<8 |
					uint32(data[pos+2])<<16 | uint32(data[pos+3])<<24
				pos += 4
			}
			ev.Offset = int32(zigzag(uvarint()))
			ev.Src1 = uint32(uvarint())
			ev.Src2 = uint32(uvarint())
		case KindBranch:
			prevAddr[ev.Kind] += zigzag(uvarint())
			ev.Addr = prevAddr[ev.Kind]
			ev.Taken = kb&takenBit != 0
			ev.Src1 = uint32(uvarint())
		case KindCall, KindReturn:
			prevAddr[ev.Kind] += zigzag(uvarint())
			ev.Addr = prevAddr[ev.Kind]
		case KindALU:
			ev.Src1 = uint32(uvarint())
			ev.Src2 = uint32(uvarint())
			ev.Lat = data[pos]
			pos++
		}
		if overlong {
			return out, errTruncatedEvent
		}
		out = append(out, ev)
	}
	if pos > end {
		return out, errTruncatedEvent
	}
	return out, nil
}
