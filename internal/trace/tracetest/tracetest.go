// Package tracetest provides trace helpers shared by the differential
// fuzzers of the packages that consume event streams.
package tracetest

import "capred/internal/trace"

// EventsFromBytes expands raw fuzz bytes into a valid event mix, four
// bytes per event, so a fuzzer explores kind interleavings, address
// patterns and dependence distances without ever constructing an event
// the trace layer would reject. Every kind carries its own fields only.
func EventsFromBytes(data []byte) []trace.Event {
	evs := make([]trace.Event, 0, len(data)/4)
	for i := 0; i+4 <= len(data); i += 4 {
		k, a, b, c := data[i], data[i+1], data[i+2], data[i+3]
		ev := trace.Event{IP: uint32(a)<<4 | uint32(k>>4)}
		switch k % 6 {
		case 0:
			ev.Kind = trace.KindLoad
			ev.Addr = uint32(b)<<8 | uint32(c)
			ev.Val = uint32(c) * 3
			ev.Offset = int32(int8(b))
			ev.Src1, ev.Src2 = uint32(c&7), uint32(b&7)
		case 1:
			ev.Kind = trace.KindStore
			ev.Addr = uint32(c)<<8 | uint32(b)
			ev.Offset = -int32(b & 31)
			ev.Src1, ev.Src2 = uint32(b&7), uint32(c&7)
		case 2:
			ev.Kind = trace.KindBranch
			ev.Addr = uint32(b) << 2
			ev.Taken = c&1 == 1
			ev.Src1 = uint32(c & 7)
		case 3:
			ev.Kind = trace.KindCall
			ev.Addr = uint32(b) << 4
		case 4:
			ev.Kind = trace.KindReturn
			ev.Addr = uint32(c) << 4
		default:
			ev.Kind = trace.KindALU
			ev.Src1, ev.Src2 = uint32(b&15), uint32(c&15)
			ev.Lat = c % 8 // 0 exercises the "Lat 0 is one cycle" rule
		}
		evs = append(evs, ev)
	}
	return evs
}
