package sim

// Differential fuzz for the SoA hot path: StepBlock is a hand-hoisted
// rewrite of the per-event Step loop, so for every event mix the two
// must accumulate bit-identical counters, in both immediate-update and
// gapped mode. The fuzzer steers kind interleavings, address patterns
// and block-boundary placement.

import (
	"testing"

	"capred/internal/predictor"
	"capred/internal/trace"
)

// eventsFromBytes expands raw fuzz bytes into a valid event mix, four
// bytes per event, so the fuzzer explores interleavings without ever
// constructing an event the trace layer would reject.
func eventsFromBytes(data []byte) []trace.Event {
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
			ev.Lat = 1 + c%8
		}
		evs = append(evs, ev)
	}
	return evs
}

func FuzzStepBlockVsStep(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 0, 200, 9, 9})
	f.Add([]byte("load-branch-call mixes steer from here, any bytes work"))
	f.Add(make([]byte, 4*300)) // long all-load run, repeated IP 0
	f.Fuzz(func(t *testing.T, data []byte) {
		evs := eventsFromBytes(data)
		for _, gap := range []int{0, 4} {
			mk := func() *Stepper {
				return NewStepper(predictor.NewHybrid(predictor.DefaultHybridConfig()), gap)
			}

			perEvent := mk()
			for _, ev := range evs {
				perEvent.Step(ev)
			}
			perEvent.Finish()

			// Odd block size so block boundaries land mid-mix, not only at
			// the end of the stream.
			blocked := mk()
			bs := trace.AsBlocks(trace.NewSliceSource(evs))
			b := trace.NewBlock(17)
			for {
				n, ok := bs.NextBlock(b, 17)
				if n > 0 {
					blocked.StepBlock(b)
				}
				if !ok {
					break
				}
			}
			blocked.Finish()

			if perEvent.C != blocked.C {
				t.Fatalf("gap %d: counters diverge over %d events:\nStep      %+v\nStepBlock %+v",
					gap, len(evs), perEvent.C, blocked.C)
			}
		}
	})
}
