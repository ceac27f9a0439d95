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
	"capred/internal/trace/tracetest"
)

func FuzzStepBlockVsStep(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 0, 200, 9, 9})
	f.Add([]byte("load-branch-call mixes steer from here, any bytes work"))
	f.Add(make([]byte, 4*300)) // long all-load run, repeated IP 0
	f.Fuzz(func(t *testing.T, data []byte) {
		evs := tracetest.EventsFromBytes(data)
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
