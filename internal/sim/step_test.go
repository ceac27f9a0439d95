package sim

import (
	"testing"

	"capred/internal/predictor"
	"capred/internal/trace"
	"capred/internal/workload"
)

// stepperVsRunTrace pins the serving-path contract: stepping the same
// events through a Stepper yields counters identical to RunTrace over
// the same source, for every predictor family and both update modes.
func TestStepperMatchesRunTrace(t *testing.T) {
	spec, ok := workload.ByName("INT_xli")
	if !ok {
		t.Fatal("INT_xli missing from roster")
	}
	const events = 50_000
	factories := map[string]func(speculative bool) predictor.Predictor{
		"last": func(bool) predictor.Predictor {
			return predictor.NewLast(predictor.DefaultLastConfig())
		},
		"stride": func(s bool) predictor.Predictor {
			cfg := predictor.DefaultStrideConfig()
			cfg.Speculative = s
			return predictor.NewStride(cfg)
		},
		"cap": func(s bool) predictor.Predictor {
			cfg := predictor.DefaultCAPConfig()
			cfg.Speculative = s
			return predictor.NewCAP(cfg)
		},
		"hybrid": func(s bool) predictor.Predictor {
			cfg := predictor.DefaultHybridConfig()
			cfg.Speculative = s
			return predictor.NewHybrid(cfg)
		},
	}
	for name, mk := range factories {
		for _, gap := range []int{0, 8} {
			if name == "last" && gap > 0 {
				continue // the last-address baseline has no speculative mode
			}
			spec := spec
			speculative := gap > 0
			want, err := RunTrace(trace.NewLimit(spec.Open(), events), mk(speculative), gap)
			if err != nil {
				t.Fatalf("%s gap %d: RunTrace: %v", name, gap, err)
			}

			st := NewStepper(mk(speculative), gap)
			src := trace.AsBlocks(trace.NewLimit(spec.Open(), events))
			const blockLen = 333 // deliberately off-size blocks
			b := trace.NewBlock(blockLen)
			for {
				_, ok := src.NextBlock(b, blockLen)
				st.StepBlock(b)
				if !ok {
					break
				}
			}
			if err := src.Err(); err != nil {
				t.Fatalf("%s gap %d: source: %v", name, gap, err)
			}
			st.Finish()
			if st.C != want {
				t.Errorf("%s gap %d: stepper counters diverge:\n  stepper  %+v\n  runtrace %+v",
					name, gap, st.C, want)
			}
		}
	}
}

// TestStepperEventByEvent feeds events one at a time — the worst-case
// network batch size — and must still agree exactly.
func TestStepperEventByEvent(t *testing.T) {
	spec, ok := workload.ByName("TPC_t23")
	if !ok {
		t.Fatal("TPC_t23 missing from roster")
	}
	const events = 20_000
	mk := func() predictor.Predictor { return predictor.NewHybrid(predictor.DefaultHybridConfig()) }
	want, err := RunTrace(trace.NewLimit(spec.Open(), events), mk(), 0)
	if err != nil {
		t.Fatalf("RunTrace: %v", err)
	}
	st := NewStepper(mk(), 0)
	src := trace.NewLimit(spec.Open(), events)
	for {
		ev, ok := src.Next()
		if !ok {
			break
		}
		st.Step(ev)
	}
	st.Finish()
	if st.C != want {
		t.Fatalf("event-by-event stepping diverges from RunTrace")
	}
}
