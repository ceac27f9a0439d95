package sim

import (
	"testing"

	"capred/internal/predictor"
	"capred/internal/predictor/tournament"
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
	factories := map[string]func() predictor.Predictor{
		"last":         predictor.DefaultLastConfig().New,
		"stride":       predictor.DefaultStrideConfig().New,
		"stride-basic": predictor.BasicStrideConfig().New,
		"cap":          predictor.DefaultCAPConfig().New,
		"hybrid":       predictor.DefaultHybridConfig().New,
		"stride+cap":   tournament.LineupOf("stride", "cap").New,
		"default tournament": func() predictor.Predictor {
			return tournament.NewFull(false)
		},
	}
	for _, name := range tournament.ComponentNames() {
		factories[name+" alone"] = tournament.LineupOf(name).New
	}
	for name, mk := range factories {
		for _, gap := range []int{0, 8} {
			spec := spec
			want, err := RunTrace(trace.NewLimit(spec.Open(), events), mk(), gap)
			if err != nil {
				t.Fatalf("%s gap %d: RunTrace: %v", name, gap, err)
			}

			st := NewStepper(mk(), gap)
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

// squashFirst makes and squashes a throw-away prediction of every load
// before the real one, as a wrong-path fetch of the same static load
// would.
type squashFirst struct{ predictor.Predictor }

func (s squashFirst) Predict(ref predictor.LoadRef) predictor.Prediction {
	s.Predictor.(predictor.Squasher).Squash(ref, s.Predictor.Predict(ref))
	return s.Predictor.Predict(ref)
}

// TestSquashAtGapZeroLeavesNoTrace pins that the speculative
// bookkeeping every Predict does is invisible when nothing is in
// flight: at gap 0, an extra Predict then Squash before every load
// must leave the counters exactly as a plain run leaves them.
// pipeline.Gap never squashes at depth 0, so only this test reaches the
// case.
func TestSquashAtGapZeroLeavesNoTrace(t *testing.T) {
	spec, ok := workload.ByName("INT_gcc")
	if !ok {
		t.Fatal("INT_gcc missing from roster")
	}
	const events = 20_000
	factories := map[string]func() predictor.Predictor{
		"last":         func() predictor.Predictor { return predictor.NewLast(predictor.DefaultLastConfig()) },
		"stride":       predictor.DefaultStrideConfig().New,
		"stride-basic": func() predictor.Predictor { return predictor.NewStride(predictor.BasicStrideConfig()) },
		"cap":          predictor.DefaultCAPConfig().New,
		"hybrid":       predictor.DefaultHybridConfig().New,
		"stride+cap": func() predictor.Predictor {
			tp, err := tournament.NewNamed(predictor.DefaultConfig(), "stride", "cap")
			if err != nil {
				t.Fatal(err)
			}
			return tp
		},
		"default tournament": func() predictor.Predictor {
			return tournament.NewFull(false)
		},
	}
	for _, name := range tournament.ComponentNames() {
		factories[name+" alone"] = func() predictor.Predictor {
			tp, err := tournament.NewNamed(predictor.DefaultConfig(), name)
			if err != nil {
				t.Fatal(err)
			}
			return tp
		}
	}
	for name, mk := range factories {
		want, err := RunTrace(trace.NewLimit(spec.Open(), events), mk(), 0)
		if err != nil {
			t.Fatalf("%s: plain run: %v", name, err)
		}
		got, err := RunTrace(trace.NewLimit(spec.Open(), events), squashFirst{mk()}, 0)
		if err != nil {
			t.Fatalf("%s: squashing run: %v", name, err)
		}
		if want.Loads == 0 || want.Speculated == 0 {
			t.Fatalf("%s: plain run speculated nothing: %+v", name, want)
		}
		if got != want {
			t.Errorf("%s: a squash at gap 0 changed the counters:\n  plain     %+v\n  squashing %+v", name, want, got)
		}
	}
}
