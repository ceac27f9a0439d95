package sim

import (
	"reflect"
	"testing"

	"capred/internal/predictor"
	"capred/internal/predictor/tournament"
	"capred/internal/trace"
	"capred/internal/workload"
)

// TestTournamentStepBlockEquivalence pins the block-path contract for
// the tournament: StepBlock over SoA blocks and Step over individual
// events must produce bit-identical counters AND per-component
// selection statistics, in immediate mode and under a prediction gap.
func TestTournamentStepBlockEquivalence(t *testing.T) {
	spec, ok := workload.ByName("INT_xli")
	if !ok {
		t.Fatal("INT_xli missing from roster")
	}
	const events = 40_000
	for _, gap := range []int{0, 4} {
		stepSt := NewStepper(tournament.NewFull(false), gap)
		src := trace.NewLimit(spec.Open(), events)
		for {
			ev, ok := src.Next()
			if !ok {
				break
			}
			stepSt.Step(ev)
		}
		if err := src.Err(); err != nil {
			t.Fatalf("gap %d: step source: %v", gap, err)
		}
		stepSt.Finish()

		blockSt := NewStepper(tournament.NewFull(false), gap)
		if err := forEachBlock(nil, trace.NewLimit(spec.Open(), events), blockSt.StepBlock); err != nil {
			t.Fatalf("gap %d: block source: %v", gap, err)
		}
		blockSt.Finish()

		if stepSt.C != blockSt.C {
			t.Errorf("gap %d: counters diverge:\n  step  %+v\n  block %+v", gap, stepSt.C, blockSt.C)
		}
		ss := stepSt.Predictor().(*predictor.Tournament).ComponentStats()
		bs := blockSt.Predictor().(*predictor.Tournament).ComponentStats()
		if !reflect.DeepEqual(ss, bs) {
			t.Errorf("gap %d: component stats diverge:\n  step  %+v\n  block %+v", gap, ss, bs)
		}
	}
}

// TestTournamentPairMatchesHybridOnTrace runs the two-way stride+CAP
// tournament of the ablation's "tournament stride+cap" row and the
// paper's hybrid over a real trace — immediate and gap 8 — and requires
// identical counters: the registry's default chooser geometry and
// initial vector are the ones NewHybrid uses.
func TestTournamentPairMatchesHybridOnTrace(t *testing.T) {
	spec, ok := workload.ByName("TPC_t23")
	if !ok {
		t.Fatal("TPC_t23 missing from roster")
	}
	const events = 60_000
	for _, gap := range []int{0, 8} {
		want, err := RunTrace(trace.NewLimit(spec.Open(), events), predictor.NewHybrid(predictor.DefaultHybridConfig()), gap)
		if err != nil {
			t.Fatalf("gap %d: hybrid: %v", gap, err)
		}
		pair, err := tournament.NewNamed(predictor.DefaultConfig(), "stride", "cap")
		if err != nil {
			t.Fatal(err)
		}
		got, err := RunTrace(trace.NewLimit(spec.Open(), events), pair, gap)
		if err != nil {
			t.Fatalf("gap %d: tournament: %v", gap, err)
		}
		if got != want {
			t.Errorf("gap %d: counters diverge:\n  hybrid     %+v\n  tournament %+v", gap, want, got)
		}
	}
}

// TestTournamentSelectionsSumToSpeculations: in every trace run of a
// body-less tournament row — the hybrid, the tournament ablation's
// lineups, Fig. 11's hybrid at gaps 0 and 8 — the entrants' selections
// sum to the run's speculative accesses and their correct selections to
// its correct ones. The rows share one serial grid, so the worker's
// cached hybrid serves every trace of three rows in turn, and a ledger
// that a reset left standing would break the sums.
func TestTournamentSelectionsSumToSpeculations(t *testing.T) {
	hybrid := predictor.DefaultHybridConfig()
	rows := []row{
		{"hybrid (§3.7)", hybrid, 0, nil},
		{"tournament stride+cap", tournament.LineupOf("stride", "cap"), 0, nil},
		{"markov alone", tournament.LineupOf("markov"), 0, nil},
		{"tournament 3-way", tournament.LineupOf(tournament.DefaultComponents()...), 0, nil},
		{"hybrid gap 0", hybrid, 0, nil},
		{"hybrid gap 8", hybrid, 8, nil},
	}
	r, runs := sweep(Config{EventsPerTrace: 5_000, Workers: 1}, rows)
	if len(r.Failures) != 0 {
		t.Fatalf("failures: %v", r.Failures)
	}
	for i, rr := range runs {
		for _, run := range rr {
			if run.Comps == nil {
				t.Fatalf("%s on %s: no selection ledger", rows[i].stage, run.Spec.Name)
			}
			var sel, correct int64
			for _, c := range run.Comps {
				sel += c.Selected
				correct += c.Correct
			}
			if sel != run.C.Speculated || correct != run.C.SpecCorrect {
				t.Errorf("%s on %s: selections %d, %d correct; speculated %d, %d correct",
					rows[i].stage, run.Spec.Name, sel, correct, run.C.Speculated, run.C.SpecCorrect)
			}
		}
	}
}
