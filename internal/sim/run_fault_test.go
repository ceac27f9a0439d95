package sim

// The Finish-on-error contract: a run ending on a source error must
// still drain the prediction gap, so the partial counters AND the
// predictor's table state match a clean run truncated at the same
// event. Before the fix, RunTraceContext returned early on source error
// and left gapDepth resolutions unapplied — invisible in that run's own
// counters (they are recorded at predict time) but a silent divergence
// in any predictor state the caller keeps using.

import (
	"errors"
	"testing"

	"capred/internal/metrics"
	"capred/internal/predictor"
	"capred/internal/trace"
	"capred/internal/workload"
)

func TestRunTraceDrainsGapOnSourceError(t *testing.T) {
	spec, ok := workload.ByName("INT_go")
	if !ok {
		t.Fatal("INT_go missing from roster")
	}
	const faultAt = 10_000
	for _, gap := range []int{0, 4} {
		mk := func() predictor.Predictor {
			return predictor.NewHybrid(predictor.DefaultHybridConfig())
		}

		// Faulted run: the stream dies after faultAt events.
		faulted := mk()
		cFault, err := RunTrace(
			trace.NewFailAfter(trace.NewLimit(spec.Open(), 50_000), faultAt, nil),
			faulted, gap)
		if !errors.Is(err, trace.ErrInjected) {
			t.Fatalf("gap %d: err = %v, want wrapped ErrInjected", gap, err)
		}

		// Reference: a clean run over exactly the same faultAt events.
		clean := mk()
		cClean, err := RunTrace(trace.NewLimit(spec.Open(), faultAt), clean, gap)
		if err != nil {
			t.Fatalf("gap %d: clean reference run: %v", gap, err)
		}

		if cFault != cClean {
			t.Fatalf("gap %d: partial counters diverge from a clean run over the same events:\nfaulted %+v\nclean   %+v",
				gap, cFault, cClean)
		}

		// The stronger half of the contract: both predictors must now be in
		// identical table state. Drive each over the same continuation
		// stream — if the faulted run skipped the gap drain, its tables lag
		// gapDepth resolutions behind and the counters split.
		continuation := func(p predictor.Predictor) metrics.Counters {
			st := NewStepper(p, gap)
			err := forEachBlock(nil, trace.NewLimit(spec.Open(), 20_000), st.StepBlock)
			if err != nil {
				t.Fatalf("gap %d: continuation: %v", gap, err)
			}
			st.Finish()
			return st.C
		}
		if a, b := continuation(faulted), continuation(clean); a != b {
			t.Fatalf("gap %d: predictor state diverged after the fault path: the gap was not drained\nfaulted-then-continued %+v\nclean-then-continued   %+v",
				gap, a, b)
		}
	}
}
