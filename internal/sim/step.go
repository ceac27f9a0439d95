package sim

import (
	"capred/internal/metrics"
	"capred/internal/pipeline"
	"capred/internal/predictor"
	"capred/internal/trace"
)

// Stepper drives one predictor over an externally-supplied event stream
// with exactly RunTrace's semantics: history-register maintenance,
// prediction, resolution and counter recording per event. RunTrace
// itself steps through here, so a consumer that feeds a Stepper the same
// events — the serving path, which receives them over the network —
// accumulates bit-identical counters by construction rather than by
// parallel-implementation discipline.
type Stepper struct {
	p    predictor.Predictor
	gap  *pipeline.Gap
	ghr  predictor.GHR
	path predictor.PathHist
	C    metrics.Counters
}

// NewStepper wraps p for step-wise driving. Every load goes through a
// prediction gap of gapDepth dynamic loads; depth 0 resolves each
// prediction at once, the paper's immediate update.
func NewStepper(p predictor.Predictor, gapDepth int) *Stepper {
	return &Stepper{p: p, gap: pipeline.New(p, gapDepth)}
}

// Predictor returns the wrapped predictor instance. The serving layer
// uses it to pull predictor-specific statistics (e.g. per-component
// selection counts) after — or, under the session lock, during — a run.
func (s *Stepper) Predictor() predictor.Predictor { return s.p }

// load predicts one dynamic load under the current history registers,
// schedules its resolution through the gap, and records the prediction.
func (s *Stepper) load(ip uint32, offset int32, addr uint32) {
	ref := predictor.LoadRef{IP: ip, Offset: offset, GHR: s.ghr.Value(), Path: s.path.Value()}
	s.C.Record(s.gap.Process(ref, addr), addr)
}

// Step processes one event.
func (s *Stepper) Step(ev trace.Event) {
	switch ev.Kind {
	case trace.KindBranch:
		s.ghr.Update(ev.Taken)
	case trace.KindCall:
		s.path.Push(ev.IP)
	case trace.KindLoad:
		s.load(ev.IP, ev.Offset, ev.Addr)
	}
}

// StepBlock processes a struct-of-arrays block of events in order,
// reading only the columns each kind carries (the Block column
// contract). It performs exactly the per-event sequence Step does, so
// block and per-event driving stay bit-identical.
func (s *Stepper) StepBlock(b *trace.Block) {
	for i, kb := range b.KindTaken {
		switch trace.Kind(kb &^ trace.KindTakenBit) {
		case trace.KindBranch:
			s.ghr.Update(kb&trace.KindTakenBit != 0)
		case trace.KindCall:
			s.path.Push(b.IP[i])
		case trace.KindLoad:
			s.load(b.IP[i], b.Offset[i], b.Addr[i])
		}
	}
}

// Finish resolves the predictions still in flight inside the prediction
// gap (none at depth 0). Call it once, at clean end of stream, as
// RunTrace does.
func (s *Stepper) Finish() { s.gap.Drain() }
