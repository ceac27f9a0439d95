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
	sess *predictor.Session
	gap  *pipeline.Gap // non-nil when operating under a prediction gap
	C    metrics.Counters
}

// NewStepper wraps p for step-wise driving. gapDepth 0 is the paper's
// immediate-update mode; a positive depth defers resolutions by that
// many dynamic loads (the predictor must then be built in speculative
// mode, as for RunTrace).
func NewStepper(p predictor.Predictor, gapDepth int) *Stepper {
	s := &Stepper{sess: predictor.NewSession(p)}
	if gapDepth > 0 {
		s.gap = pipeline.New(p, gapDepth)
	}
	return s
}

// Predictor returns the wrapped predictor instance. The serving layer
// and the tournament ablation use it to pull predictor-specific
// statistics (e.g. per-component selection counts) after — or, under
// the session lock, during — a run.
func (s *Stepper) Predictor() predictor.Predictor { return s.sess.Predictor() }

// Step processes one event.
func (s *Stepper) Step(ev trace.Event) {
	switch ev.Kind {
	case trace.KindBranch:
		s.sess.Branch(ev.Taken)
	case trace.KindCall:
		s.sess.Call(ev.IP)
	case trace.KindLoad:
		var pr predictor.Prediction
		if s.gap == nil {
			pr = s.sess.Load(ev.IP, ev.Offset, ev.Addr)
		} else {
			pr = s.gap.Process(s.sess.Ref(ev.IP, ev.Offset), ev.Addr)
		}
		s.C.Record(pr, ev.Addr)
	}
}

// StepBlock processes a struct-of-arrays block of events in order,
// reading only the columns each kind carries (the Block column
// contract). The gap-mode dispatch is hoisted out of the per-event
// path; each loop is the exact per-event sequence Step performs, so
// block and per-event driving stay bit-identical.
func (s *Stepper) StepBlock(b *trace.Block) {
	kt := b.KindTaken
	if s.gap == nil {
		for i, kb := range kt {
			switch trace.Kind(kb &^ trace.KindTakenBit) {
			case trace.KindBranch:
				s.sess.Branch(kb&trace.KindTakenBit != 0)
			case trace.KindCall:
				s.sess.Call(b.IP[i])
			case trace.KindLoad:
				addr := b.Addr[i]
				pr := s.sess.Load(b.IP[i], b.Offset[i], addr)
				s.C.Record(pr, addr)
			}
		}
		return
	}
	for i, kb := range kt {
		switch trace.Kind(kb &^ trace.KindTakenBit) {
		case trace.KindBranch:
			s.sess.Branch(kb&trace.KindTakenBit != 0)
		case trace.KindCall:
			s.sess.Call(b.IP[i])
		case trace.KindLoad:
			addr := b.Addr[i]
			pr := s.gap.Process(s.sess.Ref(b.IP[i], b.Offset[i]), addr)
			s.C.Record(pr, addr)
		}
	}
}

// Finish resolves the predictions still in flight inside the prediction
// gap; it is a no-op in immediate mode. Call it once, at clean end of
// stream, as RunTrace does.
func (s *Stepper) Finish() {
	if s.gap != nil {
		s.gap.Drain()
	}
}
