package predictor

// Solo is a stand-alone predictor: one entrant under its own load
// buffer, reporting the entrant's opinion as the prediction ("on a LB
// hit, a load-address prediction is always performed", §3). It keeps
// the Tournament's owner contract: the LB entry is allocated at
// prediction, so in-flight instance counts are exact under a prediction
// gap, and a newly allocated slot is reset before use. Last and Stride
// are Solo instances; CAP embeds one. It implements Predictor,
// Squasher and Resetter.
type Solo[E Entrant] struct {
	comp E
	id   Component // comp.ID(), kept off the per-load path
	lb   *LBTable[struct{}]
}

// newSolo puts comp under a load buffer of the given geometry.
func newSolo[E Entrant](comp E, entries, ways int) Solo[E] {
	s := Solo[E]{comp: comp, id: comp.ID(), lb: NewLBTable[struct{}](entries, ways)}
	comp.Slots(s.lb.Entries())
	return s
}

// slot probes the load buffer for ip, resetting the entrant's state in
// a newly allocated slot.
func (s *Solo[E]) slot(ip uint32) int {
	slot, existed := s.lb.Insert(ip)
	if !existed {
		s.comp.Reset(slot)
	}
	return slot
}

// Name implements Predictor.
func (s *Solo[E]) Name() string { return s.comp.Name() }

// Predict implements Predictor. Like the tournament, it names the
// entrant in Selected only when the entrant produced an address.
func (s *Solo[E]) Predict(ref LoadRef) Prediction {
	cp := s.comp.Predict(s.slot(ref.IP), ref)
	p := Prediction{Addr: cp.Addr, Predicted: cp.Predicted, Speculate: cp.Confident}
	if cp.Predicted {
		p.Selected = s.id
	}
	return p
}

// Resolve implements Predictor. The entrant gets back the opinion p
// reports, and the outcome of a chooser whose one entrant is always the
// selected one.
func (s *Solo[E]) Resolve(ref LoadRef, p Prediction, actual uint32) {
	o := newOutcome(s.id, p.Speculate)
	if p.Correct(actual) {
		o = o.withCorrect(s.id)
	}
	cp := ComponentPrediction{Addr: p.Addr, Predicted: p.Predicted, Confident: p.Speculate}
	s.comp.Resolve(s.slot(ref.IP), ref, cp, o, actual)
}

// Reset implements Resetter: the load buffer is emptied and the
// entrant restarted over it.
func (s *Solo[E]) Reset() {
	s.lb.Clear()
	s.comp.Slots(s.lb.Entries())
}

// Squash implements Squasher: the prediction was made on a wrong path
// and will never resolve. If the load's entry has been evicted since
// Predict, its in-flight state went with it.
func (s *Solo[E]) Squash(ref LoadRef, p Prediction) {
	if slot, ok := s.lb.Lookup(ref.IP); ok {
		s.comp.Squash(slot)
	}
}
