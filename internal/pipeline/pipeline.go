// Package pipeline models the predict-to-update delay of a real pipelined
// processor (§5 of the paper). In a pipelined machine a load-address
// prediction is verified only a "prediction gap" later; in the meantime
// further predictions — including for the same static load — are made from
// speculative predictor state.
//
// Gap wraps a Predictor and defers every resolution by a fixed number of
// dynamic loads, which stands in for the pipeline stages between the
// front-end prediction and the memory-ordering-buffer verification.
package pipeline

import (
	"capred/internal/predictor"
)

// Gap drives a predictor with a fixed prediction-to-resolution distance,
// measured in dynamic loads. Depth 0 degenerates to immediate update.
type Gap struct {
	p     predictor.Predictor
	depth int
	q     []slot
	head  int
	used  int
}

type slot struct {
	ref    predictor.LoadRef
	pred   predictor.Prediction
	actual uint32
}

// New wraps p with a prediction gap of the given depth (≥ 0). Any
// predictor works at any depth: depth 0 resolves each prediction at
// once, the paper's immediate update.
func New(p predictor.Predictor, depth int) *Gap {
	if depth < 0 {
		panic("pipeline: negative gap depth")
	}
	g := &Gap{p: p, depth: depth}
	if depth > 0 {
		g.q = make([]slot, depth)
	}
	return g
}

// Depth returns the configured prediction gap.
func (g *Gap) Depth() int { return g.depth }

// Process predicts the load and schedules its resolution (with the actual
// effective address, known to the trace driver) for `depth` loads later.
// It returns the prediction made now; its verification happens inside a
// later Process or Drain call.
func (g *Gap) Process(ref predictor.LoadRef, actual uint32) predictor.Prediction {
	if g.depth == 0 {
		p := g.p.Predict(ref)
		g.p.Resolve(ref, p, actual)
		return p
	}
	if g.used == g.depth {
		s := &g.q[g.head]
		g.p.Resolve(s.ref, s.pred, s.actual)
		g.used--
		g.head = (g.head + 1) % g.depth
	}
	p := g.p.Predict(ref)
	tail := (g.head + g.used) % g.depth
	g.q[tail] = slot{ref: ref, pred: p, actual: actual}
	g.used++
	return p
}

// Drain resolves every pending prediction, e.g. at the end of a trace.
func (g *Gap) Drain() {
	for g.used > 0 {
		s := &g.q[g.head]
		g.p.Resolve(s.ref, s.pred, s.actual)
		g.used--
		g.head = (g.head + 1) % g.depth
	}
}

// Pending returns the number of unresolved predictions in flight.
func (g *Gap) Pending() int { return g.used }

// SquashNewest flushes the n most recently made predictions without
// resolving them, as a branch-misprediction recovery does to wrong-path
// loads (§5.4). Predictors implementing predictor.Squasher get their
// in-flight bookkeeping repaired; for others the predictions are simply
// dropped. It returns how many predictions were flushed.
func (g *Gap) SquashNewest(n int) int {
	if g.depth == 0 {
		return 0 // immediate mode has nothing in flight
	}
	sq, _ := g.p.(predictor.Squasher)
	flushed := 0
	for flushed < n && g.used > 0 {
		tail := (g.head + g.used - 1) % g.depth
		s := &g.q[tail]
		if sq != nil {
			sq.Squash(s.ref, s.pred)
		}
		g.used--
		flushed++
	}
	return flushed
}
