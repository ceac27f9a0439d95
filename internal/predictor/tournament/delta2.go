package tournament

import "capred/internal/predictor"

// Delta2Config configures the delta-delta (acceleration) component:
// per static load it tracks the first and second difference of the
// address stream and predicts addr + Δ + ΔΔ. On streams whose second
// difference is constant — quadratic index expressions, triangular
// loop nests, growing-record appends — the prediction is exact where a
// plain stride predictor re-trains on every step.
type Delta2Config struct {
	ConfMax       uint8
	ConfThreshold uint8
}

// DefaultDelta2Config mirrors the paper's 2-bit confidence counters.
func DefaultDelta2Config() Delta2Config {
	return Delta2Config{ConfMax: 3, ConfThreshold: 2}
}

// delta2State is the per-static-load state, one per load-buffer slot.
type delta2State struct {
	last uint32 // architectural last address
	have bool
	d1   int32 // last first-difference
	d2   int32 // last second-difference
	nd   uint8 // differences accumulated, saturating at 2 (warm-up)
	conf uint8

	// In-flight state, meaningful only while pending > 0.
	// specLast/specD1 are the address and first-difference of the most
	// recently predicted instance. The
	// closed-form catch-up (§5.2 generalized to second order) restores
	// them after a misprediction without waiting for the drain.
	specLast  uint32
	specD1    int32
	specValid bool
	pending   uint16
}

// Delta2 is the delta-delta (acceleration) component.
type Delta2 struct {
	cfg Delta2Config
	st  []delta2State
}

// NewDelta2 builds the delta-delta component.
func NewDelta2(cfg Delta2Config) *Delta2 {
	return &Delta2{cfg: cfg}
}

// ID identifies the component in Prediction.Selected.
func (d *Delta2) ID() predictor.Component { return predictor.CompDelta2 }

// Name returns the component's display name.
func (d *Delta2) Name() string { return "delta2" }

// Slots and Reset size and clear the per-load state (see predictor.Entrant).
func (d *Delta2) Slots(n int)    { d.st = make([]delta2State, n) }
func (d *Delta2) Reset(slot int) { d.st[slot] = delta2State{} }

func (d *Delta2) predictFrom(st *delta2State, last uint32, d1 int32, valid bool) predictor.ComponentPrediction {
	if !valid {
		return predictor.ComponentPrediction{}
	}
	return predictor.ComponentPrediction{
		Addr:      last + uint32(d1+st.d2),
		Predicted: true,
		Confident: st.conf >= d.cfg.ConfThreshold,
	}
}

// Predict computes the component's opinion and extrapolates the
// accelerating sequence across the pending window: each prediction
// advances the speculative first-difference by the architectural
// second-difference. With nothing in flight it reads the architectural
// state.
func (d *Delta2) Predict(slot int, ref predictor.LoadRef) predictor.ComponentPrediction {
	st := &d.st[slot]
	last, d1, valid := st.specLast, st.specD1, st.specValid
	if st.pending == 0 {
		last, d1, valid = st.last, st.d1, st.nd >= 2
	}
	cp := d.predictFrom(st, last, d1, valid)
	if cp.Predicted {
		d1 += st.d2
		last = cp.Addr
	}
	st.specLast, st.specD1, st.specValid = last, d1, valid
	st.pending++
	return cp
}

// Resolve verifies the opinion and updates the difference chain.
func (d *Delta2) Resolve(slot int, ref predictor.LoadRef, cp predictor.ComponentPrediction, _ predictor.Outcome, actual uint32) {
	st := &d.st[slot]
	if st.pending > 0 {
		st.pending--
	}
	correct := cp.Predicted && cp.Addr == actual
	if cp.Predicted {
		if correct {
			st.conf = satInc(st.conf, d.cfg.ConfMax)
		} else {
			st.conf = 0
		}
	}

	if st.have {
		nd1 := int32(actual - st.last)
		if st.nd == 0 {
			st.d1, st.nd = nd1, 1
		} else {
			st.d2 = nd1 - st.d1
			st.d1 = nd1
			st.nd = 2
		}
	}
	st.last = actual
	st.have = true

	if st.pending > 0 && (!correct || !st.specValid) {
		// Catch-up: extrapolate the quadratic over the pending
		// unresolved instances so the next prediction lands correctly
		// instead of waiting for the window to drain.
		if st.nd >= 2 {
			a, d1 := st.last, st.d1
			for i := uint16(0); i < st.pending; i++ {
				d1 += st.d2
				a += uint32(d1)
			}
			st.specLast, st.specD1, st.specValid = a, d1, true
		} else {
			st.specValid = false
		}
	}
}

// Squash undoes Predict's in-flight bookkeeping; like the stride
// component, the speculative chain is invalidated and re-established by
// catch-up at the next resolution.
func (d *Delta2) Squash(slot int) {
	st := &d.st[slot]
	if st.pending > 0 {
		st.pending--
	}
	st.specValid = false
}
