package predictor

// Hybrid is the frozen reference of the paper's hybrid (§3.7): the
// hand-written two-way selector that NewHybrid's chooser replaced. It
// is kept only as the oracle of the differential tests in
// hybrid_diff_test.go, which hold NewHybrid to it field for field. Both
// sides share the stride and CAP component code; the selector, the
// static-selector ablation, the §4.3 link-table update gating and the
// Fig. 8 tally are this file's own.
type Hybrid struct {
	cfg    HybridConfig
	stride *StrideComponent
	cap    *CAPComponent
	lb     *LBTable[uint8]

	flight []Opinions // in-flight loads' opinions, oldest first
	sel    SelectorStats
}

// Opinions is one load's stride and CAP opinions and the selector state
// they were made under: the per-load detail the differential tests
// compare beyond Prediction.
type Opinions struct {
	Stride, CAP ComponentPrediction
	SelState    uint8
}

// NewestOpinions returns the opinions of the youngest in-flight load.
func (h *Hybrid) NewestOpinions() Opinions { return h.flight[len(h.flight)-1] }

// NewestOpinions returns the stride and CAP opinions and the selector
// state of the youngest in-flight load, read from the in-flight ring.
// The tournament must have a stride and a CAP entrant.
func (t *Tournament) NewestOpinions() Opinions {
	f := &t.ring[(t.head+t.n-1)&(len(t.ring)-1)]
	return Opinions{Stride: f.ops[t.stride], CAP: f.ops[t.cap], SelState: f.sel}
}

// SelectorStats returns the reference's Fig. 8 ledger.
func (h *Hybrid) SelectorStats() SelectorStats { return h.sel }

// NewReferenceHybrid builds the frozen reference hybrid.
func NewReferenceHybrid(cfg HybridConfig) *Hybrid {
	h := &Hybrid{
		cfg:    cfg,
		stride: NewStrideComponent(cfg.Stride),
		cap:    NewCAPComponent(cfg.CAP),
		lb:     NewLBTable[uint8](cfg.CAP.LBEntries, cfg.CAP.LBWays),
	}
	h.stride.Slots(h.lb.Entries())
	h.cap.Slots(h.lb.Entries())
	return h
}

// Name implements Predictor.
func (h *Hybrid) Name() string { return "hybrid" }

// slot probes the shared LB for ip. A newly allocated entry starts with
// both components reset and the selector at its §4.2 initial bias
// towards weak CAP.
func (h *Hybrid) slot(ip uint32) (int, *uint8) {
	slot, existed := h.lb.Insert(ip)
	sel := h.lb.At(slot)
	if !existed {
		*sel = SelWeakCAP
		h.stride.Reset(slot)
		h.cap.Reset(slot)
	}
	return slot, sel
}

// Predict implements Predictor.
func (h *Hybrid) Predict(ref LoadRef) Prediction {
	slot, sel := h.slot(ref.IP)
	scp := h.stride.Predict(slot, ref)
	ccp := h.cap.Predict(slot, ref)

	h.flight = append(h.flight, Opinions{Stride: scp, CAP: ccp, SelState: *sel})
	var p Prediction
	switch {
	case scp.Confident && ccp.Confident:
		if h.selectCAP(*sel) {
			p.Addr, p.Selected = ccp.Addr, CompCAP
		} else {
			p.Addr, p.Selected = scp.Addr, CompStride
		}
		p.Predicted, p.Speculate = true, true
	case ccp.Confident:
		p.Addr, p.Selected = ccp.Addr, CompCAP
		p.Predicted, p.Speculate = true, true
	case scp.Confident:
		p.Addr, p.Selected = scp.Addr, CompStride
		p.Predicted, p.Speculate = true, true
	case ccp.Predicted:
		p.Addr, p.Selected, p.Predicted = ccp.Addr, CompCAP, true
	case scp.Predicted:
		p.Addr, p.Selected, p.Predicted = scp.Addr, CompStride, true
	}
	return p
}

func (h *Hybrid) selectCAP(sel uint8) bool {
	if h.cfg.StaticSelector != CompNone {
		return h.cfg.StaticSelector == CompCAP
	}
	return sel >= SelWeakCAP
}

// Resolve implements Predictor.
func (h *Hybrid) Resolve(ref LoadRef, p Prediction, actual uint32) {
	slot, sel := h.slot(ref.IP)
	op := h.flight[0]
	h.flight = h.flight[1:]
	h.tally(op, p, actual)

	strideCorrect := op.Stride.Predicted && op.Stride.Addr == actual
	capCorrect := op.CAP.Predicted && op.CAP.Addr == actual

	// Selector counters record the relative performance of the two
	// components, updated after address verification (§3.7).
	if op.Stride.Predicted && op.CAP.Predicted {
		switch {
		case capCorrect && !strideCorrect:
			*sel = satInc(*sel, SelStrongCAP)
		case strideCorrect && !capCorrect:
			*sel = satDec(*sel)
		}
	}

	updateLT := true
	switch h.cfg.UpdatePolicy {
	case UpdateUnlessStrideCorrect:
		updateLT = !strideCorrect
	case UpdateUnlessStrideSelected:
		updateLT = !(strideCorrect && p.Speculate && p.Selected == CompStride)
	}

	spec := p.Speculate
	h.stride.Resolve(slot, ref, op.Stride, newOutcome(p.Selected, spec), actual)
	resolveCAPGated(h.cap, slot, ref, op.CAP, spec && p.Selected == CompCAP, actual, updateLT)
}

// tally is the frozen Fig. 8 rule that metrics.Counters.Record applied
// to every load before the ledger moved into the chooser: over loads
// where both components were confident, count the load, file it under
// its selector state (when that is a 2-bit state) and count a wrong
// speculative access the other component had right as a mis-selection.
func (h *Hybrid) tally(op Opinions, p Prediction, actual uint32) {
	if op.Stride.Confident && op.CAP.Confident {
		h.sel.DualConfident++
		if int(op.SelState) < len(h.sel.States) {
			h.sel.States[op.SelState]++
		}
		if p.Speculate && p.Addr != actual {
			other := op.Stride
			if p.Selected == CompStride {
				other = op.CAP
			}
			if other.Addr == actual {
				h.sel.MisSelected++
			}
		}
	}
}

// Squash implements Squasher: both components drop the flushed in-flight
// prediction (§5.4 wrong-path recovery).
func (h *Hybrid) Squash(ref LoadRef, p Prediction) {
	h.flight = h.flight[:len(h.flight)-1]
	if slot, ok := h.lb.Lookup(ref.IP); ok {
		h.stride.Squash(slot)
		h.cap.Squash(slot)
	}
}

// resolveCAPGated is the frozen CAP resolution the reference drives,
// with the link-table update gated by the reference's own §4.3 policy
// decision rather than by CAPComponent.Resolve's.
func resolveCAPGated(c *CAPComponent, slot int, ref LoadRef, cp ComponentPrediction, speculated bool, actual uint32, updateLT bool) {
	cs := &c.st[slot]
	if cs.pending > 0 {
		cs.pending--
	}
	base := c.base(actual, ref.Offset)
	correct := cp.Predicted && cp.Addr == actual

	if cp.Predicted {
		if correct {
			cs.conf = satInc(cs.conf, c.cfg.ConfMax)
		} else {
			cs.conf = 0
		}
		cs.cf.record(c.cfg.CF, ref.GHR, correct, speculated)
	}

	if updateLT {
		c.ltUpdate(cs.hist, base)
	}
	cs.hist = c.advance(cs.hist, base)

	if cp.Predicted && !correct {
		cs.poisoned = true
		cs.specValid = false
	}
	if cs.pending == 0 {
		cs.poisoned = false
	}
}
