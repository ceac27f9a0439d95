package predictor

// Hybrid is the frozen reference of the paper's hybrid (§3.7): the
// hand-written two-way selector that NewHybrid's chooser replaced. It
// is kept only as the oracle of the differential tests in
// hybrid_diff_test.go, which hold NewHybrid to it field for field. Both
// sides share the stride and CAP component code; the selector, the
// static-selector ablation and the §4.3 link-table update gating are
// this file's own.
type Hybrid struct {
	cfg    HybridConfig
	stride *StrideComponent
	cap    *CAPComponent
	lb     *LBTable[uint8]
}

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

	p := Prediction{Stride: scp, CAP: ccp, SelState: *sel}
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

	strideCorrect := p.Stride.Predicted && p.Stride.Addr == actual
	capCorrect := p.CAP.Predicted && p.CAP.Addr == actual

	// Selector counters record the relative performance of the two
	// components, updated after address verification (§3.7).
	if p.Stride.Predicted && p.CAP.Predicted {
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
	h.stride.Resolve(slot, ref, p.Stride, newOutcome(p.Selected, spec), actual)
	resolveCAPGated(h.cap, slot, ref, p.CAP, spec && p.Selected == CompCAP, actual, updateLT)
}

// Squash implements Squasher: both components drop the flushed in-flight
// prediction (§5.4 wrong-path recovery).
func (h *Hybrid) Squash(ref LoadRef, p Prediction) {
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
