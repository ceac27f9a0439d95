package predictor

// UpdatePolicy selects when the hybrid predictor updates the link table
// (§4.3). The paper finds UpdateAlways slightly better on almost all
// traces because of unstable stride-like sequences.
type UpdatePolicy uint8

// Link-table update policies of §4.3.
const (
	// UpdateAlways updates the LT on every load resolution.
	UpdateAlways UpdatePolicy = iota
	// UpdateUnlessStrideCorrect skips the LT update when the stride
	// component predicted the load correctly.
	UpdateUnlessStrideCorrect
	// UpdateUnlessStrideSelected skips the LT update when the stride
	// component predicted correctly and its prediction was the one
	// selected for the speculative access.
	UpdateUnlessStrideSelected
)

// String names the policy.
func (u UpdatePolicy) String() string {
	switch u {
	case UpdateAlways:
		return "always"
	case UpdateUnlessStrideCorrect:
		return "unless-stride-correct"
	case UpdateUnlessStrideSelected:
		return "unless-stride-selected"
	default:
		return "invalid"
	}
}

// Selector counter states (2-bit, §3.7). The counter is initially biased
// towards weak CAP selection since CAP's base misprediction rate is lower.
const (
	SelStrongStride uint8 = iota
	SelWeakStride
	SelWeakCAP
	SelStrongCAP
)

// SelStateName returns a display name for a hybrid selector state.
func SelStateName(s uint8) string {
	return SelStateNameBetween(CompStride, CompCAP, s)
}

// SelStateNameBetween names a 2-bit selector state arbitrating lo (low
// counter values prefer it) against hi. The names come from the
// components' own name table rather than a closed stride/cap switch, so
// any tournament pairing renders correctly in breakdowns.
func SelStateNameBetween(lo, hi Component, s uint8) string {
	switch s {
	case SelStrongStride:
		return "strong-" + lo.String()
	case SelWeakStride:
		return "weak-" + lo.String()
	case SelWeakCAP:
		return "weak-" + hi.String()
	case SelStrongCAP:
		return "strong-" + hi.String()
	default:
		return "invalid"
	}
}

// HybridConfig configures the hybrid CAP/stride predictor of §3.7. The
// load buffer is shared: its geometry is CAP.LBEntries/LBWays, each
// entry holds the selector counter, and its slot indexes both
// components' state.
type HybridConfig struct {
	Stride StrideConfig // Entries/Ways are taken from CAP.LBEntries/LBWays
	CAP    CAPConfig
	// StaticSelector, when not CompNone, always prefers that component
	// when both are confident instead of using the dynamic counter.
	StaticSelector Component
	UpdatePolicy   UpdatePolicy

	// Deprecated: ignored. The prediction gap the predictor is driven
	// under is the only input that picks the resolution discipline.
	Speculative bool
}

// DefaultHybridConfig returns the paper's baseline hybrid configuration.
func DefaultHybridConfig() HybridConfig {
	return HybridConfig{
		Stride:       DefaultStrideConfig(),
		CAP:          DefaultCAPConfig(),
		UpdatePolicy: UpdateAlways,
	}
}

// Hybrid is the hybrid CAP/stride predictor: both components predict every
// dynamic load out of a shared load buffer; a speculative access is
// launched when at least one component is confident, with a per-entry
// 2-bit counter selecting between them when both are. The LB entry
// holds the selector; the components keep their state under its slot.
type Hybrid struct {
	cfg    HybridConfig
	stride *StrideComponent
	cap    *CAPComponent
	lb     *LBTable[uint8]
}

// NewHybrid builds a hybrid predictor.
func NewHybrid(cfg HybridConfig) *Hybrid {
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

// Predict implements Predictor. The LB entry is allocated at prediction
// time so that in-flight instance counts are exact under a prediction
// gap.
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
	h.stride.Resolve(slot, ref, p.Stride, spec && p.Selected == CompStride, actual)
	h.cap.resolve(slot, ref, p.CAP, spec && p.Selected == CompCAP, actual, updateLT)
}

// Squash implements Squasher: both components drop the flushed in-flight
// prediction (§5.4 wrong-path recovery).
func (h *Hybrid) Squash(ref LoadRef, p Prediction) {
	if slot, ok := h.lb.Lookup(ref.IP); ok {
		h.stride.Squash(slot)
		h.cap.Squash(slot)
	}
}
