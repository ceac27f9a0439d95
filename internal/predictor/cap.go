package predictor

// CAPConfig configures the correlated context-based address predictor of
// §3. The default configuration reproduces the paper's baseline: 4K-entry
// 2-way load buffer, 4K-entry direct-mapped link table recording base
// addresses, history of four base addresses compressed with shift(m)-xor,
// 8-bit LT tags, 4-bit pollution-free field, per-path control-flow
// indications, and 8 offset LSBs kept in the LB.
type CAPConfig struct {
	LBEntries int
	LBWays    int
	LTEntries int
	LTWays    int // 1 = direct-mapped (the paper's default)

	// HistoryLen is the number of past base addresses the history should
	// retain; it determines the shift amount m of the shift(m)-xor scheme
	// given the history width (LT index bits + TagBits).
	HistoryLen int
	// TagBits is the number of extra history bits stored in each LT entry
	// and matched on lookup (§3.4, "LT tags"). Zero disables tagging.
	TagBits int
	// CF configures the control-flow indications mechanism.
	CF CFConfig
	// GlobalCorrelation enables the base-address scheme of §3.3: the LB
	// history and the LT record base addresses (effective address minus
	// the low OffsetBits of the instruction's immediate offset) so loads
	// walking the same data structure share links.
	GlobalCorrelation bool
	// OffsetBits is how many offset LSBs are kept in the LB (the paper
	// keeps 8, since recursive data structures are typically aligned and
	// under 256 bytes).
	OffsetBits int
	// PFBits is the width of the pollution-free field (§3.5); the paper
	// uses bits 2..5 of the updating base address, i.e. 4 bits. Zero
	// disables the mechanism.
	PFBits int
	// PFTableEntries, when non-zero, moves the PF bits out of the LT into
	// a separate direct-mapped table with this many entries, indexed with
	// the extended history (the [Mora98]-style variant of §3.5).
	PFTableEntries int

	ConfMax       uint8
	ConfThreshold uint8
}

// DefaultCAPConfig returns the paper's baseline CAP configuration (§4.2).
func DefaultCAPConfig() CAPConfig {
	return CAPConfig{
		LBEntries: 4096, LBWays: 2,
		LTEntries: 4096, LTWays: 1,
		HistoryLen:        4,
		TagBits:           8,
		CF:                CFConfig{Bits: 4, Table: true},
		GlobalCorrelation: true,
		OffsetBits:        8,
		PFBits:            4,
		PFTableEntries:    16384,
		ConfMax:           3,
		ConfThreshold:     2,
	}
}

// ltEntry is one link-table entry: the predicted next base address, the
// history tag, and the pollution-free field.
type ltEntry struct {
	link      uint32
	tag       uint16
	age       uint32
	linkValid bool
	pf        uint8
	pfValid   bool
}

// pfEntry is an external pollution-free-table entry.
type pfEntry struct {
	pf    uint8
	valid bool
}

// capState is the per-static-load CAP state, one per load-buffer slot.
type capState struct {
	hist uint32 // architectural history (shift-xor compressed)
	conf uint8
	cf   cfInd

	// In-flight state, meaningful only while pending > 0.
	specHist  uint32
	specValid bool
	pending   uint16
	poisoned  bool // misprediction in flight; suppress speculation (§5.2)
}

// CAPComponent is the CAP predictor at component granularity: the
// global link table plus per-load state in a slot-indexed array that
// its owner's load buffer indexes (see StrideComponent).
type CAPComponent struct {
	slots[capState]
	cfg     CAPConfig
	policy  UpdatePolicy // §4.3; NewHybrid sets it, UpdateAlways elsewhere
	lt      []ltEntry
	pfTab   []pfEntry
	ltSets  int
	shift   uint   // m of shift(m)-xor
	histMsk uint32 // history width mask (index bits + tag bits)
	idxBits uint
	tagMsk  uint32
	offMsk  uint32
	pfMsk   uint32
}

// NewCAPComponent builds the CAP component and its link table. Its
// owner sizes the per-load state with Slots before use.
func NewCAPComponent(cfg CAPConfig) *CAPComponent {
	checkPow2("LT entries", cfg.LTEntries)
	checkPow2("LT ways", cfg.LTWays)
	if cfg.LTWays > 1 && cfg.TagBits == 0 {
		panic("predictor: set-associative LT requires TagBits > 0")
	}
	if cfg.HistoryLen < 1 {
		panic("predictor: HistoryLen must be at least 1")
	}
	if cfg.TagBits > 16 {
		panic("predictor: TagBits must be at most 16")
	}
	ltSets := cfg.LTEntries / cfg.LTWays
	idxBits := log2(ltSets)
	histBits := idxBits + uint(cfg.TagBits)
	if histBits > 32 {
		panic("predictor: history wider than 32 bits")
	}
	// Choose the shift so that HistoryLen addresses fit in the history:
	// after HistoryLen updates an address has been shifted out.
	shift := (histBits + uint(cfg.HistoryLen) - 1) / uint(cfg.HistoryLen)
	if shift == 0 {
		shift = 1
	}
	c := &CAPComponent{
		cfg:     cfg,
		lt:      make([]ltEntry, cfg.LTEntries),
		ltSets:  ltSets,
		shift:   shift,
		idxBits: idxBits,
		histMsk: uint32(1)<<histBits - 1,
		tagMsk:  uint32(1)<<uint(cfg.TagBits) - 1,
		pfMsk:   uint32(1)<<uint(cfg.PFBits) - 1,
	}
	if histBits == 32 {
		c.histMsk = ^uint32(0)
	}
	if cfg.GlobalCorrelation {
		c.offMsk = uint32(1)<<uint(cfg.OffsetBits) - 1
	}
	if cfg.PFTableEntries > 0 {
		checkPow2("PF table entries", cfg.PFTableEntries)
		c.pfTab = make([]pfEntry, cfg.PFTableEntries)
	}
	return c
}

// Slots restarts the component over n load-buffer slots: the per-load
// state, the link table and the external PF table are cleared.
func (c *CAPComponent) Slots(n int) {
	c.slots.Slots(n)
	clear(c.lt)
	clear(c.pfTab)
}

// offLow extracts the offset LSBs recorded in the LB. With global
// correlation disabled the mask is zero, so base == effective address and
// the predictor degenerates to per-load full-address links.
func (c *CAPComponent) offLow(offset int32) uint32 {
	return uint32(offset) & c.offMsk
}

// base converts an effective address to the base address recorded in
// histories and links.
func (c *CAPComponent) base(addr uint32, offset int32) uint32 {
	return addr - c.offLow(offset)
}

// advance folds a base address into the history: shift left by m, xor with
// the address LSBs minus the two alignment bits, truncate (§3.2).
func (c *CAPComponent) advance(hist, base uint32) uint32 {
	return (hist<<c.shift ^ base>>2) & c.histMsk
}

func (c *CAPComponent) split(hist uint32) (idx int, tag uint16) {
	return int(hist & (uint32(c.ltSets) - 1)), uint16(hist >> c.idxBits & c.tagMsk)
}

// ltLookup finds the link for a history value. ok distinguishes "no link
// recorded" from a valid link; tagOK is the §3.4 tag confidence signal.
func (c *CAPComponent) ltLookup(hist uint32) (link uint32, ok, tagOK bool) {
	idx, tag := c.split(hist)
	base := idx * c.cfg.LTWays
	if c.cfg.LTWays == 1 {
		e := &c.lt[base]
		if !e.linkValid {
			return 0, false, false
		}
		return e.link, true, c.cfg.TagBits == 0 || e.tag == tag
	}
	for i := base; i < base+c.cfg.LTWays; i++ {
		e := &c.lt[i]
		if e.linkValid && e.tag == tag {
			return e.link, true, true
		}
	}
	return 0, false, false
}

// ltUpdate records hist → base, gated by the pollution-free mechanism:
// the link is written only when the same base attempted the same entry on
// the immediately preceding update (§3.5).
func (c *CAPComponent) ltUpdate(hist, base uint32) {
	idx, tag := c.split(hist)
	pfNew := uint8(base >> 2 & c.pfMsk)

	gate := true
	if c.cfg.PFBits > 0 {
		if c.pfTab != nil {
			pe := &c.pfTab[hist&uint32(len(c.pfTab)-1)]
			gate = pe.valid && pe.pf == pfNew
			pe.pf, pe.valid = pfNew, true
		} else {
			// In-LT PF bits: one field per direct-mapped entry (or per
			// set when associative; the first way carries it).
			pe := &c.lt[idx*c.cfg.LTWays]
			gate = pe.pfValid && pe.pf == pfNew
			pe.pf, pe.pfValid = pfNew, true
		}
	}
	if !gate {
		return
	}

	setBase := idx * c.cfg.LTWays
	if c.cfg.LTWays == 1 {
		e := &c.lt[setBase]
		e.link, e.tag, e.linkValid = base, tag, true
		return
	}
	victim := setBase
	for i := setBase; i < setBase+c.cfg.LTWays; i++ {
		e := &c.lt[i]
		if e.linkValid && e.tag == tag {
			victim = i
			break
		}
		if !e.linkValid {
			victim = i
		} else if c.lt[victim].linkValid && e.age > c.lt[victim].age {
			victim = i
		}
	}
	for i := setBase; i < setBase+c.cfg.LTWays; i++ {
		c.lt[i].age++
	}
	e := &c.lt[victim]
	e.link, e.tag, e.linkValid, e.age = base, tag, true, 0
}

// ID identifies the component in Prediction.Selected.
func (c *CAPComponent) ID() Component { return CompCAP }

// Name returns the component's display name.
func (c *CAPComponent) Name() string { return "cap" }

// Predict computes the CAP opinion for the load in slot and advances
// the speculative history. With nothing in flight it reads the
// architectural history, so Predict followed at once by Resolve is the
// paper's immediate update.
func (c *CAPComponent) Predict(slot int, ref LoadRef) ComponentPrediction {
	cs := &c.st[slot]
	hist, valid := cs.specHist, cs.specValid
	if cs.pending == 0 {
		hist, valid = cs.hist, true
	}
	cp := c.predictFrom(cs, hist, valid, ref)
	// Without a predicted address the next instance's history is unknown
	// until resolution (§5.2: CAP has no catch-up mechanism).
	cs.specValid = cp.Predicted
	if cp.Predicted {
		cs.specHist = c.advance(hist, c.base(cp.Addr, ref.Offset))
	}
	if cs.poisoned {
		cp.Confident = false
	}
	cs.pending++
	return cp
}

func (c *CAPComponent) predictFrom(cs *capState, hist uint32, histValid bool, ref LoadRef) ComponentPrediction {
	if !histValid {
		return ComponentPrediction{}
	}
	link, ok, tagOK := c.ltLookup(hist)
	if !ok {
		return ComponentPrediction{}
	}
	addr := link + c.offLow(ref.Offset)
	confident := cs.conf >= c.cfg.ConfThreshold &&
		tagOK &&
		cs.cf.allow(c.cfg.CF, ref.GHR)
	return ComponentPrediction{Addr: addr, Predicted: true, Confident: confident}
}

// Resolve verifies the component's opinion and updates history,
// confidence and the link table, the last gated by the §4.3 update
// policy.
func (c *CAPComponent) Resolve(slot int, ref LoadRef, cp ComponentPrediction, o Outcome, actual uint32) {
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
		cs.cf.record(c.cfg.CF, ref.GHR, correct, o.Speculated(CompCAP))
	}

	if c.updatesLT(o) {
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

// updatesLT applies the §4.3 link-table update policy to a resolved
// load. Only the hybrid sets a policy other than UpdateAlways, since the
// others need the stride component's outcome.
func (c *CAPComponent) updatesLT(o Outcome) bool {
	switch c.policy {
	case UpdateUnlessStrideCorrect:
		return !o.CorrectBy(CompStride)
	case UpdateUnlessStrideSelected:
		return !(o.CorrectBy(CompStride) && o.Speculated(CompStride))
	}
	return true
}

// Squash undoes Predict's in-flight bookkeeping for a flushed prediction
// (§5.4 wrong-path recovery). The speculative history cannot be rewound
// (shift-xor is lossy), so it is invalidated until the pending window
// drains, after which Predict reads the architectural history again —
// untouched, which is exactly the history-buffer recovery property §5.4
// asks for.
func (c *CAPComponent) Squash(slot int) {
	cs := &c.st[slot]
	if cs.pending > 0 {
		cs.pending--
	}
	cs.specValid = false
	if cs.pending == 0 {
		cs.poisoned = false
	}
}

// CAP is the stand-alone correlated context-based address predictor:
// the component under its own load buffer, plus PredictAhead.
type CAP struct {
	Solo[*CAPComponent]
}

// NewCAP builds a CAP predictor.
func NewCAP(cfg CAPConfig) *CAP {
	return &CAP{newSolo(NewCAPComponent(cfg), cfg.LBEntries, cfg.LBWays)}
}

// New builds a stand-alone CAP predictor of c.
func (c CAPConfig) New() Predictor { return NewCAP(c) }

// PredictAhead follows the link-table chain n steps from the load's
// current history, returning up to n predicted future addresses for the
// same static load. This is the §5.4 mechanism for predicting "multiple
// addresses ahead ... similar in concept to the two-block ahead branch
// predictor" [Sezn96]: each predicted base address is folded into a
// scratch history to look up the next link. The chain stops early at the
// first missing or tag-mismatching link. While instances of the load are
// in flight the chain starts from the speculative history. PredictAhead
// never mutates predictor state.
func (c *CAP) PredictAhead(ref LoadRef, n int) []uint32 {
	comp := c.comp
	slot, ok := c.lb.Lookup(ref.IP)
	if !ok {
		return nil
	}
	cs := &comp.st[slot]
	hist := cs.hist
	if cs.pending > 0 && cs.specValid {
		hist = cs.specHist
	}
	out := make([]uint32, 0, n)
	for i := 0; i < n; i++ {
		link, ok, tagOK := comp.ltLookup(hist)
		if !ok || !tagOK {
			break
		}
		out = append(out, link+comp.offLow(ref.Offset))
		hist = comp.advance(hist, link)
	}
	return out
}
