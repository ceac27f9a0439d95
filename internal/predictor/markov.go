package predictor

// MarkovConfig configures the Markov-N stride-history component: each
// static load keeps a shift(m)-xor-compressed history of its last
// HistLen strides, and the history indexes a shared tagged table of
// next strides. Where the plain stride predictor locks onto one
// repeating delta, the Markov component learns short repeating stride
// *patterns* — the +8,+8,+120 walk of an array-of-structs traversal,
// or the alternating deltas of a ping-pong buffer.
type MarkovConfig struct {
	// TableEntries sizes the shared stride-history → next-stride table.
	TableEntries int
	// TagBits is the number of extra history bits stored per table
	// entry and matched on lookup; zero disables tagging.
	TagBits int
	// HistLen is the number of strides the history retains; it fixes
	// the shift amount of the shift(m)-xor compression exactly as CAP's
	// HistoryLen does (§3.2).
	HistLen       int
	ConfMax       uint8
	ConfThreshold uint8
}

// DefaultMarkovConfig is the last-3-strides predictor at the paper's
// table budget.
func DefaultMarkovConfig() MarkovConfig {
	return MarkovConfig{
		TableEntries: 4096, TagBits: 8,
		HistLen: 3,
		ConfMax: 3, ConfThreshold: 2,
	}
}

// markovState is the per-static-load state, one per load-buffer slot.
type markovState struct {
	last uint32 // architectural last address
	have bool
	nstr uint8  // strides accumulated, saturating at HistLen (warm-up)
	hist uint32 // compressed architectural stride history
	conf uint8

	// In-flight state, meaningful only while pending > 0: the Markov
	// chain can be walked ahead — each predicted stride is folded into
	// a speculative history, CAP-style. A misprediction poisons the
	// chain until the pending window drains (§5.2 discipline; no
	// catch-up, because the wrong stride corrupted the compressed
	// history).
	specLast  uint32
	specHist  uint32
	specValid bool
	pending   uint16
	poisoned  bool
}

// markovEntry is one shared-table entry: history(+tag) → next stride.
type markovEntry struct {
	stride int32
	tag    uint16
	valid  bool
}

// Markov is the Markov-N stride-history component, the tournament
// entrant beyond the paper's pair: it learns the short repeating stride
// patterns that neither stride nor CAP captures.
type Markov struct {
	slots[markovState]
	cfg     MarkovConfig
	tab     []markovEntry
	shift   uint
	histMsk uint32
	idxBits uint
	tagMsk  uint32
}

// NewMarkov builds the Markov component.
func NewMarkov(cfg MarkovConfig) *Markov {
	checkPow2("Markov table entries", cfg.TableEntries)
	if cfg.HistLen < 1 {
		panic("predictor: Markov HistLen must be at least 1")
	}
	if cfg.TagBits > 16 {
		panic("predictor: Markov TagBits must be at most 16")
	}
	idxBits := log2(cfg.TableEntries)
	histBits := idxBits + uint(cfg.TagBits)
	if histBits > 32 {
		panic("predictor: Markov history wider than 32 bits")
	}
	shift := (histBits + uint(cfg.HistLen) - 1) / uint(cfg.HistLen)
	if shift == 0 {
		shift = 1
	}
	m := &Markov{
		cfg:     cfg,
		tab:     make([]markovEntry, cfg.TableEntries),
		shift:   shift,
		idxBits: idxBits,
		histMsk: uint32(1)<<histBits - 1,
		tagMsk:  uint32(1)<<uint(cfg.TagBits) - 1,
	}
	if histBits == 32 {
		m.histMsk = ^uint32(0)
	}
	return m
}

// Slots restarts the component over n load-buffer slots: the per-load
// state and the shared stride table are cleared.
func (m *Markov) Slots(n int) {
	m.slots.Slots(n)
	clear(m.tab)
}

// ID identifies the component in Prediction.Selected.
func (m *Markov) ID() Component { return CompMarkov }

// Name returns the component's display name.
func (m *Markov) Name() string { return "markov" }

// advance folds a stride into the compressed history (§3.2 shift-xor,
// with the two alignment bits dropped as for base addresses).
func (m *Markov) advance(hist uint32, stride int32) uint32 {
	return (hist<<m.shift ^ uint32(stride)>>2) & m.histMsk
}

func (m *Markov) split(hist uint32) (idx int, tag uint16) {
	return int(hist & (uint32(len(m.tab)) - 1)), uint16(hist >> m.idxBits & uint32(m.tagMsk))
}

func (m *Markov) warm(st *markovState) bool {
	return st.have && st.nstr >= uint8(m.cfg.HistLen)
}

func (m *Markov) predictFrom(st *markovState, last, hist uint32, valid bool) ComponentPrediction {
	if !valid {
		return ComponentPrediction{}
	}
	idx, tag := m.split(hist)
	e := &m.tab[idx]
	if !e.valid || (m.cfg.TagBits > 0 && e.tag != tag) {
		return ComponentPrediction{}
	}
	return ComponentPrediction{
		Addr:      last + uint32(e.stride),
		Predicted: true,
		Confident: st.conf >= m.cfg.ConfThreshold,
	}
}

// Predict computes the component's opinion and folds the predicted
// stride into the speculative history, so the chain is walked ahead of
// resolution. With nothing in flight it reads the architectural state.
func (m *Markov) Predict(slot int, ref LoadRef) ComponentPrediction {
	st := &m.st[slot]
	last, hist, valid := st.specLast, st.specHist, st.specValid
	if st.pending == 0 {
		last, hist, valid = st.last, st.hist, m.warm(st)
	}
	cp := m.predictFrom(st, last, hist, valid)
	st.specValid = cp.Predicted
	if cp.Predicted {
		st.specHist = m.advance(hist, int32(cp.Addr-last))
		st.specLast = cp.Addr
	}
	if st.poisoned {
		cp.Confident = false
	}
	st.pending++
	return cp
}

// Resolve verifies the opinion, trains the stride table at the
// pre-update history, and advances the architectural state.
func (m *Markov) Resolve(slot int, ref LoadRef, cp ComponentPrediction, _ Outcome, actual uint32) {
	st := &m.st[slot]
	if st.pending > 0 {
		st.pending--
	}
	correct := cp.Predicted && cp.Addr == actual
	if cp.Predicted {
		if correct {
			st.conf = satInc(st.conf, m.cfg.ConfMax)
		} else {
			st.conf = 0
		}
	}

	if st.have {
		stride := int32(actual - st.last)
		// Train only once the history holds HistLen real strides, so
		// half-warm histories do not pollute the shared table.
		if st.nstr >= uint8(m.cfg.HistLen) {
			idx, tag := m.split(st.hist)
			m.tab[idx] = markovEntry{stride: stride, tag: tag, valid: true}
		}
		st.hist = m.advance(st.hist, stride)
		if st.nstr < uint8(m.cfg.HistLen) {
			st.nstr++
		}
	}
	st.last = actual
	st.have = true

	if cp.Predicted && !correct {
		st.poisoned = true
		st.specValid = false
	}
	if st.pending == 0 {
		st.poisoned = false
	}
}

// Squash undoes Predict's in-flight bookkeeping; the speculative
// history cannot be rewound (shift-xor is lossy), so it is invalidated
// until the pending window drains.
func (m *Markov) Squash(slot int) {
	st := &m.st[slot]
	if st.pending > 0 {
		st.pending--
	}
	st.specValid = false
	if st.pending == 0 {
		st.poisoned = false
	}
}
