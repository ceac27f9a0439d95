package predictor

// StrideConfig configures the stride predictor. The paper's "enhanced"
// stride predictor (§4.2, §5.3) adds the interval technique and
// control-flow indications to the classic stride scheme; both are
// disabled for the basic variant.
type StrideConfig struct {
	Entries       int
	Ways          int
	ConfMax       uint8
	ConfThreshold uint8
	Interval      bool     // record array length, stop speculating past it
	CF            CFConfig // control-flow indications (0 bits = off)
}

// DefaultStrideConfig returns the enhanced stride predictor of §4.2:
// 4K-entry 2-way LB, interval counters and control-flow indications on.
func DefaultStrideConfig() StrideConfig {
	return StrideConfig{
		Entries: 4096, Ways: 2,
		ConfMax: 3, ConfThreshold: 2,
		Interval: true,
		CF:       CFConfig{Bits: 4, Table: true},
	}
}

// BasicStrideConfig returns the classic stride predictor with no
// enhancements, for the baseline table of §1.
func BasicStrideConfig() StrideConfig {
	cfg := DefaultStrideConfig()
	cfg.Interval = false
	cfg.CF = CFConfig{}
	return cfg
}

// strideState is the per-static-load stride prediction state, one per
// load-buffer slot.
type strideState struct {
	last   uint32 // architectural last address
	stride int32
	have   bool // last is valid
	haveSt bool // stride is valid (second occurrence seen)
	conf   uint8

	// Interval technique: interval is the learned run length (number of
	// consecutive same-stride accesses before the last break); run counts
	// the current streak. The interval only gates speculation once two
	// consecutive runs agree (intConf), so a one-off data-dependent glitch
	// does not poison a long array's learned length.
	interval uint16
	run      uint16
	intConf  bool

	cf cfInd

	// In-flight state, meaningful only while pending > 0.
	pending   uint16 // predictions awaiting resolution
	specLast  uint32 // address of the most recently predicted instance
	specValid bool
}

// StrideComponent is the stride predictor at component granularity, over
// per-load state in a slot-indexed array. Its owner — Stride or a
// Tournament such as the hybrid — sizes the array with
// Slots, resets a slot whenever its LB allocates it, and passes the
// slot to every call.
type StrideComponent struct {
	slots[strideState]
	cfg StrideConfig
}

// NewStrideComponent builds the stride component. Its owner sizes it
// with Slots before use.
func NewStrideComponent(cfg StrideConfig) *StrideComponent {
	return &StrideComponent{cfg: cfg}
}

// ID identifies the component in Prediction.Selected.
func (s *StrideComponent) ID() Component { return CompStride }

// Name returns the component's display name.
func (s *StrideComponent) Name() string {
	if s.cfg.Interval || s.cfg.CF.enabled() {
		return "stride+"
	}
	return "stride"
}

// Predict computes the component's opinion for the load in slot and
// advances its speculative state. With nothing in flight it reads the
// architectural last address, so Predict followed at once by Resolve is
// the paper's immediate update; owners allocate the slot at prediction
// time so in-flight instance counts are exact under a prediction gap.
func (s *StrideComponent) Predict(slot int, ref LoadRef) ComponentPrediction {
	st := &s.st[slot]
	base, valid := st.specLast, st.specValid
	if st.pending == 0 {
		base, valid = st.last, st.have
	}
	cp := s.predictFrom(st, base, valid, ref)
	if cp.Predicted {
		base = cp.Addr
	}
	st.specLast, st.specValid = base, valid
	st.pending++
	return cp
}

func (s *StrideComponent) predictFrom(st *strideState, base uint32, haveBase bool, ref LoadRef) ComponentPrediction {
	if !haveBase {
		return ComponentPrediction{}
	}
	addr := base + uint32(st.stride)
	confident := st.conf >= s.cfg.ConfThreshold &&
		st.cf.allow(s.cfg.CF, ref.GHR) &&
		s.intervalAllows(st)
	return ComponentPrediction{Addr: addr, Predicted: true, Confident: confident}
}

// intervalAllows applies the interval technique: once the learned array
// length is reached, trade a likely misprediction for a no-prediction.
func (s *StrideComponent) intervalAllows(st *strideState) bool {
	if !s.cfg.Interval || st.interval == 0 || !st.intConf {
		return true
	}
	return st.run < st.interval
}

// Resolve verifies the component's opinion and updates the architectural
// (and, on mispredictions, speculative) state in slot.
func (s *StrideComponent) Resolve(slot int, ref LoadRef, cp ComponentPrediction, o Outcome, actual uint32) {
	st := &s.st[slot]
	if st.pending > 0 {
		st.pending--
	}
	correct := cp.Predicted && cp.Addr == actual

	// Confidence and control-flow indications reflect prediction outcome.
	if cp.Predicted {
		if correct {
			st.conf = satInc(st.conf, s.cfg.ConfMax)
		} else {
			st.conf = 0
		}
		st.cf.record(s.cfg.CF, ref.GHR, correct, o.Speculated(CompStride))
	}

	// Architectural stride update.
	if st.have {
		delta := int32(actual - st.last)
		if st.haveSt && delta == st.stride {
			if st.run < ^uint16(0) {
				st.run++
			}
		} else {
			// Stride break: learn the interval, restart the streak. The
			// interval is confirmed only when two consecutive runs agree
			// (within one element).
			if s.cfg.Interval && st.run > 0 {
				d := int(st.run) - int(st.interval)
				st.intConf = st.interval > 0 && d >= -1 && d <= 1
				st.interval = st.run
			}
			st.run = 0
			st.stride = delta
			st.haveSt = true
		}
	}
	st.last = actual
	st.have = true

	if st.pending > 0 && (!correct || !st.specValid) {
		// Catch-up (§5.2): extrapolate the stride over the pending
		// unresolved instances so the next prediction lands correctly,
		// instead of waiting for the window to drain.
		st.specLast = actual + uint32(st.stride)*uint32(st.pending)
		st.specValid = st.haveSt
	}
}

// Squash undoes Predict's in-flight bookkeeping for a flushed prediction
// (§5.4 wrong-path recovery). The speculative last-address cannot be
// rewound precisely (the flushed prediction already advanced it), so it
// is invalidated; the catch-up path re-establishes it at the next
// resolution, and once nothing is in flight Predict reads the
// architectural state again.
func (s *StrideComponent) Squash(slot int) {
	st := &s.st[slot]
	if st.pending > 0 {
		st.pending--
	}
	st.specValid = false
}

// Stride is the stand-alone stride predictor: the component under its
// own load buffer.
type Stride = Solo[*StrideComponent]

// NewStride builds a stride predictor.
func NewStride(cfg StrideConfig) *Stride {
	s := newSolo(NewStrideComponent(cfg), cfg.Entries, cfg.Ways)
	return &s
}

// New builds a stride predictor of c.
func (c StrideConfig) New() Predictor { return NewStride(c) }
