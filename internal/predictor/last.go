package predictor

// LastConfig configures the last-address predictor used as the paper's
// first baseline (§1: "last-address predictors surprisingly handle an
// average of 40% of all load addresses").
type LastConfig struct {
	Entries       int   // total LB entries (power of two)
	Ways          int   // associativity (power of two)
	ConfMax       uint8 // saturating-counter ceiling
	ConfThreshold uint8 // counter value required to speculate
}

// DefaultLastConfig mirrors the baseline table geometry of §4.2.
func DefaultLastConfig() LastConfig {
	return LastConfig{Entries: 4096, Ways: 2, ConfMax: 3, ConfThreshold: 2}
}

type lastEntry struct {
	last uint32
	have bool
	conf uint8
}

// LastComponent is the last-address predictor at component granularity,
// over per-load state in a slot-indexed array that its owner's load
// buffer indexes (see StrideComponent); like every component, it gets
// its slot at prediction time. Predict reads the architectural last
// address without mutating state, so the component is sound under a
// prediction gap as well: there is simply no speculative state to
// maintain or squash.
type LastComponent struct {
	slots[lastEntry]
	cfg LastConfig
}

// NewLastComponent builds the last-address component. Its owner sizes it
// with Slots before use.
func NewLastComponent(cfg LastConfig) *LastComponent {
	return &LastComponent{cfg: cfg}
}

// ID identifies the component in Prediction.Selected.
func (l *LastComponent) ID() Component { return CompLast }

// Name returns the component's display name.
func (l *LastComponent) Name() string { return "last" }

// Predict computes the component's opinion for the load in slot.
func (l *LastComponent) Predict(slot int, ref LoadRef) ComponentPrediction {
	e := &l.st[slot]
	if !e.have {
		return ComponentPrediction{}
	}
	return ComponentPrediction{
		Addr:      e.last,
		Predicted: true,
		Confident: e.conf >= l.cfg.ConfThreshold,
	}
}

// Resolve updates the last address and its confidence counter.
func (l *LastComponent) Resolve(slot int, ref LoadRef, cp ComponentPrediction, o Outcome, actual uint32) {
	e := &l.st[slot]
	if e.have && e.last == actual {
		e.conf = satInc(e.conf, l.cfg.ConfMax)
	} else {
		e.conf = 0
	}
	e.last = actual
	e.have = true
}

// Squash is a no-op: Predict leaves no in-flight bookkeeping behind.
func (l *LastComponent) Squash(slot int) {}

// Last is the last-address predictor: it speculates that a static load's
// next address equals its previous one. It is the component under its
// own load buffer; a load the LB has not seen produces no prediction.
type Last = Solo[*LastComponent]

// NewLast builds a last-address predictor.
func NewLast(cfg LastConfig) *Last {
	l := newSolo(NewLastComponent(cfg), cfg.Entries, cfg.Ways)
	return &l
}

// New builds a last-address predictor of c.
func (c LastConfig) New() Predictor { return NewLast(c) }
