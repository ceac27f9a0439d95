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

// HybridConfig configures the hybrid CAP/stride predictor of §3.7. The
// load buffer is shared: its geometry is CAP.LBEntries/LBWays, each
// entry holds the selector counters, and its slot indexes both
// components' state.
type HybridConfig struct {
	Stride StrideConfig // Entries/Ways are taken from CAP.LBEntries/LBWays
	CAP    CAPConfig
	// StaticSelector, when not CompNone, names the component that wins
	// whenever it is confident, whatever the counters say: CAP for
	// CompCAP, stride for any other value. The counters keep training,
	// so the selector ledger (SelectorStats) still reports the dynamic
	// selector.
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

// NewHybrid builds the hybrid CAP/stride predictor of §3.7: the
// chooser over the stride and CAP components, sharing one load buffer
// of CAP.LBEntries/LBWays whose entry holds the two selector counters
// while the components keep their state under its slot. Counter ceiling
// 3 and the default (stride 1, CAP 2) initial vector make the pair the
// paper's 2-bit selector: the two counters keep a constant sum, so the
// CAP counter is the selector state (SelStrongStride … SelStrongCAP),
// initially weak CAP. A speculative access is launched when at least
// one component is confident; with neither confident, CAP's address is
// reported ahead of stride's.
func NewHybrid(cfg HybridConfig) *Tournament {
	capc := NewCAPComponent(cfg.CAP)
	capc.policy = cfg.UpdatePolicy
	t := New(Config{Entries: cfg.CAP.LBEntries, Ways: cfg.CAP.LBWays, CounterMax: 3},
		NewStrideComponent(cfg.Stride), capc)
	t.name = "hybrid"
	switch cfg.StaticSelector {
	case CompNone:
	case CompCAP:
		t.preferred = t.cap
	default:
		t.preferred = t.stride
	}
	return t
}

// New builds the hybrid predictor of c.
func (c HybridConfig) New() Predictor { return NewHybrid(c) }
