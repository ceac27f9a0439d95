package predictor

import "fmt"

// Entrant is one component of a Tournament: a predictor operating at
// component granularity over per-load state in a slot-indexed array.
// The tournament's load buffer picks the slot; entrants own no LB.
// Slots restarts the entrant over n slots: it is called before any
// other call and again whenever the owner is reset, and leaves the
// entrant as its constructor built it (every slot clear, and any
// global table the entrant keeps, such as CAP's link table, emptied),
// reusing its arrays when n is unchanged. Reset clears a slot whenever
// the LB allocates it to a new static load. Predict computes the
// entrant's opinion for the load in slot and advances its speculative
// state (reading the architectural state when nothing is in flight for
// the slot); Resolve verifies it against the actual address and
// updates the entrant's tables; Squash undoes Predict's in-flight
// bookkeeping for a flushed wrong-path prediction (§5.4, youngest
// first). Resolutions arrive in prediction order, as under a pipeline
// gap. If the load's entry was evicted in between, Resolve gets the
// freshly reset slot of the re-allocated entry and Squash is not called.
type Entrant interface {
	// ID identifies the entrant in Prediction.Selected.
	ID() Component
	// Name returns the display name used in tables and metrics labels.
	Name() string
	Slots(n int)
	Reset(slot int)
	Predict(slot int, ref LoadRef) ComponentPrediction
	Resolve(slot int, ref LoadRef, cp ComponentPrediction, o Outcome, actual uint32)
	Squash(slot int)
}

// Outcome is what the chooser knows about a load when it resolves it:
// the entrant whose address it reported, whether that address was
// launched speculatively, and which entrants predicted the actual
// address. Every entrant reads its own part; CAP's §4.3 link-table
// update policy also reads the stride entrant's. It is packed into one
// word so that it travels in a register: bits 0–7 hold the selected
// component, bit 8 the speculate flag, and bit 16+c is set when the
// entrant with ID c was right.
type Outcome uint32

const (
	outcomeSelected  = 0xFF   // mask of the selected component
	outcomeSpeculate = 1 << 8 // speculate flag
	outcomeCorrect   = 16     // bit outcomeCorrect+c: entrant c was right
)

// Outcome's correct bits have room for 16 component IDs.
var _ [32 - outcomeCorrect - numComponents]struct{}

// newOutcome starts the outcome of a load whose prediction reported
// selected's address, speculatively or not, with no entrant yet known
// to be right.
func newOutcome(selected Component, speculate bool) Outcome {
	o := Outcome(selected)
	if speculate {
		o |= outcomeSpeculate
	}
	return o
}

// withCorrect records that the entrant with ID c was right.
func (o Outcome) withCorrect(c Component) Outcome { return o | 1<<(outcomeCorrect+c) }

// Speculated reports whether c's address was launched speculatively.
func (o Outcome) Speculated(c Component) bool {
	return o&(outcomeSpeculate|outcomeSelected) == outcomeSpeculate|Outcome(c)
}

// CorrectBy reports whether the entrant with ID c predicted the actual
// address.
func (o Outcome) CorrectBy(c Component) bool { return o&(1<<(outcomeCorrect+c)) != 0 }

// MaxComponents bounds the entrant count so chooser entries and
// in-flight records stay fixed-size arrays (no per-entry allocation).
const MaxComponents = 8

// Config configures the chooser. Entrant configuration lives with the
// entrants themselves; the tournament only needs its load buffer
// geometry and counter shape.
type Config struct {
	// Entries/Ways is the geometry of the tournament's load buffer, the
	// only one: its slots index every entrant's per-load state.
	Entries int
	Ways    int
	// CounterMax is the per-entrant saturating-counter ceiling.
	CounterMax uint8
	// Init is the initial counter vector a newly allocated chooser
	// entry starts from, one value per entrant in order. Empty means
	// the default bias: 1 for every entrant, 2 for CAP — the §4.2
	// "initially biased towards weak CAP selection" rule generalized.
	// The order of descending initial counters (ties broken by entrant
	// order) also fixes the confidence-gated fallback order.
	Init []uint8
}

// DefaultConfig mirrors the paper's load-buffer geometry (§4.2).
func DefaultConfig() Config {
	return Config{Entries: 4096, Ways: 2, CounterMax: 3}
}

// chooserEntry is the per-load chooser state: one saturating counter
// per entrant.
type chooserEntry struct {
	ctr [MaxComponents]uint8
}

// flight is one in-flight load's record: every entrant's opinion and
// the selector state at prediction time, which the Fig. 8 ledger files
// the load under when it resolves.
type flight struct {
	ops [MaxComponents]ComponentPrediction
	sel uint8
}

// ComponentStat is one entrant's selection ledger: how often its
// address was the one launched speculatively, and how often that
// address was right.
type ComponentStat struct {
	Name     string `json:"name"`
	Selected int64  `json:"selected"`
	Correct  int64  `json:"correct"`
}

// SelectorStats is the ledger of the stride/CAP selector's performance
// (§3.7, Fig. 8), kept over the dual-confident loads: those on which
// both the stride and the CAP entrant were confident. States files
// them by the selector state at prediction time; MisSelected counts the
// wrong speculative accesses whose address the other of the two had
// right.
type SelectorStats struct {
	DualConfident int64
	States        [4]int64
	MisSelected   int64
}

// record tallies one resolved load from its stride and CAP opinions
// and the selector state they were made under. A state beyond the
// 2-bit range — an N-way tournament files a load under its winner's
// counter — counts as dual-confident but in no state.
func (s *SelectorStats) record(stride, cap ComponentPrediction, state uint8, p Prediction, actual uint32) {
	if !stride.Confident || !cap.Confident {
		return
	}
	s.DualConfident++
	if int(state) < len(s.States) {
		s.States[state]++
	}
	if p.Speculate && p.Addr != actual {
		other := stride
		if p.Selected == CompStride {
			other = cap
		}
		if other.Addr == actual {
			s.MisSelected++
		}
	}
}

// Merge adds other into s.
func (s *SelectorStats) Merge(other SelectorStats) {
	s.DualConfident += other.DualConfident
	for i := range s.States {
		s.States[i] += other.States[i]
	}
	s.MisSelected += other.MisSelected
}

// Tournament is the N-way meta-predictor, the paper's hybrid (§3.7)
// generalized: every entrant predicts every dynamic load out of one
// shared load buffer, and a per-entry vector of saturating counters
// arbitrates among the confident ones, with a confidence-gated fallback
// order when none is confident. NewHybrid builds the paper's
// stride+CAP pair. It implements Predictor, Squasher and Resetter.
type Tournament struct {
	name   string
	ctrMax uint8 // counter ceiling
	comps  []Entrant
	ids    []Component
	lb     *LBTable[chooserEntry]
	init   [MaxComponents]uint8
	pref   []int // entrant indices in preference order

	// stride and cap are the indices of the entrants the selector
	// ledger compares, -1 when absent.
	stride, cap int
	// preferred, when not -1, is the entrant that wins whenever it is
	// confident (the hybrid's static-selector ablation). The counters
	// keep training either way.
	preferred int

	// In-flight opinions, oldest first, in a power-of-two ring.
	// Resolutions pop the head (they arrive in prediction order);
	// squashes pop the tail (they arrive youngest first). The hot path
	// does not allocate.
	ring []flight
	head int
	n    int

	stats []ComponentStat
	sel   SelectorStats
	index [1 << 8]int8 // entrant index + 1 by ID, 0 for none
}

// New builds a tournament over the given entrants and sizes each one
// to the tournament's load buffer. Zero-valued geometry fields of cfg
// take their DefaultConfig values. Entrants must have distinct,
// non-none IDs.
func New(cfg Config, comps ...Entrant) *Tournament {
	if len(comps) == 0 {
		panic("tournament: at least one component required")
	}
	if len(comps) > MaxComponents {
		panic(fmt.Sprintf("tournament: %d components exceed MaxComponents=%d", len(comps), MaxComponents))
	}
	def := DefaultConfig()
	if cfg.Entries == 0 {
		cfg.Entries = def.Entries
	}
	if cfg.Ways == 0 {
		cfg.Ways = def.Ways
	}
	if cfg.CounterMax == 0 {
		cfg.CounterMax = def.CounterMax
	}
	t := &Tournament{
		name:      "tournament",
		ctrMax:    cfg.CounterMax,
		comps:     comps,
		lb:        NewLBTable[chooserEntry](cfg.Entries, cfg.Ways),
		stride:    -1,
		cap:       -1,
		preferred: -1,
		ring:      make([]flight, 16),
	}
	for i, c := range comps {
		id := c.ID()
		switch {
		case id == CompNone:
			panic("tournament: component with CompNone ID")
		case t.index[id] != 0:
			panic(fmt.Sprintf("tournament: duplicate component %s", id))
		case id == CompStride:
			t.stride = i
		case id == CompCAP:
			t.cap = i
		}
		t.index[id] = int8(i + 1)
		t.ids = append(t.ids, id)
		t.stats = append(t.stats, ComponentStat{Name: c.Name()})
		c.Slots(t.lb.Entries())
	}
	if len(cfg.Init) == 0 {
		for i := range comps {
			t.init[i] = 1
			if i == t.cap {
				t.init[i] = 2 // §4.2: initial bias towards weak CAP
			}
		}
	} else {
		if len(cfg.Init) != len(comps) {
			panic("tournament: Init length must match component count")
		}
		for i, v := range cfg.Init {
			if v > cfg.CounterMax {
				panic("tournament: Init exceeds CounterMax")
			}
			t.init[i] = v
		}
	}
	// Fallback preference: descending initial counter, stable in
	// entrant order. Also the tie-break among equally-ranked confident
	// entrants.
	for i := range comps {
		t.pref = append(t.pref, i)
	}
	for i := 1; i < len(t.pref); i++ {
		for j := i; j > 0 && t.init[t.pref[j]] > t.init[t.pref[j-1]]; j-- {
			t.pref[j], t.pref[j-1] = t.pref[j-1], t.pref[j]
		}
	}
	return t
}

// Name implements Predictor.
func (t *Tournament) Name() string { return t.name }

// Components returns the entrants in order.
func (t *Tournament) Components() []Entrant { return t.comps }

// ComponentStats returns a copy of the per-entrant selection ledger:
// for each entrant, how many speculative accesses used its address and
// how many of those were correct.
func (t *Tournament) ComponentStats() []ComponentStat {
	out := make([]ComponentStat, len(t.stats))
	copy(out, t.stats)
	return out
}

// SelectorStats returns the Fig. 8 ledger of the stride/CAP selector.
// It stays empty unless the tournament has both a stride and a CAP
// entrant.
func (t *Tournament) SelectorStats() SelectorStats { return t.sel }

// Reset implements Resetter: the load buffer, the in-flight ring and
// both ledgers are emptied and every entrant restarted, as New left
// them. The ring keeps any capacity it has grown.
func (t *Tournament) Reset() {
	t.lb.Clear()
	t.head, t.n = 0, 0
	for i, c := range t.comps {
		c.Slots(t.lb.Entries())
		t.stats[i] = ComponentStat{Name: t.stats[i].Name}
	}
	t.sel = SelectorStats{}
}

// pushFlight appends a record to the in-flight ring, doubling the ring
// when it is full, and returns it.
func (t *Tournament) pushFlight() *flight {
	if t.n == len(t.ring) {
		grown := make([]flight, 2*len(t.ring))
		for i := 0; i < t.n; i++ {
			grown[i] = t.ring[(t.head+i)&(len(t.ring)-1)]
		}
		t.ring, t.head = grown, 0
	}
	f := &t.ring[(t.head+t.n)&(len(t.ring)-1)]
	t.n++
	return f
}

// popOldest removes the oldest in-flight record and returns it, valid
// until the next pushFlight.
func (t *Tournament) popOldest() *flight {
	f := &t.ring[t.head]
	t.head = (t.head + 1) & (len(t.ring) - 1)
	t.n--
	return f
}

// slot probes the load buffer for ip. A newly allocated entry starts
// from the initial counter vector with every entrant's state reset.
func (t *Tournament) slot(ip uint32) (int, *chooserEntry) {
	slot, existed := t.lb.Insert(ip)
	e := t.lb.At(slot)
	if !existed {
		e.ctr = t.init
		for _, c := range t.comps {
			c.Reset(slot)
		}
	}
	return slot, e
}

// Predict implements Predictor. Every entrant produces an opinion; the
// preferred entrant, if any, wins whenever it is confident, and
// otherwise the chooser picks the confident entrant with the highest
// per-entry counter (ties to the higher-preference entrant). With no
// confident entrant, the highest-preference predicted address is
// reported without speculation — the confidence-gated fallback. The LB
// entry is allocated at prediction time so that in-flight instance
// counts are exact under a prediction gap.
func (t *Tournament) Predict(ref LoadRef) Prediction {
	slot, e := t.slot(ref.IP)
	f := t.pushFlight()
	ops := f.ops[:len(t.comps)]
	for i, c := range t.comps {
		ops[i] = c.Predict(slot, ref)
	}

	// One pass in preference order: the confident entrant with the
	// highest counter wins, ties to the earlier one; failing that, the
	// first entrant that predicted at all.
	chosen, fallback := t.preferred, -1
	if chosen < 0 || !ops[chosen].Confident {
		chosen = -1
		for _, i := range t.pref {
			switch {
			case ops[i].Confident:
				if chosen < 0 || e.ctr[i] > e.ctr[chosen] {
					chosen = i
				}
			case fallback < 0 && ops[i].Predicted:
				fallback = i
			}
		}
	}
	speculate := chosen >= 0
	if !speculate {
		chosen = fallback
	}
	p := Prediction{Predicted: chosen >= 0, Speculate: speculate}
	if chosen >= 0 {
		p.Addr, p.Selected = ops[chosen].Addr, t.ids[chosen]
	}
	// The selector state: for a two-way tournament the second entrant's
	// counter is the full relative 2-bit state (the counter vector keeps
	// a constant sum, so it is the paper's selector — see NewHybrid);
	// for N-way it is the winner's counter. Without a winner no entrant
	// is confident, so the ledger never reads it.
	f.sel = e.ctr[1]
	if len(t.comps) > 2 && chosen >= 0 {
		f.sel = e.ctr[chosen]
	}
	return p
}

// Resolve implements Predictor. The chooser records relative
// performance only on disagreement among predicting entrants — the
// §3.7 selector rule generalized: every predictor that was right while
// another was wrong moves up, every predictor that was wrong while
// another was right moves down.
func (t *Tournament) Resolve(ref LoadRef, p Prediction, actual uint32) {
	if t.n == 0 {
		panic("tournament: Resolve without a matching Predict")
	}
	f := t.popOldest()
	ops := f.ops[:len(t.comps)]
	slot, e := t.slot(ref.IP)

	// predicted and correct are masks by entrant index, o's by ID.
	o := newOutcome(p.Selected, p.Speculate)
	var predicted, correct uint32
	for i := range ops {
		if ops[i].Predicted {
			predicted |= 1 << i
			if ops[i].Addr == actual {
				correct |= 1 << i
				o = o.withCorrect(t.ids[i])
			}
		}
	}
	if correct != 0 && correct != predicted {
		for i := range ops {
			switch {
			case correct&(1<<i) != 0:
				e.ctr[i] = satInc(e.ctr[i], t.ctrMax)
			case predicted&(1<<i) != 0:
				e.ctr[i] = satDec(e.ctr[i])
			}
		}
	}

	for i, c := range t.comps {
		c.Resolve(slot, ref, ops[i], o, actual)
	}
	if chosen := int(t.index[p.Selected]) - 1; p.Speculate && chosen >= 0 {
		t.stats[chosen].Selected++
		if p.Addr == actual {
			t.stats[chosen].Correct++
		}
	}
	if t.stride >= 0 && t.cap >= 0 {
		t.sel.record(ops[t.stride], ops[t.cap], f.sel, p, actual)
	}
}

// Squash implements Squasher: the youngest in-flight prediction was
// made on a wrong path and will never resolve (§5.4). Its opinions leave
// the in-flight ring; the chooser counters are untouched. If the load's
// entry has been evicted since Predict, its in-flight state went with
// it and no entrant is called.
func (t *Tournament) Squash(ref LoadRef, p Prediction) {
	if t.n == 0 {
		return
	}
	t.n--
	if slot, ok := t.lb.Lookup(ref.IP); ok {
		for _, c := range t.comps {
			c.Squash(slot)
		}
	}
}
