// Package tournament generalizes the paper's two-way hybrid (§3.7) to
// an N-way tournament meta-predictor in the style of modern branch
// meta-predictors: any number of component predictors produce opinions
// for every dynamic load, and a per-load-buffer-entry vector of
// saturating counters arbitrates among the confident ones, with a
// confidence-gated fallback order when none is confident.
//
// The components are package predictor's stride, CAP and last-address
// components, which implement the Component interface, plus three
// entrants of their own: a Markov-N stride-history predictor, a
// delta-delta (acceleration) predictor, and a call-path-context
// predictor — the latter re-casting §3.6's negative result as a
// specialist that only has to win the loads it is good at, not the
// whole trace.
//
// Like the paper's hybrid, the tournament keeps one load buffer: its
// entry holds the chooser counters, and the components keep per-load
// state in arrays indexed by the entry's slot (see Component).
//
// Like every predictor, the tournament has one resolution discipline:
// Predict advances speculative state and resolutions arrive in
// prediction order, at once (immediate update) or a prediction gap
// later under internal/pipeline.Gap, with §5.4 wrong-path squashes.
//
// A two-way CAP+stride tournament built by NewPaperPair is
// decision-identical to predictor.NewHybrid with the default
// configuration by construction: one LB of the same geometry, the same
// component code, and a counter pair that maps onto the hybrid's
// selector. The differential fuzzer FuzzTournamentSelector pins that
// equivalence.
package tournament

import (
	"fmt"

	"capred/internal/predictor"
)

// Component is one tournament entrant: a predictor operating at
// component granularity over per-load state in a slot-indexed array.
// The tournament's load buffer picks the slot; components own no LB.
// Slots sizes the array once, before any other call; Reset clears a
// slot whenever the LB allocates it to a new static load. Predict
// computes the component's opinion for the load in slot and advances
// its speculative state (reading the architectural state when nothing
// is in flight for the slot); Resolve
// verifies it against the actual address and updates the component's
// tables; Squash undoes Predict's in-flight bookkeeping for a flushed
// wrong-path prediction (§5.4, youngest first). Resolutions arrive in
// prediction order, as under a pipeline gap. If the load's entry was
// evicted in between, Resolve gets the freshly reset slot of the
// re-allocated entry and Squash is not called.
type Component interface {
	// ID identifies the component in Prediction.Selected.
	ID() predictor.Component
	// Name returns the display name used in tables and metrics labels.
	Name() string
	Slots(n int)
	Reset(slot int)
	Predict(slot int, ref predictor.LoadRef) predictor.ComponentPrediction
	Resolve(slot int, ref predictor.LoadRef, cp predictor.ComponentPrediction, speculated bool, actual uint32)
	Squash(slot int)
}

// MaxComponents bounds the entrant count so chooser entries stay a
// fixed-size array (no per-entry allocation).
const MaxComponents = 8

// Config configures the meta-chooser. Component configuration lives
// with the components themselves; the tournament only needs its load
// buffer geometry and counter shape.
type Config struct {
	// Entries/Ways is the geometry of the tournament's load buffer, the
	// only one: its slots index every component's per-load state.
	Entries int
	Ways    int
	// CounterMax is the per-component saturating-counter ceiling.
	CounterMax uint8
	// Init is the initial counter vector a newly allocated chooser
	// entry starts from, one value per component in order. Empty means
	// the default bias: 1 for every component, 2 for CAP — the §4.2
	// "initially biased towards weak CAP selection" rule generalized.
	// The order of descending initial counters (ties broken by
	// component order) also fixes the confidence-gated fallback order.
	Init []uint8
}

// DefaultConfig mirrors the paper's load-buffer geometry (§4.2).
func DefaultConfig() Config {
	return Config{Entries: 4096, Ways: 2, CounterMax: 3}
}

// chooserEntry is the per-load chooser state: one saturating counter
// per component.
type chooserEntry struct {
	ctr [MaxComponents]uint8
}

// ComponentStat is one component's selection ledger: how often its
// address was the one launched speculatively, and how often that
// address was right.
type ComponentStat struct {
	Name     string `json:"name"`
	Selected int64  `json:"selected"`
	Correct  int64  `json:"correct"`
}

// Tournament is the N-way meta-predictor. It implements
// predictor.Predictor and predictor.Squasher.
type Tournament struct {
	cfg   Config
	comps []Component
	ids   []predictor.Component
	lb    *predictor.LBTable[chooserEntry]
	init  [MaxComponents]uint8
	pref  []int              // component indices in fallback-preference order
	rank  [MaxComponents]int // rank[i] is component i's position in pref
	index [1 << 8]int8       // component index + 1 by ID, 0 for none

	// In-flight per-component opinions, oldest first. Resolutions pop
	// the head (they arrive in prediction order); squashes pop the tail
	// (they arrive youngest first). Slots are preallocated slices of
	// len(comps), reused forever — the hot path does not allocate.
	ring []([]predictor.ComponentPrediction)
	head int
	n    int

	stats []ComponentStat
}

// New builds a tournament over the given components and sizes each one
// to the tournament's load buffer. Zero-valued geometry fields of cfg
// take their DefaultConfig values. Components must have distinct,
// non-none IDs.
func New(cfg Config, comps ...Component) *Tournament {
	if len(comps) == 0 {
		panic("tournament: at least one component required")
	}
	if len(comps) > MaxComponents {
		panic(fmt.Sprintf("tournament: %d components exceed MaxComponents=%d", len(comps), MaxComponents))
	}
	if cfg.Entries == 0 {
		cfg.Entries = DefaultConfig().Entries
	}
	if cfg.Ways == 0 {
		cfg.Ways = DefaultConfig().Ways
	}
	if cfg.CounterMax == 0 {
		cfg.CounterMax = DefaultConfig().CounterMax
	}
	t := &Tournament{
		cfg:   cfg,
		comps: comps,
		lb:    predictor.NewLBTable[chooserEntry](cfg.Entries, cfg.Ways),
	}
	for i, c := range comps {
		id := c.ID()
		if id == predictor.CompNone {
			panic("tournament: component with CompNone ID")
		}
		if t.index[id] != 0 {
			panic(fmt.Sprintf("tournament: duplicate component %s", id))
		}
		t.index[id] = int8(i + 1)
		t.ids = append(t.ids, id)
		t.stats = append(t.stats, ComponentStat{Name: c.Name()})
		c.Slots(t.lb.Entries())
	}
	if len(cfg.Init) == 0 {
		for i, id := range t.ids {
			t.init[i] = 1
			if id == predictor.CompCAP {
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
	// component order. Also the tie-break among equally-ranked
	// confident components.
	for i := range comps {
		t.pref = append(t.pref, i)
	}
	for i := 1; i < len(t.pref); i++ {
		for j := i; j > 0 && t.init[t.pref[j]] > t.init[t.pref[j-1]]; j-- {
			t.pref[j], t.pref[j-1] = t.pref[j-1], t.pref[j]
		}
	}
	for r, i := range t.pref {
		t.rank[i] = r
	}
	t.ring = make([][]predictor.ComponentPrediction, 16)
	for i := range t.ring {
		t.ring[i] = make([]predictor.ComponentPrediction, len(comps))
	}
	return t
}

// Name implements Predictor.
func (t *Tournament) Name() string { return "tournament" }

// Components returns the entrants in order.
func (t *Tournament) Components() []Component { return t.comps }

// ComponentStats returns a copy of the per-component selection ledger:
// for each entrant, how many speculative accesses used its address and
// how many of those were correct.
func (t *Tournament) ComponentStats() []ComponentStat {
	out := make([]ComponentStat, len(t.stats))
	copy(out, t.stats)
	return out
}

// pushFlight appends a fresh opinions slot to the in-flight ring.
func (t *Tournament) pushFlight() []predictor.ComponentPrediction {
	if t.n == len(t.ring) {
		grown := make([][]predictor.ComponentPrediction, 2*len(t.ring))
		for i := 0; i < t.n; i++ {
			grown[i] = t.ring[(t.head+i)%len(t.ring)]
		}
		for i := t.n; i < len(grown); i++ {
			grown[i] = make([]predictor.ComponentPrediction, len(t.comps))
		}
		t.ring, t.head = grown, 0
	}
	ops := t.ring[(t.head+t.n)%len(t.ring)]
	t.n++
	return ops
}

// popOldest removes and returns the oldest in-flight opinions.
func (t *Tournament) popOldest() []predictor.ComponentPrediction {
	ops := t.ring[t.head]
	t.head = (t.head + 1) % len(t.ring)
	t.n--
	return ops
}

// slot probes the load buffer for ip. A newly allocated entry starts
// from the initial counter vector with every component's state reset.
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

// Predict implements Predictor. Every component produces an opinion;
// among the confident ones the chooser picks the highest per-entry
// counter (ties to the higher-preference component). With no confident
// component, the highest-preference predicted address is reported
// without speculation — the confidence-gated fallback. The LB entry is
// allocated at prediction time, as in the hybrid, so in-flight instance
// counts are exact under a prediction gap.
func (t *Tournament) Predict(ref predictor.LoadRef) predictor.Prediction {
	slot, e := t.slot(ref.IP)
	ops := t.pushFlight()
	for i, c := range t.comps {
		ops[i] = c.Predict(slot, ref)
	}

	var p predictor.Prediction
	for i, id := range t.ids {
		switch id {
		case predictor.CompStride:
			p.Stride = ops[i]
		case predictor.CompCAP:
			p.CAP = ops[i]
		}
	}

	chosen := -1
	for i := range ops {
		if !ops[i].Confident {
			continue
		}
		if chosen < 0 || e.ctr[i] > e.ctr[chosen] ||
			(e.ctr[i] == e.ctr[chosen] && t.rank[i] < t.rank[chosen]) {
			chosen = i
		}
	}
	if chosen >= 0 {
		p.Addr, p.Predicted, p.Speculate = ops[chosen].Addr, true, true
	} else {
		for _, i := range t.pref {
			if ops[i].Predicted {
				chosen = i
				p.Addr, p.Predicted = ops[i].Addr, true
				break
			}
		}
	}
	if chosen >= 0 {
		p.Selected = t.ids[chosen]
	}
	// SelState: for a two-way tournament the second component's counter
	// is the full relative 2-bit state (the counter vector keeps a
	// constant sum, so it maps 1:1 onto the hybrid's selector — see
	// FuzzTournamentSelector); for N-way it reports the winner's
	// counter, which is what breakdowns want to see.
	switch {
	case len(t.comps) == 2:
		p.SelState = e.ctr[1]
	case chosen >= 0:
		p.SelState = e.ctr[chosen]
	}
	return p
}

// Resolve implements Predictor. The chooser records relative
// performance only on disagreement among predicting components — the
// §3.7 selector rule generalized: every predictor that was right while
// another was wrong moves up, every predictor that was wrong while
// another was right moves down.
func (t *Tournament) Resolve(ref predictor.LoadRef, p predictor.Prediction, actual uint32) {
	if t.n == 0 {
		panic("tournament: Resolve without a matching Predict")
	}
	ops := t.popOldest()
	slot, e := t.slot(ref.IP)

	npred, ncorrect := 0, 0
	for i := range ops {
		if ops[i].Predicted {
			npred++
			if ops[i].Addr == actual {
				ncorrect++
			}
		}
	}
	if npred >= 2 && ncorrect > 0 && ncorrect < npred {
		for i := range ops {
			if !ops[i].Predicted {
				continue
			}
			if ops[i].Addr == actual {
				e.ctr[i] = satInc(e.ctr[i], t.cfg.CounterMax)
			} else {
				e.ctr[i] = satDec(e.ctr[i])
			}
		}
	}

	chosen := int(t.index[p.Selected]) - 1
	for i, c := range t.comps {
		c.Resolve(slot, ref, ops[i], p.Speculate && i == chosen, actual)
	}
	if p.Speculate && chosen >= 0 {
		t.stats[chosen].Selected++
		if p.Addr == actual {
			t.stats[chosen].Correct++
		}
	}
}

// Squash implements Squasher: the youngest in-flight prediction was
// made on a wrong path and will never resolve (§5.4). Its opinions leave
// the in-flight ring; the chooser counters are untouched. If the load's
// entry has been evicted since Predict, its in-flight state went with
// it and no component is called.
func (t *Tournament) Squash(ref predictor.LoadRef, p predictor.Prediction) {
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
