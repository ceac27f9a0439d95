package tournament

import (
	"slices"
	"strings"
	"testing"

	"capred/internal/pipeline"
	"capred/internal/predictor"
)

// owned drives one component the way a tournament does: a private
// 64-entry load buffer picks the slot, and a newly allocated slot is
// reset before use.
type owned struct {
	c  predictor.Entrant
	lb *predictor.LBTable[struct{}]
}

func own(c predictor.Entrant) *owned {
	o := &owned{c: c, lb: predictor.NewLBTable[struct{}](64, 2)}
	c.Slots(o.lb.Entries())
	return o
}

func (o *owned) slot(ip uint32) int {
	slot, existed := o.lb.Insert(ip)
	if !existed {
		o.c.Reset(slot)
	}
	return slot
}

func (o *owned) Predict(ref predictor.LoadRef) predictor.ComponentPrediction {
	return o.c.Predict(o.slot(ref.IP), ref)
}

func (o *owned) Resolve(ref predictor.LoadRef, cp predictor.ComponentPrediction, actual uint32) {
	o.c.Resolve(o.slot(ref.IP), ref, cp, predictor.Outcome(0), actual)
}

// feed resolves one address through an owned component in immediate
// mode: predict, then resolve with the actual, returning the prediction.
func feed(o *owned, ip, addr uint32) predictor.ComponentPrediction {
	ref := predictor.LoadRef{IP: ip}
	cp := o.Predict(ref)
	o.Resolve(ref, cp, addr)
	return cp
}

func TestMarkovWarmupAndPattern(t *testing.T) {
	cfg := DefaultMarkovConfig()
	m := own(NewMarkov(cfg))

	// A repeating +8,+8,+120 stride pattern (array-of-structs walk).
	strides := []uint32{8, 8, 120}
	addr := uint32(0x1000)
	var got []predictor.ComponentPrediction
	for i := 0; i < 30; i++ {
		got = append(got, feed(m, 0x40, addr))
		addr += strides[i%len(strides)]
	}

	// Warm-up: the first occurrence establishes last, the next HistLen
	// fill the history, and training starts only after that — so no
	// table hit is possible before 2*HistLen+1 occurrences (the pattern
	// period must also repeat once for the trained entry to be reused).
	for i := 0; i <= 2*cfg.HistLen; i++ {
		if got[i].Predicted {
			t.Fatalf("occurrence %d: predicted during warm-up", i)
		}
	}
	// Steady state: every stride in the period is predicted exactly.
	// (The prediction at occurrence i is for a_i itself — the address
	// the load is about to produce.)
	addrCheck := uint32(0x1000)
	for i := 0; i < 30; i++ {
		if i >= 3*len(strides) {
			if !got[i].Predicted || got[i].Addr != addrCheck {
				t.Fatalf("occurrence %d: got %+v, want predicted addr %#x", i, got[i], addrCheck)
			}
		}
		addrCheck += strides[i%len(strides)]
	}
	// Confidence saturates on the repeating pattern.
	cp := m.Predict(predictor.LoadRef{IP: 0x40})
	if !cp.Confident {
		t.Fatalf("steady-state Markov prediction not confident: %+v", cp)
	}
}

// TestMarkovTagRejectsAliases finds two single-stride histories that
// collide on the table index but differ in tag, and checks that the
// tag match turns cross-load pollution into a quiet miss.
func TestMarkovTagRejectsAliases(t *testing.T) {
	cfg := MarkovConfig{
		TableEntries: 16, TagBits: 8,
		HistLen: 1, ConfMax: 3, ConfThreshold: 2,
	}
	m := NewMarkov(cfg)
	o := own(m)

	// Search stride space for an index collision with distinct tags,
	// using the component's own hash so the test tracks the geometry.
	histOf := func(s int32) uint32 { return m.advance(0, s) }
	var sA, sB int32 = -1, -1
	idxA, tagA := m.split(histOf(64))
outer:
	for s := int32(68); s < 1<<20; s += 4 {
		idx, tag := m.split(histOf(s))
		if idx == idxA && tag != tagA {
			sA, sB = 64, s
			break outer
		}
	}
	if sB < 0 {
		t.Fatal("no colliding stride pair found; geometry changed?")
	}

	// Load A trains: history(sA) → next stride sA (constant stride).
	addr := uint32(0x1000)
	for i := 0; i < 8; i++ {
		feed(o, 0x10, addr)
		addr += uint32(sA)
	}
	if cp := o.Predict(predictor.LoadRef{IP: 0x10}); !cp.Predicted {
		t.Fatalf("load A not predicting after training: %+v", cp)
	}

	// Load B reaches the same table index with a different tag. Two
	// occurrences make B warm (one stride in its history) without yet
	// training its own table entry, so the lookup lands on load A's
	// entry — and must get a miss (no prediction), not load A's stride.
	addr = uint32(0x8000)
	for i := 0; i < 2; i++ {
		feed(o, 0x20, addr)
		addr += uint32(sB)
	}
	cp := o.Predict(predictor.LoadRef{IP: 0x20})
	if cp.Predicted {
		t.Fatalf("tag failed to reject alias: load B predicted %+v (load A's entry)", cp)
	}

	// With tagging disabled the same collision silently serves load A's
	// stride to load B — the pollution the tag exists to stop.
	cfg.TagBits = 0
	m = NewMarkov(cfg)
	o = own(m)
	// Geometry changed (tag bits folded out of the history); re-find a
	// colliding pair by index only.
	idxA, _ = m.split(m.advance(0, 64))
	sB = -1
	for s := int32(68); s < 1<<20; s += 4 {
		if idx, _ := m.split(m.advance(0, s)); idx == idxA {
			sB = s
			break
		}
	}
	if sB < 0 {
		t.Fatal("no untagged collision found")
	}
	addr = 0x1000
	for i := 0; i < 8; i++ {
		feed(o, 0x10, addr)
		addr += 64
	}
	addr = 0x8000
	for i := 0; i < 2; i++ {
		feed(o, 0x20, addr)
		addr += uint32(sB)
	}
	cp = o.Predict(predictor.LoadRef{IP: 0x20})
	if !cp.Predicted || cp.Addr != addr-uint32(sB)+64 {
		t.Fatalf("untagged alias should serve load A's stride 64: %+v", cp)
	}
}

// scripted is a stub component for chooser unit tests: it replays a
// fixed opinion and records the slots it was driven with and what
// Resolve told it.
type scripted struct {
	id        predictor.Component
	op        predictor.ComponentPrediction
	gotSpec   []bool
	resets    []int
	predicted []int
	squashed  []int
}

func (s *scripted) ID() predictor.Component { return s.id }
func (s *scripted) Name() string            { return s.id.String() }
func (s *scripted) Slots(int)               {}
func (s *scripted) Reset(slot int)          { s.resets = append(s.resets, slot) }
func (s *scripted) Predict(slot int, _ predictor.LoadRef) predictor.ComponentPrediction {
	s.predicted = append(s.predicted, slot)
	return s.op
}
func (s *scripted) Resolve(_ int, _ predictor.LoadRef, _ predictor.ComponentPrediction, o predictor.Outcome, _ uint32) {
	s.gotSpec = append(s.gotSpec, o.Speculated(s.id))
}
func (s *scripted) Squash(slot int) { s.squashed = append(s.squashed, slot) }

func TestChooserFallbackOrder(t *testing.T) {
	// Three components, none confident: the chooser must fall back in
	// descending-initial-counter order (markov init 3 outranks the
	// others), and the prediction must not speculate.
	a := &scripted{id: predictor.CompStride, op: predictor.ComponentPrediction{Addr: 1, Predicted: true}}
	b := &scripted{id: predictor.CompMarkov, op: predictor.ComponentPrediction{Addr: 2, Predicted: true}}
	c := &scripted{id: predictor.CompLast}
	tour := predictor.New(predictor.Config{Entries: 16, Ways: 2, CounterMax: 7, Init: []uint8{1, 3, 2}}, a, b, c)

	p := tour.Predict(predictor.LoadRef{IP: 0x10})
	if p.Selected != predictor.CompMarkov || p.Addr != 2 || p.Speculate {
		t.Fatalf("fallback pick = %+v, want markov addr 2 without speculation", p)
	}

	// Now only stride predicts: the fallback walks past markov.
	b.op = predictor.ComponentPrediction{}
	tour.Resolve(predictor.LoadRef{IP: 0x10}, p, 99)
	p = tour.Predict(predictor.LoadRef{IP: 0x10})
	if p.Selected != predictor.CompStride || p.Addr != 1 || p.Speculate {
		t.Fatalf("fallback past non-predictor = %+v, want stride addr 1", p)
	}
	tour.Resolve(predictor.LoadRef{IP: 0x10}, p, 99)
}

func TestChooserCounterArbitration(t *testing.T) {
	// Two confident components that disagree: resolutions move the
	// counters toward whichever is correct, and the pick follows.
	a := &scripted{id: predictor.CompStride, op: predictor.ComponentPrediction{Addr: 1, Predicted: true, Confident: true}}
	b := &scripted{id: predictor.CompCAP, op: predictor.ComponentPrediction{Addr: 2, Predicted: true, Confident: true}}
	tour := predictor.New(predictor.Config{Entries: 16, Ways: 2, CounterMax: 3}, a, b)
	ref := predictor.LoadRef{IP: 0x10}

	// Default init biases CAP (1,2): first pick is CAP.
	p := tour.Predict(ref)
	if p.Selected != predictor.CompCAP || !p.Speculate {
		t.Fatalf("initial pick = %+v, want speculative CAP", p)
	}
	// Stride is right, CAP wrong: one disagreement moves the counters
	// (1,2) → (2,1) and the pick flips to stride — exactly the hybrid's
	// weak-CAP → weak-stride transition.
	tour.Resolve(ref, p, 1)
	p = tour.Predict(ref)
	if p.Selected != predictor.CompStride {
		t.Fatalf("after stride wins once: pick = %+v, want stride", p)
	}
	tour.Resolve(ref, p, 1)

	// Only the chosen component's Resolve saw speculated=true: CAP in
	// round one, stride in round two.
	if len(a.gotSpec) != 2 || a.gotSpec[0] || !a.gotSpec[1] {
		t.Fatalf("stride speculated flags = %v, want [false true]", a.gotSpec)
	}
	if len(b.gotSpec) != 2 || !b.gotSpec[0] || b.gotSpec[1] {
		t.Fatalf("cap speculated flags = %v, want [true false]", b.gotSpec)
	}

	// Selection stats attribute speculated picks to the chosen component.
	stats := tour.ComponentStats()
	if stats[1].Name != "cap" || stats[1].Selected != 1 || stats[1].Correct != 0 {
		t.Fatalf("cap stats = %+v, want 1 selected 0 correct", stats[1])
	}
	if stats[0].Selected != 1 || stats[0].Correct != 1 {
		t.Fatalf("stride stats = %+v, want 1 selected 1 correct", stats[0])
	}
}

func TestChooserAgreementFreezesCounters(t *testing.T) {
	// When all predicting components agree (all right or all wrong) the
	// counter vector must not move — same rule as the hybrid selector.
	a := &scripted{id: predictor.CompStride, op: predictor.ComponentPrediction{Addr: 5, Predicted: true, Confident: true}}
	b := &scripted{id: predictor.CompCAP, op: predictor.ComponentPrediction{Addr: 5, Predicted: true, Confident: true}}
	tour := predictor.New(predictor.Config{Entries: 16, Ways: 2, CounterMax: 3}, a, b)
	ref := predictor.LoadRef{IP: 0x10}

	for i := 0; i < 3; i++ { // both right
		tour.Resolve(ref, tour.Predict(ref), 5)
	}
	for i := 0; i < 3; i++ { // both wrong
		tour.Resolve(ref, tour.Predict(ref), 6)
	}
	tour.Resolve(ref, tour.Predict(ref), 5)
	// Every load was dual-confident, so the selector ledger filed each
	// under the selector state it was predicted in: the untouched init.
	want := predictor.SelectorStats{DualConfident: 7}
	want.States[predictor.SelWeakCAP] = 7
	if got := tour.SelectorStats(); got != want {
		t.Fatalf("selector ledger = %+v, want every load at the untouched init %+v", got, want)
	}
}

// TestSelectorLedgerUsesPredictionTimeState: the ledger files a load
// under the selector state it was predicted in, even when an earlier
// resolution of the same static load moves the selector before its own.
func TestSelectorLedgerUsesPredictionTimeState(t *testing.T) {
	a := &scripted{id: predictor.CompStride, op: predictor.ComponentPrediction{Addr: 5, Predicted: true, Confident: true}}
	b := &scripted{id: predictor.CompCAP, op: predictor.ComponentPrediction{Addr: 6, Predicted: true, Confident: true}}
	tour := predictor.New(predictor.Config{Entries: 16, Ways: 2, CounterMax: 3}, a, b)
	ref := predictor.LoadRef{IP: 0x10}

	// Two instances in flight, both predicted at the initial weak-CAP
	// state, so both select CAP. Stride is right each time: each
	// resolution moves the selector stride-ward and is a mis-selection.
	p1, p2 := tour.Predict(ref), tour.Predict(ref)
	tour.Resolve(ref, p1, 5)
	tour.Resolve(ref, p2, 5)
	want := predictor.SelectorStats{DualConfident: 2, MisSelected: 2}
	want.States[predictor.SelWeakCAP] = 2
	if got := tour.SelectorStats(); got != want {
		t.Fatalf("selector ledger = %+v, want %+v", got, want)
	}
}

func TestNewValidation(t *testing.T) {
	mk := func(id predictor.Component) predictor.Entrant { return &scripted{id: id} }
	for name, fn := range map[string]func(){
		"no components": func() { predictor.New(predictor.DefaultConfig()) },
		"dup ids": func() {
			predictor.New(predictor.DefaultConfig(), mk(predictor.CompStride), mk(predictor.CompStride))
		},
		"none id": func() { predictor.New(predictor.DefaultConfig(), mk(predictor.CompNone)) },
		"init len": func() {
			predictor.New(predictor.Config{Entries: 16, Ways: 2, CounterMax: 3, Init: []uint8{1}},
				mk(predictor.CompStride), mk(predictor.CompCAP))
		},
		"init above max": func() {
			predictor.New(predictor.Config{Entries: 16, Ways: 2, CounterMax: 3, Init: []uint8{4, 1}},
				mk(predictor.CompStride), mk(predictor.CompCAP))
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: New did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestComponentNamesResolve(t *testing.T) {
	// Every buildable component must carry a distinct non-"none" ID whose
	// String() matches its Name() — the open-namespace satellite: metrics
	// labels and classification breakdowns must never print "none".
	seen := map[predictor.Component]bool{}
	for _, name := range ComponentNames() {
		c, err := NewComponent(name)
		if err != nil {
			t.Fatalf("NewComponent(%q): %v", name, err)
		}
		if c.ID() == predictor.CompNone || seen[c.ID()] {
			t.Fatalf("component %q: bad or duplicate ID %v", name, c.ID())
		}
		seen[c.ID()] = true
		// Name() may carry a variant suffix (e.g. "stride+" for the
		// enhanced stride), but must always extend the ID's label.
		if s := c.ID().String(); !strings.HasPrefix(c.Name(), s) || s == "none" || s == "invalid" {
			t.Fatalf("component %q: ID().String()=%q Name()=%q must agree", name, s, c.Name())
		}
	}
	if _, err := NewComponent("bogus"); err == nil {
		t.Fatal("NewComponent(bogus) did not error")
	}
}

// TestSlotResetAndSquashAfterEviction drives a one-set, two-way load
// buffer past capacity. Every allocation resets the slot in every
// component, a re-allocated slot is reset again for its new load, and
// squashing a load whose entry was evicted after its Predict calls no
// component (its in-flight state left with the entry) but still pops
// the in-flight ring.
func TestSlotResetAndSquashAfterEviction(t *testing.T) {
	a := &scripted{id: predictor.CompStride}
	b := &scripted{id: predictor.CompCAP}
	tour := predictor.New(predictor.Config{Entries: 2, Ways: 2, CounterMax: 3}, a, b)
	refA := predictor.LoadRef{IP: 0x0}
	refB := predictor.LoadRef{IP: 0x4}
	refC := predictor.LoadRef{IP: 0x8}

	pa := tour.Predict(refA)
	pb := tour.Predict(refB)
	pc := tour.Predict(refC) // evicts A, the least recently used
	for _, c := range []*scripted{a, b} {
		p := c.predicted
		if len(p) != 3 || p[0] == p[1] || p[2] != p[0] {
			t.Fatalf("%s: predicted slots %v, want C to take over A's slot", c.id, p)
		}
		if !slices.Equal(c.resets, p) {
			t.Fatalf("%s: reset slots %v, want one reset per allocation %v", c.id, c.resets, p)
		}
	}

	tour.Squash(refC, pc)
	tour.Squash(refB, pb)
	tour.Squash(refA, pa) // A's entry is gone: no component call
	for _, c := range []*scripted{a, b} {
		if want := []int{c.predicted[2], c.predicted[1]}; !slices.Equal(c.squashed, want) {
			t.Fatalf("%s: squashed slots %v, want %v (C then B, nothing for evicted A)", c.id, c.squashed, want)
		}
	}
	// The in-flight ring is empty: a Resolve with no Predict panics.
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("in-flight ring still holds a prediction after squashing all three")
			}
		}()
		tour.Resolve(refA, pa, 0)
	}()
	// The squash did not re-allocate A: predicting it again takes a
	// fresh slot and resets it.
	tour.Resolve(refA, tour.Predict(refA), 0)
	if len(a.resets) != 4 {
		t.Fatalf("resets after re-predicting A: %v, want a fourth", a.resets)
	}
}

// lastPair builds the stand-alone last-address predictor and a one-way
// tournament over the same component configuration, both over an LB of
// the given geometry. A one-way tournament maps the component's opinion
// onto Addr/Predicted/Speculate exactly as Last does.
func lastPair(entries, ways int) (*predictor.Last, *predictor.Tournament) {
	lc := predictor.DefaultLastConfig()
	lc.Entries, lc.Ways = entries, ways
	return predictor.NewLast(lc), predictor.New(predictor.Config{Entries: entries, Ways: ways}, predictor.NewLastComponent(lc))
}

// TestLastImmediateMatchesStandalone: in a tournament the last-address
// component gets its slot at prediction time, like every component,
// while the stand-alone Last allocates at resolution. In immediate mode
// both leave the same LB contents after every load, so last's opinions
// (and every tournament that includes it) are unchanged. The stream
// cycles 12 static loads through an 8-entry LB, so it evicts.
func TestLastImmediateMatchesStandalone(t *testing.T) {
	last, tour := lastPair(8, 2)
	rng := uint32(0x2545F491)
	spec := 0
	for step := 0; step < 20_000; step++ {
		rng ^= rng << 13
		rng ^= rng >> 17
		rng ^= rng << 5
		ip := rng % 12 * 4
		addr := 0x1000 + ip*16
		if rng>>28 == 0 {
			addr += uint32(step) // an occasional fresh address
		}
		ref := predictor.LoadRef{IP: ip}
		pl, pt := last.Predict(ref), tour.Predict(ref)
		if pl.Addr != pt.Addr || pl.Predicted != pt.Predicted || pl.Speculate != pt.Speculate {
			t.Fatalf("step %d: last %+v, tournament %+v", step, pl, pt)
		}
		if pl.Speculate {
			spec++
		}
		last.Resolve(ref, pl, addr)
		tour.Resolve(ref, pt, addr)
	}
	if spec < 1000 {
		t.Fatalf("only %d speculations; the stream no longer exercises last", spec)
	}
}

// TestLastGapAllocatesAtPredict pins the behaviour that changed when
// the tournament's components moved under its one LB: under a
// prediction gap, loads still in flight already hold LB entries, so
// they can evict an older load's entry before it resolves. The
// stand-alone Last only allocates at resolution and keeps the entry.
func TestLastGapAllocatesAtPredict(t *testing.T) {
	last, tour := lastPair(2, 2) // one set of two ways
	gl, gt := pipeline.New(last, 4), pipeline.New(tour, 4)
	refA := predictor.LoadRef{IP: 0x0}
	for i := 0; i < 8; i++ {
		gl.Process(refA, 0xA000)
		gt.Process(refA, 0xA000)
	}
	gl.Drain()
	gt.Drain()

	// B and C enter the window unresolved, then A comes round again.
	for _, ip := range []uint32{0x4, 0x8} {
		ref := predictor.LoadRef{IP: ip}
		gl.Process(ref, ip<<12)
		gt.Process(ref, ip<<12)
	}
	pl := gl.Process(refA, 0xA000)
	pt := gt.Process(refA, 0xA000)
	if !pl.Speculate || pl.Addr != 0xA000 {
		t.Fatalf("stand-alone last = %+v, want a speculative 0xA000 (B and C hold no entry yet)", pl)
	}
	if pt.Predicted {
		t.Fatalf("tournament last = %+v, want no prediction (B and C evicted A at predict time)", pt)
	}
	gl.Drain()
	gt.Drain()
}
