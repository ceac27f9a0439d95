package predictor_test

import (
	"slices"
	"testing"

	"capred/internal/predictor"
)

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
