package predictor

import "testing"

func TestHybridPredictsBothPatternClasses(t *testing.T) {
	p := NewHybrid(DefaultHybridConfig())
	// Interleave a long array walk (stride territory) with a linked-list
	// walk (CAP territory) on two static loads.
	var seq []access
	lists := []uint32{0x1010, 0x8058, 0x4024, 0x20c8}
	for i := 0; i < 200; i++ {
		seq = append(seq, ld(0x100, uint32(0x100000+16*i), 0))
		seq = append(seq, ld(0x200, lists[i%4]+8, 8))
	}
	r := run(p, seq)
	wantAtLeast(t, "specCorrect", r.specCorrect, 340) // out of 400
	if r.mispred > 8 {
		t.Errorf("mispredictions = %d, want few", r.mispred)
	}
}

func TestHybridBeatsComponentsOnMixedWork(t *testing.T) {
	mixed := func() []access {
		var seq []access
		lists := []uint32{0x1010, 0x8058, 0x4024, 0x20c8}
		for i := 0; i < 300; i++ {
			seq = append(seq, ld(0x100, uint32(0x100000+16*i), 0))
			seq = append(seq, ld(0x200, lists[i%4]+8, 8))
		}
		return seq
	}
	h := run(NewHybrid(DefaultHybridConfig()), mixed())
	s := run(NewStride(DefaultStrideConfig()), mixed())
	c := run(NewCAP(DefaultCAPConfig()), mixed())
	if h.specCorrect <= s.specCorrect {
		t.Errorf("hybrid (%d) should beat stride (%d) on mixed work", h.specCorrect, s.specCorrect)
	}
	// CAP alone cannot follow a long fresh stride (its LT never recurs),
	// so the hybrid must beat it too.
	if h.specCorrect <= c.specCorrect {
		t.Errorf("hybrid (%d) should beat CAP (%d) on mixed work", h.specCorrect, c.specCorrect)
	}
}

func TestHybridSelectorConverges(t *testing.T) {
	// On a pure long-stride load where CAP keeps failing (fresh addresses,
	// links never recur), the selector must migrate towards stride.
	p := NewHybrid(DefaultHybridConfig())
	ip := uint32(0x100)
	for i := 0; i < 400; i++ {
		ref := LoadRef{IP: ip}
		pr := p.Predict(ref)
		p.Resolve(ref, pr, uint32(0x200000+64*i))
	}
	if sel := selector(t, p, ip); sel > SelWeakStride {
		t.Errorf("selector state = %d, want stride side (at most %d)", sel, SelWeakStride)
	}
}

func TestHybridSelectorInitiallyWeakCAP(t *testing.T) {
	p := NewHybrid(DefaultHybridConfig())
	ref := LoadRef{IP: 0x40}
	pr := p.Predict(ref)
	p.Resolve(ref, pr, 0x1000)
	if sel := selector(t, p, ref.IP); sel != SelWeakCAP {
		t.Errorf("initial selector = %d, want weak-cap (%d)", sel, SelWeakCAP)
	}
}

func TestHybridStaticSelector(t *testing.T) {
	cfg := DefaultHybridConfig()
	cfg.StaticSelector = CompStride
	p := NewHybrid(cfg)
	// A constant load: both components become confident and agree; the
	// static selector must attribute the access to stride.
	ref := LoadRef{IP: 0x80, Offset: 4}
	for i := 0; i < 30; i++ {
		pr := p.Predict(ref)
		p.Resolve(ref, pr, 0x5010)
	}
	pr := p.Predict(ref)
	if !pr.Speculate {
		t.Fatal("expected confident prediction")
	}
	if pr.Selected != CompStride {
		t.Errorf("selected = %v, want stride (static selector)", pr.Selected)
	}
}

func TestHybridUpdatePolicies(t *testing.T) {
	// All three §4.3 policies must work; on stride-friendly work the
	// restrictive policies keep the LT emptier.
	work := func() []access {
		var seq []access
		for i := 0; i < 200; i++ {
			seq = append(seq, ld(0x100, uint32(0x100000+8*i), 0))
		}
		return seq
	}
	for _, pol := range []UpdatePolicy{UpdateAlways, UpdateUnlessStrideCorrect, UpdateUnlessStrideSelected} {
		cfg := DefaultHybridConfig()
		cfg.UpdatePolicy = pol
		r := run(NewHybrid(cfg), work())
		wantAtLeast(t, "specCorrect "+pol.String(), r.specCorrect, 180)
	}
	// PF bits already filter non-recurring updates, which would mask the
	// policy difference on a fresh stride; disable them for the count.
	lt := func(pol UpdatePolicy) int {
		cfg := DefaultHybridConfig()
		cfg.UpdatePolicy = pol
		cfg.CAP.PFBits = 0
		h := NewHybrid(cfg)
		run(h, work())
		_, capc := hybridParts(h)
		n := 0
		for _, e := range capc.lt {
			if e.linkValid {
				n++
			}
		}
		return n
	}
	if lt(UpdateUnlessStrideCorrect) >= lt(UpdateAlways) {
		t.Error("unless-stride-correct should record fewer links than always")
	}
}

func TestUpdatePolicyString(t *testing.T) {
	if UpdateAlways.String() != "always" ||
		UpdateUnlessStrideCorrect.String() != "unless-stride-correct" ||
		UpdateUnlessStrideSelected.String() != "unless-stride-selected" ||
		UpdatePolicy(9).String() != "invalid" {
		t.Error("UpdatePolicy.String wrong")
	}
}

func TestHybridReportsComponentOpinions(t *testing.T) {
	p := NewHybrid(DefaultHybridConfig())
	ref := LoadRef{IP: 0x100, Offset: 8}
	for i := 0; i < 20; i++ {
		pr := p.Predict(ref)
		p.Resolve(ref, pr, 0x7008)
	}
	p.Predict(ref)
	op := p.NewestOpinions()
	if !op.Stride.Predicted || !op.CAP.Predicted {
		t.Errorf("both components should report predictions on a constant load: %+v", op)
	}
	if !op.Stride.Confident || !op.CAP.Confident {
		t.Errorf("both components should be confident on a constant load: %+v", op)
	}
}

// hybridParts returns the hybrid's stride and CAP components.
func hybridParts(h *Tournament) (*StrideComponent, *CAPComponent) {
	return h.comps[h.stride].(*StrideComponent), h.comps[h.cap].(*CAPComponent)
}

// selector returns the hybrid's 2-bit selector state for ip: the CAP
// counter of its chooser entry, which the constant counter sum makes
// the paper's selector.
func selector(t *testing.T, h *Tournament, ip uint32) uint8 {
	t.Helper()
	slot, ok := h.lb.Lookup(ip)
	if !ok {
		t.Fatal("LB entry missing")
	}
	return h.lb.At(slot).ctr[h.cap]
}

// TestSelectorStatsRecordRule pins the Fig. 8 tally: only loads on
// which both stride and CAP were confident count, each under its
// selector state, and a mis-selection is a wrong speculative access
// the other component had right.
func TestSelectorStatsRecordRule(t *testing.T) {
	var s SelectorStats
	conf := func(addr uint32) ComponentPrediction {
		return ComponentPrediction{Addr: addr, Predicted: true, Confident: true}
	}
	capSel := Prediction{Addr: 10, Predicted: true, Speculate: true, Selected: CompCAP}

	// Only stride confident: not a dual-confident load.
	s.record(conf(10), ComponentPrediction{Addr: 10, Predicted: true}, SelStrongCAP, capSel, 10)
	if s != (SelectorStats{}) {
		t.Fatalf("a one-confident load was tallied: %+v", s)
	}

	s.record(conf(99), conf(10), SelStrongCAP, capSel, 10) // correct, CAP selected
	if s.DualConfident != 1 || s.States[SelStrongCAP] != 1 {
		t.Fatalf("selector stats wrong: %+v", s)
	}

	// Mis-selection: selected CAP, wrong, stride had it right.
	miss := capSel
	miss.Addr = 50
	s.record(conf(77), conf(50), SelStrongCAP, miss, 77)
	if s.MisSelected != 1 || s.DualConfident != 2 {
		t.Fatalf("mis-selection not counted: %+v", s)
	}

	// Selected stride, wrong, CAP had it right: the other side is CAP.
	strideMiss := Prediction{Addr: 5, Predicted: true, Speculate: true, Selected: CompStride}
	s.record(conf(5), conf(6), SelWeakStride, strideMiss, 6)
	if s.MisSelected != 2 || s.States[SelWeakStride] != 1 {
		t.Fatalf("stride mis-selection not counted: %+v", s)
	}

	// Both wrong: not a mis-selection.
	bothWrong := capSel
	bothWrong.Addr = 1
	s.record(conf(2), conf(1), SelStrongCAP, bothWrong, 3)
	if s.MisSelected != 2 || s.DualConfident != 4 {
		t.Errorf("both-wrong must count as dual-confident but not as mis-selection: %+v", s)
	}
}

// TestSelectorStatsStateOutOfRange pins the guard for states beyond the
// 2-bit range, which an N-way tournament's winner counter can reach:
// the load is dual-confident but filed under no state.
func TestSelectorStatsStateOutOfRange(t *testing.T) {
	var s SelectorStats
	conf := ComponentPrediction{Addr: 1, Predicted: true, Confident: true}
	for _, state := range []uint8{5, 200} {
		s.record(conf, conf, state, Prediction{Addr: 1, Predicted: true, Speculate: true, Selected: CompCAP}, 1)
	}
	if s.DualConfident != 2 || s.States != [4]int64{} {
		t.Fatalf("out-of-range state: %+v", s)
	}
}

func TestSelectorStatsMerge(t *testing.T) {
	a := SelectorStats{DualConfident: 3, States: [4]int64{1, 0, 2, 0}, MisSelected: 1}
	b := SelectorStats{DualConfident: 2, States: [4]int64{0, 1, 0, 1}, MisSelected: 0}
	a.Merge(b)
	if want := (SelectorStats{DualConfident: 5, States: [4]int64{1, 1, 2, 1}, MisSelected: 1}); a != want {
		t.Errorf("merge = %+v, want %+v", a, want)
	}
}
