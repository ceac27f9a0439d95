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
	pr := p.Predict(ref)
	if !pr.Stride.Predicted || !pr.CAP.Predicted {
		t.Errorf("both components should report predictions on a constant load: %+v", pr)
	}
	if !pr.Stride.Confident || !pr.CAP.Confident {
		t.Errorf("both components should be confident on a constant load: %+v", pr)
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
