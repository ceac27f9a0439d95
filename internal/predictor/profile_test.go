package predictor

import "testing"

func TestProfilerClassifiesConstant(t *testing.T) {
	p := NewProfiler()
	for i := 0; i < 40; i++ {
		p.Observe(0x100, 0x8000)
	}
	if got := p.Profile().Class(0x100); got != ClassConstant {
		t.Errorf("constant load classified as %v", got)
	}
}

func TestProfilerClassifiesStride(t *testing.T) {
	p := NewProfiler()
	for i := 0; i < 40; i++ {
		p.Observe(0x100, uint32(0x8000+16*i))
	}
	if got := p.Profile().Class(0x100); got != ClassStride {
		t.Errorf("stride load classified as %v", got)
	}
}

func TestProfilerClassifiesContext(t *testing.T) {
	p := NewProfiler()
	bases := []uint32{0x1010, 0x8058, 0x4024, 0x20c8}
	for i := 0; i < 80; i++ {
		p.Observe(0x100, bases[i%4])
	}
	if got := p.Profile().Class(0x100); got != ClassContext {
		t.Errorf("recurring load classified as %v", got)
	}
}

func TestProfilerClassifiesIrregular(t *testing.T) {
	p := NewProfiler()
	x := uint32(7)
	for i := 0; i < 80; i++ {
		x = x*1664525 + 1013904223
		p.Observe(0x100, x&^3)
	}
	if got := p.Profile().Class(0x100); got != ClassIrregular {
		t.Errorf("random load classified as %v", got)
	}
}

func TestProfilerUnknownBelowMinSamples(t *testing.T) {
	p := NewProfiler()
	for i := 0; i < 5; i++ {
		p.Observe(0x100, 0x8000)
	}
	if got := p.Profile().Class(0x100); got != ClassUnknown {
		t.Errorf("under-sampled load classified as %v", got)
	}
}

func TestProfileZeroValue(t *testing.T) {
	var p *Profile
	if p.Class(0x100) != ClassUnknown {
		t.Error("nil profile should return unknown")
	}
	var p2 Profile
	if p2.Class(0x100) != ClassUnknown {
		t.Error("empty profile should return unknown")
	}
	p2.Set(0x100, ClassStride)
	if p2.Class(0x100) != ClassStride {
		t.Error("Set/Class broken")
	}
}

func TestLoadClassString(t *testing.T) {
	want := map[LoadClass]string{
		ClassUnknown: "unknown", ClassConstant: "constant",
		ClassStride: "stride", ClassContext: "context",
		ClassIrregular: "irregular",
	}
	for c, s := range want {
		if c.String() != s {
			t.Errorf("LoadClass(%d).String() = %q, want %q", c, c.String(), s)
		}
	}
}

func TestProfiledFiltersIrregularLoads(t *testing.T) {
	// An irregular load pollutes the hybrid's tables; with a profile it
	// never reaches them. Measure that the profiled predictor makes no
	// predictions for the irregular IP while still predicting a regular
	// one.
	var prof Profile
	prof.Set(0x200, ClassIrregular)

	p := NewProfiled(NewHybrid(DefaultHybridConfig()), &prof)
	if p.Name() != "hybrid+profile" {
		t.Errorf("Name = %q", p.Name())
	}
	var regular, irregular result
	x := uint32(5)
	for i := 0; i < 200; i++ {
		// Regular: constant load.
		refR := LoadRef{IP: 0x100}
		pr := p.Predict(refR)
		regular.loads++
		if pr.Speculate && pr.Addr == 0x7000 {
			regular.specCorrect++
		}
		p.Resolve(refR, pr, 0x7000)
		// Irregular: random load.
		x = x*1664525 + 1013904223
		refI := LoadRef{IP: 0x200}
		pr = p.Predict(refI)
		if pr.Predicted {
			irregular.predicted++
		}
		p.Resolve(refI, pr, x&^3)
	}
	wantAtLeast(t, "regular specCorrect", regular.specCorrect, 150)
	wantZero(t, "irregular predicted", irregular.predicted)
}

func TestProfiledReducesMispredictionsOnMixedWork(t *testing.T) {
	// Train a profile on a prefix, then compare plain vs profiled hybrid
	// on work with an irregular load aliasing useful table entries.
	mk := func() []access {
		var seq []access
		lists := []uint32{0x1010, 0x8058, 0x4024, 0x20c8}
		x := uint32(99)
		for i := 0; i < 800; i++ {
			seq = append(seq, ld(0x100, lists[i%4]+8, 8))
			x = x*1664525 + 1013904223
			seq = append(seq, ld(0x200, x&^3, 0))
		}
		return seq
	}

	// Profile pass.
	prof := NewProfiler()
	for _, a := range mk() {
		prof.Observe(a.ref.IP, a.addr)
	}
	profile := prof.Profile()
	if profile.Class(0x200) != ClassIrregular {
		t.Fatalf("random IP classified as %v", profile.Class(0x200))
	}
	if got := profile.Class(0x100); got != ClassContext {
		t.Fatalf("list IP classified as %v", got)
	}

	// Small LT so pollution matters ("helps reducing predictor size").
	cfg := DefaultHybridConfig()
	cfg.CAP.LTEntries = 64
	cfg.CAP.PFTableEntries = 0
	cfg.CAP.PFBits = 0
	plain := run(NewHybrid(cfg), mk())
	profiled := run(NewProfiled(NewHybrid(cfg), profile), mk())

	if profiled.specCorrect <= plain.specCorrect {
		t.Errorf("profile assist should protect the small LT: plain=%d profiled=%d",
			plain.specCorrect, profiled.specCorrect)
	}
}
