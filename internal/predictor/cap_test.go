package predictor

import "testing"

// tinyCAP returns a small config for aliasing-sensitive tests.
func tinyCAP() CAPConfig {
	cfg := DefaultCAPConfig()
	cfg.LBEntries, cfg.LBWays = 64, 2
	cfg.LTEntries = 64
	return cfg
}

func TestCAPPredictsLinkedListWalk(t *testing.T) {
	// §2.1: the pattern 18-88-48-28 (bases 10-80-40-20, offset 8) repeats;
	// a context predictor must predict it, a stride predictor cannot.
	p := NewCAP(DefaultCAPConfig())
	walk := listWalk(0x100, []uint32{0x1010, 0x8058, 0x4024, 0x20c8}, 8)
	r := run(p, repeatSeq(walk, 50))
	// 200 loads; training costs a few traversals (PF bits require links be
	// seen twice; confidence needs two correct predictions).
	wantAtLeast(t, "specCorrect", r.specCorrect, 150)
	if r.mispred > 4 {
		t.Errorf("mispredictions = %d, want few", r.mispred)
	}
}

func TestCAPPredictsCallSitePattern(t *testing.T) {
	// §2.2 xlmatch: loads follow A1 A1 C U A2 A2 depending on call site.
	p := NewCAP(DefaultCAPConfig())
	walk := listWalk(0x200, []uint32{0xA110, 0xA110, 0xC058, 0xD0a4, 0xA230, 0xA230}, 4)
	r := run(p, repeatSeq(walk, 50))
	wantAtLeast(t, "specCorrect", r.specCorrect, 220)
	if r.mispred > 6 {
		t.Errorf("mispredictions = %d, want few", r.mispred)
	}
}

func TestCAPPredictsShortStrideLoop(t *testing.T) {
	// §4.3: a short, repeatedly executed stride run (the JAVA inner loop)
	// is 100% context-predictable once the links are recorded.
	p := NewCAP(DefaultCAPConfig())
	var walk []access
	for i := 0; i < 8; i++ {
		walk = append(walk, ld(0x300, uint32(0x939a+2*i), 0))
	}
	r := run(p, repeatSeq(walk, 40))
	wantAtLeast(t, "specCorrect", r.specCorrect, 240)
}

func TestCAPGlobalCorrelationSharesLinks(t *testing.T) {
	// Two static loads walk the same list: val at offset 2, next at
	// offset 8. With the base-address scheme they share LT links, so the
	// combined predictor trains faster and predicts more.
	bases := []uint32{0x1010, 0x8058, 0x4024, 0x20c8, 0x60e4}
	build := func(gc bool) result {
		cfg := DefaultCAPConfig()
		cfg.GlobalCorrelation = gc
		p := NewCAP(cfg)
		var seq []access
		for rep := 0; rep < 6; rep++ {
			for _, b := range bases {
				seq = append(seq, ld(0x100, b+2, 2), ld(0x200, b+8, 8))
			}
		}
		return run(p, seq)
	}
	with := build(true)
	without := build(false)
	if with.specCorrect <= without.specCorrect {
		t.Errorf("global correlation should increase correct predictions: with=%d without=%d",
			with.specCorrect, without.specCorrect)
	}
}

func TestCAPHistoryLengthDisambiguatesDirection(t *testing.T) {
	// §3.2 / figure 2: in a doubly linked list traversed alternately
	// forward and backward, the val field needs two addresses of history
	// to know the direction.
	bases := []uint32{0x1010, 0x2048, 0x30a4, 0x40c8}
	walk := func() []access {
		var seq []access
		for _, b := range bases { // forward
			seq = append(seq, ld(0x100, b+2, 2))
		}
		for i := len(bases) - 2; i > 0; i-- { // backward (endpoints shared)
			seq = append(seq, ld(0x100, bases[i]+2, 2))
		}
		return seq
	}()
	build := func(histLen int) result {
		cfg := DefaultCAPConfig()
		cfg.HistoryLen = histLen
		p := NewCAP(cfg)
		return run(p, repeatSeq(walk, 60))
	}
	short := build(1)
	long := build(4)
	if long.specCorrect <= short.specCorrect {
		t.Errorf("longer history should disambiguate direction: len4=%d len1=%d",
			long.specCorrect, short.specCorrect)
	}
}

func TestCAPLTTagsSuppressAliasMispredictions(t *testing.T) {
	// With a tiny LT, two unrelated loads alias. Tags convert alias
	// mispredictions into no-predictions (§3.4).
	mk := func(tagBits int) result {
		cfg := tinyCAP()
		cfg.TagBits = tagBits
		cfg.PFBits = 0 // isolate the tag mechanism
		cfg.CF = CFConfig{}
		p := NewCAP(cfg)
		var seq []access
		// Load 1: a stable recurring walk. Load 2: a long pseudo-random
		// sequence sharing the LT.
		walkBases := []uint32{0x1010, 0x8058, 0x4024, 0x20c8}
		rnd := uint32(12345)
		for rep := 0; rep < 200; rep++ {
			b := walkBases[rep%len(walkBases)]
			seq = append(seq, ld(0x100, b+8, 8))
			rnd = rnd*1664525 + 1013904223
			seq = append(seq, ld(0x200, rnd&0xFFFF_FFFC, 4))
		}
		return run(p, seq)
	}
	tagged := mk(8)
	untagged := mk(0)
	if tagged.mispred >= untagged.mispred {
		t.Errorf("LT tags should cut mispredictions: tagged=%d untagged=%d",
			tagged.mispred, untagged.mispred)
	}
}

func TestCAPPFBitsProtectLinksFromPollution(t *testing.T) {
	// §3.5: a long non-recurring sequence must not evict established
	// links. Train a walk, pollute via another load, then measure how
	// fast the walk predicts again.
	mk := func(pfBits int) (afterPollution result) {
		cfg := tinyCAP()
		cfg.PFBits = pfBits
		p := NewCAP(cfg)
		walk := listWalk(0x100, []uint32{0x1010, 0x8058, 0x4024, 0x20c8}, 8)
		run(p, repeatSeq(walk, 20)) // train
		// Pollute: 500 distinct addresses through another static load.
		var noise []access
		rnd := uint32(99)
		for i := 0; i < 500; i++ {
			rnd = rnd*1664525 + 1013904223
			noise = append(noise, ld(0x200, rnd&0xFFFF_FFFC, 4))
		}
		run(p, noise)
		return run(p, repeatSeq(walk, 3))
	}
	withPF := mk(4)
	withoutPF := mk(0)
	if withPF.specCorrect <= withoutPF.specCorrect {
		t.Errorf("PF bits should preserve links across pollution: with=%d without=%d",
			withPF.specCorrect, withoutPF.specCorrect)
	}
}

func TestCAPPFBitsRequireLinkSeenTwice(t *testing.T) {
	// With PF on, a link is recorded only on the second consecutive
	// identical update, adding one traversal of training time.
	walk := listWalk(0x100, []uint32{0x1010, 0x8058, 0x4024, 0x20c8}, 8)
	mk := func(pfBits int) result {
		cfg := DefaultCAPConfig()
		cfg.PFBits = pfBits
		return run(NewCAP(cfg), repeatSeq(walk, 6))
	}
	with := mk(4)
	without := mk(0)
	if with.specCorrect >= without.specCorrect {
		t.Errorf("PF bits should lengthen training: with=%d without=%d",
			with.specCorrect, without.specCorrect)
	}
	if with.specCorrect == 0 {
		t.Error("PF bits must not prevent training entirely")
	}
}

func TestCAPExternalPFTable(t *testing.T) {
	// The [Mora98]-style external PF table must behave like in-LT PF bits
	// for a simple recurring pattern.
	cfg := DefaultCAPConfig()
	cfg.PFTableEntries = 16384
	p := NewCAP(cfg)
	walk := listWalk(0x100, []uint32{0x1010, 0x8058, 0x4024, 0x20c8}, 8)
	r := run(p, repeatSeq(walk, 50))
	wantAtLeast(t, "specCorrect", r.specCorrect, 150)
}

func TestCAPSetAssociativeLT(t *testing.T) {
	cfg := DefaultCAPConfig()
	cfg.LTWays = 2
	p := NewCAP(cfg)
	walk := listWalk(0x100, []uint32{0x1010, 0x8058, 0x4024, 0x20c8}, 8)
	r := run(p, repeatSeq(walk, 50))
	wantAtLeast(t, "specCorrect", r.specCorrect, 150)
	if r.mispred > 4 {
		t.Errorf("mispredictions = %d, want few", r.mispred)
	}
}

func TestCAPConfigValidation(t *testing.T) {
	for name, mutate := range map[string]func(*CAPConfig){
		"assoc LT without tags": func(c *CAPConfig) { c.LTWays = 2; c.TagBits = 0 },
		"zero history":          func(c *CAPConfig) { c.HistoryLen = 0 },
		"huge tags":             func(c *CAPConfig) { c.TagBits = 17 },
		"non-pow2 LT":           func(c *CAPConfig) { c.LTEntries = 1000 },
		"non-pow2 PF table":     func(c *CAPConfig) { c.PFTableEntries = 77 },
	} {
		cfg := DefaultCAPConfig()
		mutate(&cfg)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			NewCAP(cfg)
		}()
	}
}

func TestCAPAdvanceAges(t *testing.T) {
	// The shift(m)-xor scheme must age addresses out after HistoryLen
	// updates: two histories that differ only in an old address converge.
	core := NewCAPComponent(DefaultCAPConfig())
	h1, h2 := uint32(0), uint32(0)
	h1 = core.advance(h1, 0xAAAA0000)
	h2 = core.advance(h2, 0x55550000)
	if h1 == h2 {
		t.Fatal("different addresses should produce different histories")
	}
	for i := 0; i < core.cfg.HistoryLen; i++ {
		b := uint32(0x1000 * (i + 1))
		h1 = core.advance(h1, b)
		h2 = core.advance(h2, b)
	}
	if h1 != h2 {
		t.Errorf("histories did not converge after %d common updates: %x vs %x",
			core.cfg.HistoryLen, h1, h2)
	}
}

func TestCAPBaseAddressArithmetic(t *testing.T) {
	core := NewCAPComponent(DefaultCAPConfig())
	// Positive offset within 8 bits.
	if got := core.base(0x1008, 8); got != 0x1000 {
		t.Errorf("base(0x1008, 8) = %#x, want 0x1000", got)
	}
	// Negative offset: low 8 bits of -4 are 0xFC; base wraps consistently.
	b := core.base(0x0FFC, -4)
	if b+core.offLow(-4) != 0x0FFC {
		t.Error("negative-offset base arithmetic must reconstruct the address")
	}
	// Offsets beyond 8 bits keep their high part in the base (§3.3).
	if got := core.base(0x2104, 0x104); got != 0x2100 {
		t.Errorf("base(0x2104, 0x104) = %#x, want 0x2100 (only 8 LSBs stripped)", got)
	}
}

func TestCAPWithoutGlobalCorrelationUsesFullAddresses(t *testing.T) {
	cfg := DefaultCAPConfig()
	cfg.GlobalCorrelation = false
	core := NewCAPComponent(cfg)
	if got := core.base(0x1008, 8); got != 0x1008 {
		t.Errorf("without global correlation, base = %#x, want full address 0x1008", got)
	}
}

func TestCAPPredictAhead(t *testing.T) {
	// Train on a walk, then ask for the next three addresses at once —
	// the §5.4 multiple-ahead mechanism.
	p := NewCAP(DefaultCAPConfig())
	bases := []uint32{0x1010, 0x8058, 0x4024, 0x20c8}
	walk := listWalk(0x100, bases, 8)
	run(p, repeatSeq(walk, 40))

	// After the runs end, the history points past the last node; the
	// chain should name the next traversal's first three nodes.
	ahead := p.PredictAhead(LoadRef{IP: 0x100, Offset: 8}, 3)
	if len(ahead) != 3 {
		t.Fatalf("PredictAhead returned %d addresses, want 3", len(ahead))
	}
	want := []uint32{bases[0] + 8, bases[1] + 8, bases[2] + 8}
	for i := range want {
		if ahead[i] != want[i] {
			t.Errorf("ahead[%d] = %#x, want %#x", i, ahead[i], want[i])
		}
	}
}

func TestCAPPredictAheadUntrained(t *testing.T) {
	p := NewCAP(DefaultCAPConfig())
	if got := p.PredictAhead(LoadRef{IP: 0x999}, 4); got != nil {
		t.Errorf("untrained PredictAhead = %v, want nil", got)
	}
}

func TestCAPPredictAheadStopsAtChainEnd(t *testing.T) {
	// A single resolved pair (A -> B) can chain at most a couple of steps
	// before the links run out; the result must be truncated, not padded.
	cfg := DefaultCAPConfig()
	cfg.PFBits = 0 // train links on first sight
	p := NewCAP(cfg)
	ref := LoadRef{IP: 0x100, Offset: 0}
	for _, a := range []uint32{0x1010, 0x8058} {
		pr := p.Predict(ref)
		p.Resolve(ref, pr, a)
	}
	ahead := p.PredictAhead(ref, 8)
	if len(ahead) >= 8 {
		t.Errorf("chain should end early, got %d addresses", len(ahead))
	}
}
