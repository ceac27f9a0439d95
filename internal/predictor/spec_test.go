package predictor

import "testing"

// runGap drives a predictor in pipelined mode: each prediction is resolved
// only after `gap` further predictions have been made (§5).
func runGap(p Predictor, seq []access, gap int) result {
	var r result
	type pend struct {
		a  access
		pr Prediction
	}
	var q []pend
	flush := func(n int) {
		for len(q) > n {
			it := q[0]
			q = q[1:]
			p.Resolve(it.a.ref, it.pr, it.a.addr)
		}
	}
	for _, a := range seq {
		flush(gap - 1)
		pr := p.Predict(a.ref)
		r.loads++
		if pr.Predicted {
			r.predicted++
			if pr.Addr == a.addr {
				r.correct++
			}
		}
		if pr.Speculate {
			r.speculated++
			if pr.Addr == a.addr {
				r.specCorrect++
			} else {
				r.mispred++
			}
		}
		q = append(q, pend{a, pr})
	}
	flush(0)
	return r
}

func specStrideCfg() StrideConfig {
	cfg := DefaultStrideConfig()
	cfg.Interval = false // isolate pipelining effects
	cfg.CF = CFConfig{}
	return cfg
}

func TestSpecStrideCleanArrayUnaffectedByGap(t *testing.T) {
	// With no breaks, a stride predictor extrapolates through the gap and
	// loses nothing.
	seq := strideSeq(0x100, 0x8000, 8, 200)
	imm := run(NewStride(BasicStrideConfig()), seq)
	gap := runGap(NewStride(specStrideCfg()), seq, 8)
	// The gap lengthens warm-up (confidence builds only as predictions
	// resolve, a gap later) but must cost nothing in steady state: allow
	// about two gaps of warm-up, nothing more.
	if gap.specCorrect < imm.specCorrect-16 {
		t.Errorf("gap hurt a clean stride too much: imm=%d gap=%d",
			imm.specCorrect, gap.specCorrect)
	}
	wantZero(t, "mispred", gap.mispred)
}

func TestSpecStrideCatchUpAfterBreak(t *testing.T) {
	// One address jump mid-stream. The catch-up mechanism (§5.2) must
	// restore correct predictions right after the offending load
	// resolves, not after the whole window drains twice.
	var seq []access
	for i := 0; i < 100; i++ {
		seq = append(seq, ld(0x100, uint32(0x8000+8*i), 0))
	}
	for i := 0; i < 100; i++ {
		seq = append(seq, ld(0x100, uint32(0x20000+8*i), 0))
	}
	r := runGap(NewStride(specStrideCfg()), seq, 8)
	// The break costs about one gap of mispredictions plus confidence
	// rebuild, nothing more.
	wantAtLeast(t, "specCorrect", r.specCorrect, 160)
	if r.mispred > 16 {
		t.Errorf("mispredictions = %d, want about one gap worth", r.mispred)
	}
}

func TestSpecCAPStopsSpeculatingWhileMispredictionInFlight(t *testing.T) {
	p := NewCAP(DefaultCAPConfig())
	// Train on a walk, then change the list order to force a mispredict.
	walk := listWalk(0x100, []uint32{0x1010, 0x8058, 0x4024, 0x20c8}, 8)
	runGap(p, repeatSeq(walk, 30), 4)
	changed := listWalk(0x100, []uint32{0x1010, 0x4024, 0x8058, 0x20c8}, 8)
	r := runGap(p, repeatSeq(changed, 2), 4)
	// During the poisoned window CAP must not speculate; mispredictions
	// are bounded by roughly the in-flight window at the change.
	if r.mispred > 5 {
		t.Errorf("mispredictions = %d, want bounded by the in-flight window", r.mispred)
	}
}

func TestSpecCAPTightLoopDominoEffect(t *testing.T) {
	// §5.2: in a tight list-traversal loop whose period is shorter than
	// the prediction gap, a context predictor cannot maintain speculative
	// history and prediction rate collapses versus immediate update.
	walk := listWalk(0x100, []uint32{0x1010, 0x8058, 0x4024, 0x20c8}, 8)
	seq := repeatSeq(walk, 60)

	imm := run(NewCAP(DefaultCAPConfig()), seq)
	gap := runGap(NewCAP(DefaultCAPConfig()), seq, 12)

	if gap.specCorrect >= imm.specCorrect {
		t.Errorf("a gap longer than the loop should hurt CAP: imm=%d gap=%d",
			imm.specCorrect, gap.specCorrect)
	}
}

func TestSpecCAPRecoversWhenInstanceSpacingExceedsGap(t *testing.T) {
	// §5.2: the misprediction/warm-up chain terminates when the time gap
	// between two instances of the same static load is large enough for
	// pending references to resolve. Interleave five filler loads between
	// walk instances so the spacing (6) exceeds the gap (4): CAP must
	// train and predict the walk.
	bases := []uint32{0x1010, 0x8058, 0x4024, 0x20c8}
	var seq []access
	for rep := 0; rep < 60; rep++ {
		for _, b := range bases {
			seq = append(seq, ld(0x100, b+8, 8))
			for f := 0; f < 5; f++ {
				ip := uint32(0x900 + 16*f)
				seq = append(seq, ld(ip, 0x50000+16*uint32(f), 0))
			}
		}
	}
	p := NewCAP(DefaultCAPConfig())

	// Count walk-load outcomes only.
	var walkLoads, walkCorrect int
	type pend struct {
		a  access
		pr Prediction
	}
	var q []pend
	flush := func(n int) {
		for len(q) > n {
			it := q[0]
			q = q[1:]
			p.Resolve(it.a.ref, it.pr, it.a.addr)
		}
	}
	for _, a := range seq {
		flush(3)
		pr := p.Predict(a.ref)
		if a.ref.IP == 0x100 {
			walkLoads++
			if pr.Speculate && pr.Addr == a.addr {
				walkCorrect++
			}
		}
		q = append(q, pend{a, pr})
	}
	flush(0)
	wantAtLeast(t, "walkCorrect", walkCorrect, walkLoads/2)
}

func TestSpecHybridGapDegradesGracefully(t *testing.T) {
	// Fig. 11 shape: the prediction rate drops from immediate to gapped
	// operation (the gap kills context prediction of the tightest loops)
	// but the predictor remains clearly useful, and degradation is
	// monotone in the gap.
	var seq []access
	lists := []uint32{0x1010, 0x8058, 0x4024, 0x20c8, 0x60e4, 0x70a8, 0x90cc, 0xa014}
	for i := 0; i < 600; i++ {
		seq = append(seq,
			ld(0x100, uint32(0x100000+16*i), 0),       // long stride
			ld(0x300, 0x5010, 4),                      // constant
			ld(0x400, uint32(0x200000+4*i), 0),        // long stride
			ld(0x500, 0x6020, 8),                      // constant
			ld(0x200, lists[i%len(lists)]+8, 8),       // list walk (spacing 6)
			ld(0x600, uint32(0x300000+64*(i%100)), 0)) // wrapping stride
	}
	imm := run(NewHybrid(DefaultHybridConfig()), seq)
	g4 := runGap(NewHybrid(DefaultHybridConfig()), seq, 4)
	g12 := runGap(NewHybrid(DefaultHybridConfig()), seq, 12)

	// At gap 4 every stream's instance spacing (6) exceeds the gap, so
	// almost nothing is lost. At gap 12 the list walk's context chain can
	// no longer be maintained (§5.2) and the rate visibly drops, yet the
	// predictor stays clearly useful — the Fig. 11 shape.
	if g4.specCorrect > imm.specCorrect {
		t.Errorf("gapped cannot beat immediate: imm=%d g4=%d", imm.specCorrect, g4.specCorrect)
	}
	wantAtLeast(t, "g4 specCorrect", g4.specCorrect, imm.specCorrect*9/10)
	if g12.specCorrect >= g4.specCorrect {
		t.Errorf("a gap beyond the loop period must cost predictions: g4=%d g12=%d",
			g4.specCorrect, g12.specCorrect)
	}
	wantAtLeast(t, "g12 specCorrect", g12.specCorrect, imm.specCorrect*55/100)
}

func TestSpecPendingCounterDrains(t *testing.T) {
	// After all resolutions, internal pending counters must return to
	// zero so the next Predict reads the architectural state again.
	p := NewCAP(DefaultCAPConfig())
	walk := listWalk(0x100, []uint32{0x1010, 0x8058, 0x4024, 0x20c8}, 8)
	runGap(p, repeatSeq(walk, 20), 6)
	slot, ok := p.lb.Lookup(0x100)
	if !ok {
		t.Fatal("LB entry missing")
	}
	cs := &p.comp.st[slot]
	if cs.pending != 0 {
		t.Errorf("pending = %d after drain, want 0", cs.pending)
	}
	if cs.poisoned {
		t.Error("poisoned flag should clear after drain")
	}

	// The same holds for both components under the hybrid's chooser.
	h := NewHybrid(DefaultHybridConfig())
	runGap(h, repeatSeq(walk, 20), 6)
	slot, ok = h.lb.Lookup(0x100)
	if !ok {
		t.Fatal("hybrid LB entry missing")
	}
	strc, capc := hybridParts(h)
	if sp, cp := strc.st[slot].pending, capc.st[slot].pending; sp != 0 || cp != 0 {
		t.Errorf("hybrid pending after drain: stride=%d cap=%d, want 0", sp, cp)
	}
	if capc.st[slot].poisoned {
		t.Error("hybrid CAP poisoned flag should clear after drain")
	}
	if h.n != 0 {
		t.Errorf("hybrid in-flight ring holds %d after drain, want 0", h.n)
	}
}

func TestSquashRestoresStrideConsistency(t *testing.T) {
	// Predict a few instances, squash the youngest (wrong path), then
	// resolve the rest: pending must balance and steady-state prediction
	// must continue as if the wrong-path instances never existed.
	cfg := specStrideCfg()
	p := NewStride(cfg)
	ref := LoadRef{IP: 0x100}
	// Warm up in immediate fashion.
	for i := 0; i < 10; i++ {
		pr := p.Predict(ref)
		p.Resolve(ref, pr, uint32(0x1000+8*i))
	}
	// Three in-flight predictions; the last two are wrong-path.
	pr1 := p.Predict(ref)
	pr2 := p.Predict(ref)
	pr3 := p.Predict(ref)
	p.Squash(ref, pr3)
	p.Squash(ref, pr2)
	p.Resolve(ref, pr1, 0x1000+8*10)
	slot, ok := p.lb.Lookup(ref.IP)
	if !ok {
		t.Fatal("entry missing")
	}
	if st := &p.comp.st[slot]; st.pending != 0 {
		t.Errorf("pending = %d after squash+resolve, want 0", st.pending)
	}
	// The next prediction must be correct again.
	pr := p.Predict(ref)
	if !pr.Predicted || pr.Addr != 0x1000+8*11 {
		t.Errorf("post-squash prediction = %+v, want next stride element", pr)
	}
}

func TestSquashRestoresCAPConsistency(t *testing.T) {
	p := NewCAP(DefaultCAPConfig())
	walk := listWalk(0x100, []uint32{0x1010, 0x8058, 0x4024, 0x20c8}, 8)
	run(p, repeatSeq(walk, 30)) // train architecturally

	ref := LoadRef{IP: 0x100, Offset: 8}
	pr1 := p.Predict(ref)
	pr2 := p.Predict(ref)
	p.Squash(ref, pr2)
	slot, ok := p.lb.Lookup(ref.IP)
	if !ok {
		t.Fatal("entry missing")
	}
	cs := &p.comp.st[slot]
	if cs.pending != 1 {
		t.Errorf("pending = %d after one squash, want 1", cs.pending)
	}
	p.Resolve(ref, pr1, pr1.Addr) // resolve correctly: the walk advanced one node
	if cs.pending != 0 || cs.poisoned {
		t.Errorf("state after drain: pending=%d poisoned=%v", cs.pending, cs.poisoned)
	}
	// With nothing in flight, the next Predict must use the architectural
	// history, whatever the stale speculative history holds.
	cs.specHist, cs.specValid = ^cs.hist, false
	want := p.comp.predictFrom(cs, cs.hist, true, ref)
	if !want.Predicted {
		t.Fatal("trained walk has no link for the architectural history")
	}
	if got := p.comp.Predict(slot, ref); got != want {
		t.Errorf("post-drain prediction = %+v, want the architectural history's %+v", got, want)
	}
	p.comp.Squash(slot)
	// Architectural history must be intact: continue the walk from where
	// the resolved prediction left it (rotated by one node) and predictions
	// must keep flowing immediately.
	rotated := listWalk(0x100, []uint32{0x8058, 0x4024, 0x20c8, 0x1010}, 8)
	r := run(p, repeatSeq(rotated, 3))
	wantAtLeast(t, "post-squash specCorrect", r.specCorrect, 9)
}

func TestHybridSquash(t *testing.T) {
	p := NewHybrid(DefaultHybridConfig())
	ref := LoadRef{IP: 0x40}
	for i := 0; i < 10; i++ {
		pr := p.Predict(ref)
		p.Resolve(ref, pr, 0x7000)
	}
	pr := p.Predict(ref)
	p.Squash(ref, pr)
	slot, ok := p.lb.Lookup(ref.IP)
	if !ok {
		t.Fatal("entry missing")
	}
	strc, capc := hybridParts(p)
	if sp, cp := strc.st[slot].pending, capc.st[slot].pending; sp != 0 || cp != 0 {
		t.Errorf("pending after squash: stride=%d cap=%d", sp, cp)
	}
	// Squash of an unknown IP must be a no-op, not a panic.
	p.Squash(LoadRef{IP: 0xFFFF_0000}, Prediction{})
}
