package sim

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"capred/internal/predictor"
	"capred/internal/trace"
	"capred/internal/workload"
)

// testCfg keeps experiment tests fast; rates at this scale are a few
// points below the converged ones but every shape assertion holds.
func testCfg() Config { return Config{EventsPerTrace: 100_000} }

func TestRunTraceCountsLoads(t *testing.T) {
	spec, _ := workload.ByName("INT_go")
	src := trace.NewLimit(spec.Open(), 50_000)
	c, err := RunTrace(src, predictor.DefaultHybridConfig().New(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if c.Loads == 0 {
		t.Fatal("no loads recorded")
	}
	if c.Speculated > c.Loads || c.SpecCorrect > c.Speculated {
		t.Errorf("counter invariants violated: %+v", c)
	}
}

func TestRunTraceGapMatchesPipelinedMode(t *testing.T) {
	spec, _ := workload.ByName("JAV_aud")
	src := trace.NewLimit(spec.Open(), 50_000)
	c, err := RunTrace(src, predictor.NewHybrid(predictor.DefaultHybridConfig()), 8)
	if err != nil {
		t.Fatal(err)
	}
	if c.Loads == 0 || c.SpecCorrect == 0 {
		t.Fatalf("gapped run produced no predictions: %+v", c)
	}
}

func TestFig5Shape(t *testing.T) {
	// The footprint-heavy suites (NT, W95) train the CAP slowly — their
	// CAP-over-stride margin needs more than the quick-test budget.
	r := Fig5(Config{EventsPerTrace: 300_000})
	rate := func(suite, col string) float64 { return value(t, r, suite, col) }
	s, c, h := rate("Average", "stride rate"), rate("Average", "cap rate"), rate("Average", "hybrid rate")

	if !(h > s) {
		t.Errorf("hybrid rate (%.3f) must beat stride (%.3f)", h, s)
	}
	if !(h > c) {
		t.Errorf("hybrid rate (%.3f) must beat CAP (%.3f)", h, c)
	}
	// The paper's headline band: hybrid around 67%, accuracy near 99%.
	if h < 0.55 || h > 0.80 {
		t.Errorf("hybrid rate %.3f outside the paper's band", h)
	}
	for _, col := range []string{"stride acc", "cap acc", "hybrid acc"} {
		if acc := rate("Average", col); acc < 0.98 {
			t.Errorf("%s %.4f below the paper's ≈99%% regime", col, acc)
		}
	}
	// MM is the suite where the stride predictor wins (§4.2).
	if !(rate("MM", "stride rate") > rate("MM", "cap rate")) {
		t.Error("on MM, stride must beat CAP")
	}
	// Everywhere else CAP beats the enhanced stride.
	for _, suite := range workload.SuiteNames() {
		if suite == "MM" {
			continue
		}
		if cp, st := rate(suite, "cap rate"), rate(suite, "stride rate"); !(cp > st) {
			t.Errorf("on %s, CAP (%.3f) should beat stride (%.3f)", suite, cp, st)
		}
	}
	// TPC is the least predictable suite for the hybrid.
	for _, suite := range workload.SuiteNames() {
		if suite == "TPC" {
			continue
		}
		if rate("TPC", "hybrid rate") > rate(suite, "hybrid rate") {
			t.Errorf("TPC should have the lowest hybrid rate, but %s is lower", suite)
		}
	}
	if r.Table().Rows() != 9 {
		t.Error("Fig5 table should have 9 rows")
	}
}

func TestFig6Shape(t *testing.T) {
	r := Fig6(testCfg())
	// Geometry order: 2K2w, 4K1w, 4K2w, 4K4w, 8K2w.
	rate := func(i int) float64 { return value(t, r, "Average", Fig6Geometries()[i].String()) }
	if !(rate(2) >= rate(0)) {
		t.Errorf("4K2w (%.3f) should beat 2K2w (%.3f)", rate(2), rate(0))
	}
	if !(rate(2) >= rate(1)) {
		t.Errorf("2-way (%.3f) should beat direct-mapped (%.3f) at 4K (the paper: 2-way is a definite win)", rate(2), rate(1))
	}
	if !(rate(4) >= rate(2)-0.005) {
		t.Errorf("8K2w (%.3f) should not lose to 4K2w (%.3f)", rate(4), rate(2))
	}
	if r.Table().Rows() != 9 {
		t.Error("Fig6 table rows")
	}
}

func TestFig9Shape(t *testing.T) {
	r := Fig9(Config{EventsPerTrace: 60_000})
	lengths := Fig9Lengths()
	series := func(col string) []float64 {
		var out []float64
		for _, hl := range lengths {
			out = append(out, value(t, r, fmt.Sprint(hl), col))
		}
		return out
	}
	with, without := series("global correlation"), series("no global correlation")
	// best is the index of the history length with the highest rate.
	best := func(xs []float64) int {
		b := 0
		for i, v := range xs {
			if v > xs[b] {
				b = i
			}
		}
		return b
	}
	// Global correlation helps (the paper estimates ≈10% of loads; accept
	// any clear win).
	if b := best(with); with[b] <= without[b] {
		t.Errorf("global correlation should increase correct predictions: %v vs %v", with[b], without[b])
	}
	// The optimal history length with correlation is longer than without
	// (paper: 3–4 vs 2) — at minimum, not shorter.
	if bw, bn := lengths[best(with)], lengths[best(without)]; bw < bn {
		t.Errorf("optimal history with correlation (%d) should not be shorter than without (%d)", bw, bn)
	}
	// Degenerate history (1) must be worse than the default region (3-4).
	if with[0] >= with[2] {
		t.Errorf("history length 1 (%.3f) should underperform length 3 (%.3f)", with[0], with[2])
	}
	if r.Table().Rows() != len(lengths) {
		t.Error("Fig9 table rows")
	}
}

func TestFig10Shape(t *testing.T) {
	r := Fig10(testCfg())
	// Order: no tag, 4 bit, 8 bit, 4 bit + path, 8 bit + path.
	mr := func(i int) float64 { return r.Counters[i].MispredRate() }
	pr := func(i int) float64 { return r.Counters[i].PredRate() }
	if !(mr(1) < mr(0)) {
		t.Errorf("4-bit tags (%.4f) must cut mispredictions vs no tags (%.4f)", mr(1), mr(0))
	}
	if !(mr(2) <= mr(1)) {
		t.Errorf("8-bit tags (%.4f) must not mispredict more than 4-bit (%.4f)", mr(2), mr(1))
	}
	if !(mr(4) <= mr(2)) {
		t.Errorf("adding path info (%.4f) must not hurt 8-bit tags (%.4f)", mr(4), mr(2))
	}
	// Tags cost only a small slice of prediction rate (paper: ≈2%).
	if pr(0)-pr(2) > 0.08 {
		t.Errorf("tags cost %.3f of prediction rate, should be small", pr(0)-pr(2))
	}
}

func TestFig11Shape(t *testing.T) {
	r := Fig11(Config{EventsPerTrace: 80_000})
	// Gaps: 0, 4, 8, 12.
	h := func(gap string) float64 { return value(t, r, gap, "hybrid rate") }
	if !(h("4") < h("immediate")) {
		t.Errorf("a prediction gap must cost prediction rate: imm=%.3f gap4=%.3f", h("immediate"), h("4"))
	}
	// Beyond the first gap the influence is low (paper: "its influence is
	// quite low").
	if h("4")-h("12") > 0.10 {
		t.Errorf("gap growth cost too high: gap4=%.3f gap12=%.3f", h("4"), h("12"))
	}
	// Accuracy is hurt by the gap (paper: 98.9% → 96.6%).
	if !(value(t, r, "4", "hybrid acc") < value(t, r, "immediate", "hybrid acc")) {
		t.Error("gapped accuracy should drop below immediate")
	}
	// The hybrid stays ahead of the stride predictor under the gap, read
	// from the sweep rows: correct speculations are not a column.
	correct := func(name string) float64 { return r.Counters[rowIndex(t, r.Names, name)].CorrectSpecRate() }
	if !(correct("hybrid gap 8") > correct("stride gap 8")) {
		t.Error("hybrid must stay ahead of stride at gap 8")
	}
}

func TestFig7Shape(t *testing.T) {
	r := Fig7(Config{EventsPerTrace: 40_000})
	if got := r.Table().Rows(); got != 46 {
		t.Fatalf("Fig7 lines = %d, want 45 traces and the average", got)
	}
	stride, hybrid := value(t, r, "Average", "stride"), value(t, r, "Average", "hybrid")
	if !(hybrid > 1.0) {
		t.Errorf("hybrid average speedup %.3f, want > 1", hybrid)
	}
	if !(hybrid > stride) {
		t.Errorf("hybrid (%.3f) must beat stride (%.3f) on average", hybrid, stride)
	}
	// The paper's band: most traces 10–25%; accept a broad plausible band
	// for the average.
	if hybrid < 1.03 || hybrid > 1.8 {
		t.Errorf("hybrid average speedup %.3f outside plausible band", hybrid)
	}
}

func TestFig12Shape(t *testing.T) {
	r := Fig12(Config{EventsPerTrace: 30_000})
	avg := func(col string) float64 { return value(t, r, "Average", col) }
	if !(avg("hybrid imm") > 1.0 && avg("hybrid gap8") > 1.0) {
		t.Errorf("hybrid speedups must stay above 1: imm=%.3f gap8=%.3f", avg("hybrid imm"), avg("hybrid gap8"))
	}
	if !(avg("hybrid gap8") <= avg("hybrid imm")) {
		t.Errorf("gap 8 speedup (%.3f) should not beat immediate (%.3f)", avg("hybrid gap8"), avg("hybrid imm"))
	}
	if !(avg("hybrid gap8") >= avg("stride gap8")) {
		t.Errorf("hybrid (%.3f) should stay ahead of stride (%.3f) at gap 8", avg("hybrid gap8"), avg("stride gap8"))
	}
}

func TestBaselinesLadder(t *testing.T) {
	// CAP's context links take longer to train than stride state; the
	// cap-over-stride step of the ladder only emerges past warm-up, so
	// this test needs a larger budget than the other shape tests.
	r := Baselines(Config{EventsPerTrace: 300_000})
	// Names: last, stride, stride+, cap, hybrid. The §1 ladder on correct
	// predictions per load: last < stride family < hybrid; cap above
	// stride overall.
	cs := func(i int) float64 { return r.Counters[i].CorrectSpecRate() }
	if !(cs(2) > cs(0)) {
		t.Errorf("enhanced stride (%.3f) must beat last (%.3f)", cs(2), cs(0))
	}
	if !(cs(3) > cs(2)) {
		t.Errorf("cap (%.3f) must beat enhanced stride (%.3f) on average", cs(3), cs(2))
	}
	if !(cs(4) > cs(3)) {
		t.Errorf("hybrid (%.3f) must beat cap (%.3f)", cs(4), cs(3))
	}
	// Enhanced stride must not be less accurate than basic stride.
	if r.Counters[2].Accuracy() < r.Counters[1].Accuracy() {
		t.Error("enhancements should not reduce stride accuracy")
	}
}

func TestControlBasedWeak(t *testing.T) {
	r := ControlBased(testCfg())
	// Names: gshare-addr, path-addr, cap.
	if !(r.Counters[2].CorrectSpecRate() > r.Counters[0].CorrectSpecRate()) {
		t.Error("CAP must beat the g-share address predictor (§3.6)")
	}
	if !(r.Counters[2].CorrectSpecRate() > r.Counters[1].CorrectSpecRate()) {
		t.Error("CAP must beat the path address predictor (§3.6)")
	}
}

func TestUpdatePolicyAlwaysCompetitive(t *testing.T) {
	r := UpdatePolicy(testCfg())
	always := r.Counters[0].CorrectSpecRate()
	for i := 1; i < len(r.Counters); i++ {
		if r.Counters[i].CorrectSpecRate() > always+0.01 {
			t.Errorf("policy %s (%.3f) clearly beats always (%.3f); the paper found the opposite",
				r.Names[i], r.Counters[i].CorrectSpecRate(), always)
		}
	}
}

func TestLTSizeMonotone(t *testing.T) {
	r := LTSize(testCfg())
	first := r.Counters[0].PredRate()
	last := r.Counters[len(r.Counters)-1].PredRate()
	if !(last > first) {
		t.Errorf("hybrid rate should grow with LT size: 1K=%.3f 8K=%.3f", first, last)
	}
}

func TestAblationsRun(t *testing.T) {
	r := Ablations(Config{EventsPerTrace: 40_000})
	if len(r.Names) != len(r.Counters) || len(r.Names) < 5 {
		t.Fatalf("ablations incomplete: %d names", len(r.Names))
	}
	// The dynamic selector should not lose to either static policy.
	base := r.Counters[0].CorrectSpecRate()
	for i, n := range r.Names {
		if strings.Contains(n, "static selector") && r.Counters[i].CorrectSpecRate() > base+0.01 {
			t.Errorf("%s (%.3f) clearly beats the dynamic selector (%.3f)",
				n, r.Counters[i].CorrectSpecRate(), base)
		}
	}
}

func TestAddressVsValueShape(t *testing.T) {
	r := AddressVsValue(Config{EventsPerTrace: 80_000})
	// Names: hybrid address, last-value, stride-value, context-value,
	// hybrid-value. §1's claim: addresses are far more predictable than
	// values on the same loads.
	correct := func(i int) float64 { return r.Counters[i].CorrectSpecRate() }
	addr := correct(0)
	for i := 1; i < len(r.Names); i++ {
		if correct(i) >= addr {
			t.Errorf("%s (%.3f) should not reach address predictability (%.3f)",
				r.Names[i], correct(i), addr)
		}
	}
	// The hybrid value predictor must beat the last-value baseline.
	if !(correct(4) > correct(1)) {
		t.Errorf("hybrid-value (%.3f) should beat last-value (%.3f)", correct(4), correct(1))
	}
	if r.Table().Rows() != 5 {
		t.Error("table rows")
	}
}

func TestPrefetchShape(t *testing.T) {
	r := Prefetch(Config{EventsPerTrace: 40_000})
	speedup := func(line string) float64 { return value(t, r, line, "speedup") }
	hit := func(line string) float64 { return value(t, r, line, "avg L1 hit rate") }
	if s := speedup("baseline"); s != 1.0 {
		t.Errorf("baseline speedup = %v", s)
	}
	if s := speedup("stride prefetch (RPT)"); !(s > 1.0) {
		t.Errorf("prefetching should help: %.3f", s)
	}
	if rpt, base := hit("stride prefetch (RPT)"), hit("baseline"); !(rpt > base) {
		t.Errorf("prefetching should raise the L1 hit rate: %.3f vs %.3f", rpt, base)
	}
	if both, pred := speedup("prefetch + address prediction"), speedup("hybrid address prediction"); !(both >= pred) {
		t.Errorf("combining prefetch with prediction (%.3f) should not lose to prediction alone (%.3f)", both, pred)
	}
}

func TestClassCoverageShape(t *testing.T) {
	r := ClassCoverage(Config{EventsPerTrace: 80_000})
	cov := func(p string, c predictor.LoadClass) float64 { return value(t, r, c.String(), p) }
	// The §2 ladder: last owns constants only; stride adds arrays; CAP
	// adds context; the hybrid inherits the best of both.
	if cov("last", predictor.ClassConstant) < 0.7 {
		t.Errorf("last should own constants: %.3f", cov("last", predictor.ClassConstant))
	}
	if cov("last", predictor.ClassStride) > 0.2 {
		t.Errorf("last should fail on strides: %.3f", cov("last", predictor.ClassStride))
	}
	if !(cov("stride+", predictor.ClassStride) > 0.6) {
		t.Errorf("stride+ should own strides: %.3f", cov("stride+", predictor.ClassStride))
	}
	if cov("stride+", predictor.ClassContext) > 0.3 {
		t.Errorf("stride+ should fail on context loads: %.3f", cov("stride+", predictor.ClassContext))
	}
	if !(cov("cap", predictor.ClassContext) > 0.6) {
		t.Errorf("cap should own context loads: %.3f", cov("cap", predictor.ClassContext))
	}
	for _, c := range []predictor.LoadClass{predictor.ClassConstant, predictor.ClassStride, predictor.ClassContext} {
		if cov("hybrid", c) < 0.6 {
			t.Errorf("hybrid should cover class %v: %.3f", c, cov("hybrid", c))
		}
	}
	// Nobody covers irregular loads well.
	for _, p := range []string{"last", "stride+", "cap", "hybrid"} {
		if cov(p, predictor.ClassIrregular) > 0.4 {
			t.Errorf("%s covers irregular loads suspiciously well: %.3f", p, cov(p, predictor.ClassIrregular))
		}
	}
}

func TestProfileAssistShape(t *testing.T) {
	r := ProfileAssist(Config{EventsPerTrace: 60_000})
	// Order: 4K, 4K+profile, 512, 512+profile. Filtering irregular loads
	// must cut mispredictions-per-load sharply at both table sizes.
	if !(r.Counters[1].MispredOfLoads() < r.Counters[0].MispredOfLoads()/2) {
		t.Errorf("profile should cut mispredictions: %.4f vs %.4f",
			r.Counters[1].MispredOfLoads(), r.Counters[0].MispredOfLoads())
	}
	if !(r.Counters[3].MispredOfLoads() < r.Counters[2].MispredOfLoads()) {
		t.Error("profile should cut mispredictions at 512-entry LT too")
	}
}

func TestWrongPathShape(t *testing.T) {
	r := WrongPath(Config{EventsPerTrace: 60_000})
	// Rows: no wrong path, squash, destructive.
	none, squash, destr := r.Counters[0], r.Counters[1], r.Counters[2]
	// Squash recovery must keep accuracy essentially at the clean level.
	if none.Accuracy()-squash.Accuracy() > 0.005 {
		t.Errorf("squash recovery lost accuracy: clean=%.4f squash=%.4f",
			none.Accuracy(), squash.Accuracy())
	}
	// Destructive wrong-path updates must visibly hurt (§5.4's hazard).
	if !(destr.Accuracy() < squash.Accuracy()) {
		t.Errorf("destructive updates should hurt accuracy: %.4f vs %.4f",
			destr.Accuracy(), squash.Accuracy())
	}
	if !(destr.CorrectSpecRate() < squash.CorrectSpecRate()) {
		t.Error("destructive updates should cost correct predictions")
	}
}

// refRecorder predicts nothing and logs every load reference it is
// asked to predict, in order.
type refRecorder struct{ refs []predictor.LoadRef }

func (r *refRecorder) Predict(ref predictor.LoadRef) predictor.Prediction {
	r.refs = append(r.refs, ref)
	return predictor.Prediction{}
}
func (r *refRecorder) Resolve(predictor.LoadRef, predictor.Prediction, uint32) {}
func (r *refRecorder) Name() string                                            { return "recorder" }

// TestWrongPathReplaysRecentLoads checks that a wrong-path burst replays
// the most recent correct-path loads, not whichever loads filled the
// replay ring first. The stream alternates 40 distinct static loads with
// taken branches at fresh IPs, which the model's g-share (all counters
// start at not-taken) mispredicts. Every branch is taken, so a
// correct-path load sees GHR bit 0 set and a wrong-path replay, whose
// GHR has bit 0 flipped, sees it clear.
func TestWrongPathReplaysRecentLoads(t *testing.T) {
	const loads, burst = 40, 4
	evs := []trace.Event{{Kind: trace.KindBranch, IP: 0x20000, Taken: true}}
	for k := 0; k < loads; k++ {
		evs = append(evs,
			trace.Event{Kind: trace.KindLoad, IP: uint32(0x1000 + 4*k), Addr: uint32(0x80000 + 64*k)},
			trace.Event{Kind: trace.KindBranch, IP: uint32(0x20000 + 4*(k+1)), Taken: true})
	}
	for _, mode := range []WrongPathMode{WrongPathSquash, WrongPathDestructive} {
		rec := &refRecorder{}
		if _, err := runTraceWrongPath(nil, trace.NewSliceSource(evs), rec, 8, burst, mode); err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		var correct []uint32
		lateReplays := 0
		for _, ref := range rec.refs {
			if ref.GHR&1 == 1 {
				correct = append(correct, ref.IP)
				continue
			}
			recent := correct[max(0, len(correct)-burst):]
			if !slices.Contains(recent, ref.IP) {
				t.Fatalf("%s: after %d loads a wrong-path burst replayed %#x, want one of the %d most recent %#x",
					mode, len(correct), ref.IP, burst, recent)
			}
			if len(correct) > 16 {
				lateReplays++
			}
		}
		if len(correct) != loads {
			t.Fatalf("%s: recorded %d correct-path loads, want %d", mode, len(correct), loads)
		}
		if lateReplays == 0 {
			t.Fatalf("%s: no wrong-path burst after the replay ring filled", mode)
		}
	}
}

func TestExperimentsDeterministic(t *testing.T) {
	// Parallel trace simulation must not introduce nondeterminism: two
	// runs of the same experiment produce identical counters.
	cfg := Config{EventsPerTrace: 30_000}
	a := Fig10(cfg)
	b := Fig10(cfg)
	for i := range a.Counters {
		if a.Counters[i] != b.Counters[i] {
			t.Fatalf("variant %d differs between runs:\n%+v\n%+v",
				i, a.Counters[i], b.Counters[i])
		}
	}
}
