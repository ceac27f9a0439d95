package sim

import (
	"fmt"
	"testing"

	"capred/internal/metrics"
	"capred/internal/predictor"
	"capred/internal/workload"
)

// The paper's qualitative claims, asserted on the typed driver results
// at the golden budget. The golden files pin every digit; these tests
// say which orderings the reproduction must keep, so a change that
// rewrites the goldens still has to preserve the paper's findings.

// cleanRun fails the test when a driver reported trace failures: a
// claim about partial aggregates proves nothing.
func cleanRun(t *testing.T, name string, fails []TraceFailure) {
	t.Helper()
	if len(fails) != 0 {
		t.Fatalf("%s: unexpected failures: %v", name, fails)
	}
}

// measured fails the test when a row folded in no loads, so that an
// ordering between two empty rows cannot pass as a claim.
func measured(t *testing.T, row string, r metrics.Rates) {
	t.Helper()
	if r.Empty() {
		t.Fatalf("%s: no loads measured", row)
	}
}

// rowIndex returns the position of name in names, failing the test if
// the driver no longer has that row.
func rowIndex(t *testing.T, names []string, name string) int {
	t.Helper()
	for i, n := range names {
		if n == name {
			return i
		}
	}
	t.Fatalf("no row %q in %v", name, names)
	return -1
}

// TestClaimBaselineLadder: §1's ladder. Last-address prediction is the
// weakest family, stride and CAP each beat it, and the hybrid beats
// both, measured as correct speculations over all loads. Stride vs CAP
// is not asserted: their order depends on the trace budget.
func TestClaimBaselineLadder(t *testing.T) {
	r := Baselines(goldenConfig(*goldenWorkers))
	cleanRun(t, "baselines", r.Failed())
	correct := func(name string) float64 {
		c := r.Counters[rowIndex(t, r.Names, name)]
		measured(t, name, c)
		return c.CorrectSpecRate()
	}
	last, hybrid := correct("last"), correct("hybrid")
	for _, mid := range []struct {
		name string
		v    float64
	}{{"stride", correct("stride")}, {"cap", correct("cap")}} {
		if !(last < mid.v && mid.v < hybrid) {
			t.Errorf("correct of loads: want last %.4f < %s %.4f < hybrid %.4f", last, mid.name, mid.v, hybrid)
		}
	}
}

// TestClaimFig5HybridDominates: Fig. 5. The hybrid predicts at least as
// many loads as the better of its two components in every suite and in
// the Average row.
func TestClaimFig5HybridDominates(t *testing.T) {
	r := Fig5(goldenConfig(*goldenWorkers))
	cleanRun(t, "fig5", r.Failed())
	for _, s := range suiteOrder() {
		rate := func(suites map[string]metrics.Counters, avg metrics.Mean) float64 {
			row := rowFor(suites, avg, s)
			measured(t, s, row)
			return row.PredRate()
		}
		st, cp, hy := rate(r.Stride, r.AvgS), rate(r.CAP, r.AvgC), rate(r.Hybrid, r.AvgH)
		if hy < st || hy < cp {
			t.Errorf("%s: hybrid rate %.4f below max(stride %.4f, cap %.4f)", s, hy, st, cp)
		}
	}
}

// TestClaimFig8: Fig. 8, read from the hybrid's selector ledger. The
// 2-bit selector is near perfect (the paper: >99% correct selection)
// in every suite and on average, and most dual-confident loads sit in
// the CAP-selecting states on average (the paper: almost 90%; here the
// majority, which two suites miss — see EXPERIMENTS.md).
func TestClaimFig8(t *testing.T) {
	r := Fig8(goldenConfig(*goldenWorkers))
	cleanRun(t, "fig8", r.Failed())
	for _, s := range workload.SuiteNames() {
		l, ok := r.Suites[s]
		if !ok || l.DualConfident == 0 {
			t.Fatalf("%s: no dual-confident loads measured", s)
		}
		if got := fig8Row(l).CorrectSel; got < 0.985 {
			t.Errorf("%s: correct selection %.4f, want near-perfect", s, got)
		}
	}
	avg := r.Average()
	if avg.CorrectSel < 0.985 {
		t.Errorf("Average: correct selection %.4f, want near-perfect", avg.CorrectSel)
	}
	if capShare := avg.Share[predictor.SelWeakCAP] + avg.Share[predictor.SelStrongCAP]; capShare <= 0.5 {
		t.Errorf("Average: CAP-selecting share %.3f, want the majority", capShare)
	}
}

// TestClaimFig10TagsCutMispredictions: Fig. 10. Every tagged LT variant
// mispredicts less often than the untagged one.
func TestClaimFig10TagsCutMispredictions(t *testing.T) {
	r := Fig10(goldenConfig(*goldenWorkers))
	cleanRun(t, "fig10", r.Failed())
	variants := Fig10Variants()
	var base metrics.Mean
	found := false
	for i, v := range variants {
		if v.TagBits == 0 && !v.Path {
			base, found = r.Counters[i], true
		}
	}
	if !found {
		t.Fatal("fig10 has no untagged variant")
	}
	for i, v := range variants {
		measured(t, v.Name, r.Counters[i])
		if v.TagBits == 0 {
			continue
		}
		if got := r.Counters[i].MispredRate(); got >= base.MispredRate() {
			t.Errorf("%s: misprediction rate %.4f not below no tag %.4f", v.Name, got, base.MispredRate())
		}
	}
}

// TestClaimFig11GapNeverHelps: Fig. 11. Deferring resolutions can only
// cost predictions: stride and hybrid rates do not rise with the gap.
func TestClaimFig11GapNeverHelps(t *testing.T) {
	r := Fig11(goldenConfig(*goldenWorkers))
	cleanRun(t, "fig11", r.Failed())
	for i, gap := range r.Gaps {
		measured(t, fmt.Sprintf("stride at gap %d", gap), r.Stride[i])
		measured(t, fmt.Sprintf("hybrid at gap %d", gap), r.Hybrid[i])
	}
	for i := 1; i < len(r.Gaps); i++ {
		for _, fam := range []struct {
			name string
			m    []metrics.Mean
		}{{"stride", r.Stride}, {"hybrid", r.Hybrid}} {
			prev, cur := fam.m[i-1].PredRate(), fam.m[i].PredRate()
			if cur > prev {
				t.Errorf("%s: rate rose from %.4f at gap %d to %.4f at gap %d",
					fam.name, prev, r.Gaps[i-1], cur, r.Gaps[i])
			}
		}
	}
}

// TestClaimUpdateAlwaysBest: §4.3. Updating the LT on every load
// predicts at least as many loads as either filtered policy.
func TestClaimUpdateAlwaysBest(t *testing.T) {
	r := UpdatePolicy(goldenConfig(*goldenWorkers))
	cleanRun(t, "update-policy", r.Failed())
	always := rowIndex(t, r.Names, predictor.UpdateAlways.String())
	for i, p := range r.Names {
		measured(t, p, r.Counters[i])
		if got, best := r.Counters[i].PredRate(), r.Counters[always].PredRate(); got > best {
			t.Errorf("%s: rate %.4f above always %.4f", p, got, best)
		}
	}
}

// TestClaimTournamentReproducesHybrid: the 2-way CAP+stride tournament
// is the paper's hybrid, and the default tournament, which adds the
// Markov component, never costs correct speculations.
func TestClaimTournamentReproducesHybrid(t *testing.T) {
	r := Tournament(goldenConfig(*goldenWorkers))
	cleanRun(t, "tournament", r.Failed())
	hybrid := r.Counters[rowIndex(t, r.Names, "hybrid (§3.7)")]
	pair := r.Counters[rowIndex(t, r.Names, "tournament stride+cap")]
	full := r.Counters[rowIndex(t, r.Names, "tournament 3-way")]
	measured(t, "hybrid", hybrid)
	measured(t, "default tournament", full)
	if pair != hybrid {
		t.Errorf("2-way row differs from hybrid row:\n pair   %v\n hybrid %v", pair, hybrid)
	}
	if full.CorrectSpecRate() < hybrid.CorrectSpecRate() {
		t.Errorf("default tournament correct speculation %.4f below hybrid %.4f", full.CorrectSpecRate(), hybrid.CorrectSpecRate())
	}
}

// TestClaimFig12: Fig. 12. A prediction gap of 8 never speeds a suite
// up: for stride and for the hybrid, the gap-8 speedup is at most the
// immediate-update one in every suite and in the Average row. Ties are
// allowed; stride gains too little for the gap to show in some suites.
func TestClaimFig12(t *testing.T) {
	r := Fig12(goldenConfig(*goldenWorkers))
	cleanRun(t, "fig12", r.Failed())
	if len(r.Rows) != len(suiteOrder()) {
		t.Fatalf("fig12 has %d rows, want %d", len(r.Rows), len(suiteOrder()))
	}
	for _, row := range r.Rows {
		for _, fam := range []struct {
			name     string
			imm, gap float64
		}{{"stride", row.StrideImm, row.StrideGap8}, {"hybrid", row.HybridImm, row.HybridGap8}} {
			if fam.imm == 0 || fam.gap == 0 {
				t.Fatalf("%s %s: no cycles measured", row.Suite, fam.name)
			}
			if fam.gap > fam.imm {
				t.Errorf("%s %s: gap-8 speedup %.4f above immediate %.4f", row.Suite, fam.name, fam.gap, fam.imm)
			}
		}
	}
}

// TestClaimWrongPath: §5.4. Wrong-path loads cost correct speculations,
// and squash recovery keeps more of them than destructive updates do:
// correct of loads orders no wrong path ≥ squash ≥ destructive.
func TestClaimWrongPath(t *testing.T) {
	r := WrongPath(goldenConfig(*goldenWorkers))
	cleanRun(t, "wrong-path", r.Failed())
	correct := func(name string) float64 {
		for i, n := range r.Names {
			if n == name {
				measured(t, n, r.Counters[i])
				return r.Counters[i].CorrectSpecRate()
			}
		}
		t.Fatalf("wrong-path has no %s row", name)
		return 0
	}
	none, squash, destructive := correct("no wrong path"), correct(WrongPathSquash.String()), correct(WrongPathDestructive.String())
	if !(none >= squash && squash >= destructive) {
		t.Errorf("correct of loads: want no wrong path %.4f ≥ squash %.4f ≥ destructive %.4f", none, squash, destructive)
	}
}

// TestClaimFig6: Fig. 6. The hybrid's prediction rate does not fall as
// LB entries grow at fixed associativity, or as associativity grows at
// fixed entries, in any suite or the Average row. The geometry reaches
// the hybrid's chooser through CAP.LBEntries/LBWays; so that a
// geometry the chooser ignored cannot pass as "no fall", the Average
// rate must also rise strictly from the smallest to the largest
// geometry of each dimension.
func TestClaimFig6(t *testing.T) {
	r := Fig6(goldenConfig(*goldenWorkers))
	cleanRun(t, "fig6", r.Failed())
	pairs := 0
	for i, a := range r.Geometries {
		for j, b := range r.Geometries {
			sameWays := a.Ways == b.Ways && b.Entries > a.Entries
			sameEntries := a.Entries == b.Entries && b.Ways > a.Ways
			if !sameWays && !sameEntries {
				continue
			}
			pairs++
			for _, s := range suiteOrder() {
				ra, rb := rowFor(r.Suites[i], r.Avgs[i], s), rowFor(r.Suites[j], r.Avgs[j], s)
				measured(t, s+" "+a.String(), ra)
				measured(t, s+" "+b.String(), rb)
				if rb.PredRate() < ra.PredRate() {
					t.Errorf("%s: rate fell from %.4f at LB %s to %.4f at LB %s",
						s, ra.PredRate(), a, rb.PredRate(), b)
				}
			}
		}
	}
	if pairs == 0 {
		t.Fatal("fig6 has no pair of geometries that differ in one dimension")
	}
	for _, ends := range [][2]LBGeometry{{{2048, 2}, {8192, 2}}, {{4096, 1}, {4096, 4}}} {
		lo := r.Avgs[geometryIndex(t, r.Geometries, ends[0])].PredRate()
		hi := r.Avgs[geometryIndex(t, r.Geometries, ends[1])].PredRate()
		if hi <= lo {
			t.Errorf("Average: rate %.4f at LB %s not above %.4f at LB %s", hi, ends[1], lo, ends[0])
		}
	}
}

// geometryIndex returns the position of g in gs, failing the test if
// Fig. 6 no longer sweeps it.
func geometryIndex(t *testing.T, gs []LBGeometry, g LBGeometry) int {
	t.Helper()
	for i, x := range gs {
		if x == g {
			return i
		}
	}
	t.Fatalf("no LB geometry %s in %v", g, gs)
	return -1
}

// TestClaimLTSize: §4.2. The hybrid's prediction rate does not fall as
// the link table grows, and rises strictly from the smallest to the
// largest table ("steadily increases from 1K-entry to 8K-entry"). LT
// entries reach the hybrid through CAP.LTEntries.
func TestClaimLTSize(t *testing.T) {
	r := LTSize(goldenConfig(*goldenWorkers))
	cleanRun(t, "lt-size", r.Failed())
	for i, n := range r.Names {
		measured(t, "LT "+n, r.Counters[i])
	}
	for i := 1; i < len(r.Names); i++ {
		prev, cur := r.Counters[i-1].PredRate(), r.Counters[i].PredRate()
		if cur < prev {
			t.Errorf("rate fell from %.4f at LT %s to %.4f at LT %s", prev, r.Names[i-1], cur, r.Names[i])
		}
	}
	last := len(r.Names) - 1
	if lo, hi := r.Counters[0].PredRate(), r.Counters[last].PredRate(); hi <= lo {
		t.Errorf("rate %.4f at LT %s not above %.4f at LT %s", hi, r.Names[last], lo, r.Names[0])
	}
}
