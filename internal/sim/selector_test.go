package sim

import (
	"math"
	"math/rand"
	"testing"

	"capred/internal/predictor"
)

// randLedger builds an internally consistent selector ledger over dual
// dual-confident loads: the states partition them and the
// mis-selections are among them.
func randLedger(r *rand.Rand, dual int64) predictor.SelectorStats {
	s := predictor.SelectorStats{DualConfident: dual}
	rem := dual
	for i := range s.States {
		s.States[i] = r.Int63n(rem + 1)
		rem -= s.States[i]
	}
	s.MisSelected = r.Int63n(dual + 1)
	return s
}

func TestFig8RowRates(t *testing.T) {
	got := selectorRates(predictor.SelectorStats{DualConfident: 40, States: [4]int64{10, 5, 5, 20}, MisSelected: 4})
	if want := [5]float64{0.25, 0.125, 0.125, 0.5, 0.9}; got != want {
		t.Errorf("rates = %v, want %v", got, want)
	}
}

// allNaN reports whether every rate of a Figure 8 line is NaN, so it
// renders "n/a" in every cell.
func allNaN(r [5]float64) bool {
	for _, v := range r {
		if !math.IsNaN(v) {
			return false
		}
	}
	return true
}

// TestFig8NoDualConfidentReadsNA: a ledger without dual-confident loads
// measured no selection, so its line is n/a in every cell rather than
// 0% in every state and 100% correct selection; one dual-confident
// load is already a measurement.
func TestFig8NoDualConfidentReadsNA(t *testing.T) {
	if got := selectorRates(predictor.SelectorStats{}); !allNaN(got) {
		t.Errorf("empty ledger rates = %v, want n/a in every cell", got)
	}
	one := predictor.SelectorStats{DualConfident: 1, States: [4]int64{3: 1}}
	if got, want := selectorRates(one), [5]float64{3: 1, 4: 1}; got != want {
		t.Errorf("one dual-confident load: rates = %v, want %v", got, want)
	}
}

func TestFig8AverageMatchesSingleTrace(t *testing.T) {
	l := predictor.SelectorStats{DualConfident: 40, States: [4]int64{10, 5, 5, 20}, MisSelected: 4}
	if got, want := selectorAverage([]predictor.SelectorStats{l}), selectorRates(l); got != want {
		t.Errorf("Average over one trace = %v, want its rates %v", got, want)
	}
}

// TestFig8AverageEqualsPooledOnUniformBudgets: when every trace has
// the same number of dual-confident loads, the equal-weight mean and
// the pooled ledger are the same average.
func TestFig8AverageEqualsPooledOnUniformBudgets(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		var ledgers []predictor.SelectorStats
		var pool predictor.SelectorStats
		for i, n := 0, 2+r.Intn(8); i < n; i++ {
			l := randLedger(r, 2_500)
			ledgers = append(ledgers, l)
			pool.Merge(l)
		}
		got, want := selectorAverage(ledgers), selectorRates(pool)
		for i := range got {
			if math.Abs(got[i]-want[i]) > 1e-9 {
				t.Fatalf("trial %d rate %d: equal-weight %v != pooled %v", trial, i, got[i], want[i])
			}
		}
	}
}

// TestFig8AverageSkipsTracesWithoutDualConfident: a trace with no
// dual-confident load adds no sample, and an average over only such
// traces (or none) is n/a.
func TestFig8AverageSkipsTracesWithoutDualConfident(t *testing.T) {
	if got := selectorAverage(nil); !allNaN(got) {
		t.Errorf("Average with no traces = %v", got)
	}
	r := rand.New(rand.NewSource(2))
	var withZeros, withoutZeros []predictor.SelectorStats
	for i := 0; i < 5; i++ {
		l := randLedger(r, 1+r.Int63n(1000))
		withZeros = append(withZeros, l, predictor.SelectorStats{})
		withoutZeros = append(withoutZeros, l)
	}
	if got, want := selectorAverage(withZeros), selectorAverage(withoutZeros); got != want {
		t.Fatalf("traces without dual-confident loads moved the average: %v vs %v", got, want)
	}
	if got := selectorAverage(make([]predictor.SelectorStats, 2)); !allNaN(got) {
		t.Fatalf("Average over traces without dual-confident loads = %v", got)
	}
}

// TestFig8AverageRatesInRange: over wildly non-uniform ledgers every
// rate stays within [0, 1].
func TestFig8AverageRatesInRange(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		var ledgers []predictor.SelectorStats
		for i, n := 0, 1+r.Intn(10); i < n; i++ {
			ledgers = append(ledgers, randLedger(r, r.Int63n(1_000_000)))
		}
		for i, v := range selectorAverage(ledgers) {
			if v < 0 || v > 1 || math.IsNaN(v) {
				t.Fatalf("trial %d rate %d out of [0,1]: %v", trial, i, v)
			}
		}
	}
}
