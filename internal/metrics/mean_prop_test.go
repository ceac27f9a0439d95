package metrics

import (
	"math"
	"math/rand"
	"testing"
)

// randCounters builds internally-consistent counters: the invariants the
// simulator maintains (Speculated = SpecCorrect + Mispred ≤ Loads, …)
// hold for every sample, so the properties below test the aggregation,
// not garbage inputs.
func randCounters(r *rand.Rand, loads int64) Counters {
	var c Counters
	c.Loads = loads
	if loads == 0 {
		return c
	}
	c.Predicted = r.Int63n(loads + 1)
	c.Correct = r.Int63n(c.Predicted + 1)
	c.Speculated = r.Int63n(c.Predicted + 1)
	c.SpecCorrect = r.Int63n(c.Speculated + 1)
	c.Mispred = c.Speculated - c.SpecCorrect
	return c
}

const tol = 1e-9

func close(a, b float64) bool { return math.Abs(a-b) <= tol }

// TestMeanEqualsPooledOnUniformBudgets pins the agreement property: when
// every trace has the same denominator, weighting each trace equally and
// pooling the raw counters are algebraically the same average, so Mean
// and Counters must agree on every rate sharing that denominator.
func TestMeanEqualsPooledOnUniformBudgets(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		var m Mean
		var pool Counters
		n := 2 + r.Intn(8)
		const loads = 10_000
		for i := 0; i < n; i++ {
			c := randCounters(r, loads)
			// Uniform denominators across the board: same Loads and
			// Speculated per trace.
			c.Speculated = loads / 2
			c.SpecCorrect = r.Int63n(c.Speculated + 1)
			c.Mispred = c.Speculated - c.SpecCorrect
			m.Add(c)
			pool.Merge(c)
		}
		checks := []struct {
			name         string
			mean, pooled float64
		}{
			{"PredRate", m.PredRate(), pool.PredRate()},
			{"CorrectSpecRate", m.CorrectSpecRate(), pool.CorrectSpecRate()},
			{"MispredOfLoads", m.MispredOfLoads(), pool.MispredOfLoads()},
			{"Accuracy", m.Accuracy(), pool.Accuracy()},
			{"MispredRate", m.MispredRate(), pool.MispredRate()},
		}
		for _, c := range checks {
			if !close(c.mean, c.pooled) {
				t.Fatalf("trial %d: %s: equal-weight %v != pooled %v on uniform budgets",
					trial, c.name, c.mean, c.pooled)
			}
		}
	}
}

// TestMeanZeroLoadTraces pins the n/a convention: a trace that saw no
// loads contributes no samples, so it cannot drag any rate toward zero,
// and a mean built only from such traces reports Empty.
func TestMeanZeroLoadTraces(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	var withZeros, withoutZeros Mean
	for i := 0; i < 5; i++ {
		c := randCounters(r, 1000)
		withZeros.Add(c)
		withoutZeros.Add(c)
		withZeros.Add(Counters{}) // interleave zero-load traces
	}
	if withZeros.PredRate() != withoutZeros.PredRate() ||
		withZeros.Accuracy() != withoutZeros.Accuracy() ||
		withZeros.CorrectSpecRate() != withoutZeros.CorrectSpecRate() {
		t.Fatalf("zero-load traces moved the mean: with=%v without=%v", withZeros, withoutZeros)
	}
	if withZeros.Traces != withoutZeros.Traces+5 {
		t.Fatalf("zero-load traces not counted: %d vs %d", withZeros.Traces, withoutZeros.Traces)
	}

	var onlyZeros Mean
	onlyZeros.Add(Counters{})
	onlyZeros.Add(Counters{})
	if !onlyZeros.Empty() {
		t.Fatal("mean of zero-load traces should be Empty")
	}
	if onlyZeros.PredRate() != 0 || onlyZeros.Accuracy() != 0 {
		t.Fatalf("empty mean rates should be 0: %v", onlyZeros)
	}
}

// TestMeanPartialFailureSubset pins the failure-handling property the
// drivers rely on: folding in only the surviving subset is exactly the
// mean over that subset — failed traces leave no residue — and every
// rate stays within [0, 1].
func TestMeanPartialFailureSubset(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		n := 3 + r.Intn(10)
		traces := make([]Counters, n)
		for i := range traces {
			// Wildly non-uniform budgets: partial failure must not let a
			// big trace dominate the equal-weight view.
			traces[i] = randCounters(r, int64(1+r.Intn(1_000_000)))
		}
		survivors := traces[:1+r.Intn(n)]

		var got Mean
		for _, c := range traces[:len(survivors)] {
			got.Add(c)
		}
		// Reference: arithmetic average of per-trace rates.
		var sumPred float64
		for _, c := range survivors {
			sumPred += c.PredRate()
		}
		want := sumPred / float64(len(survivors))
		if !close(got.PredRate(), want) {
			t.Fatalf("trial %d: subset mean %v != arithmetic mean %v", trial, got.PredRate(), want)
		}

		for _, v := range []float64{
			got.PredRate(), got.Accuracy(), got.MispredRate(),
			got.CorrectSpecRate(), got.MispredOfLoads(),
		} {
			if v < 0 || v > 1 || math.IsNaN(v) {
				t.Fatalf("trial %d: rate out of [0,1]: %v (%v)", trial, v, got)
			}
		}
	}
}
