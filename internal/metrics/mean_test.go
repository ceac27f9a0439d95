package metrics

import (
	"math"
	"testing"
)

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestMeanEqualWeight(t *testing.T) {
	// Trace A: 100 loads, 50 speculated, 50 correct → pred 0.5, acc 1.0.
	a := Counters{Loads: 100, Speculated: 50, SpecCorrect: 50, Predicted: 50, Correct: 50}
	// Trace B: 10× the loads, zero speculation → pred 0, no accuracy sample.
	b := Counters{Loads: 1000}

	var m Mean
	m.Add(a)
	m.Add(b)

	// Equal weight: pred rate is the mean of 0.5 and 0.0, not the pooled
	// 50/1100 that load weighting would give.
	if got := m.PredRate(); !approx(got, 0.25) {
		t.Errorf("PredRate = %v, want 0.25", got)
	}
	// Accuracy has a single sample (B never speculated).
	if got := m.Accuracy(); !approx(got, 1.0) {
		t.Errorf("Accuracy = %v, want 1.0", got)
	}
	// The pooled variant stays load-weighted for debugging.
	if got := m.Pooled.PredRate(); !approx(got, 50.0/1100.0) {
		t.Errorf("Pooled.PredRate = %v, want %v", got, 50.0/1100.0)
	}
	if m.Traces != 2 {
		t.Errorf("Traces = %d, want 2", m.Traces)
	}
}

func TestMeanMatchesSingleTrace(t *testing.T) {
	c := Counters{
		Loads: 200, Predicted: 120, Correct: 100,
		Speculated: 110, SpecCorrect: 95, Mispred: 15,
	}
	var m Mean
	m.Add(c)
	checks := []struct {
		name      string
		got, want float64
	}{
		{"PredRate", m.PredRate(), c.PredRate()},
		{"Accuracy", m.Accuracy(), c.Accuracy()},
		{"MispredRate", m.MispredRate(), c.MispredRate()},
		{"CorrectSpecRate", m.CorrectSpecRate(), c.CorrectSpecRate()},
		{"MispredOfLoads", m.MispredOfLoads(), c.MispredOfLoads()},
	}
	for _, ck := range checks {
		if !approx(ck.got, ck.want) {
			t.Errorf("%s = %v, want %v", ck.name, ck.got, ck.want)
		}
	}
}

func TestMeanEmptyAndDefaults(t *testing.T) {
	var m Mean
	if !m.Empty() {
		t.Error("zero Mean should be Empty")
	}
	m.Add(Counters{}) // a trace that saw nothing
	if !m.Empty() {
		t.Error("Mean over load-free traces should stay Empty")
	}
}

func TestMeanComparable(t *testing.T) {
	var a, b Mean
	c := Counters{Loads: 10, Speculated: 5, SpecCorrect: 5}
	a.Add(c)
	b.Add(c)
	if a != b {
		t.Error("identical Means should compare equal")
	}
	b.Add(c)
	if a == b {
		t.Error("different Means should not compare equal")
	}
}
