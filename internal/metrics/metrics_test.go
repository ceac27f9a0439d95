package metrics

import (
	"strings"
	"testing"

	"capred/internal/predictor"
)

func TestCountersBasicRates(t *testing.T) {
	var c Counters
	// 1: correct speculated.
	c.Record(predictor.Prediction{Addr: 10, Predicted: true, Speculate: true}, 10)
	// 2: wrong speculated.
	c.Record(predictor.Prediction{Addr: 10, Predicted: true, Speculate: true}, 11)
	// 3: correct, not speculated.
	c.Record(predictor.Prediction{Addr: 20, Predicted: true}, 20)
	// 4: no prediction.
	c.Record(predictor.Prediction{}, 30)

	if c.Loads != 4 || c.Predicted != 3 || c.Correct != 2 ||
		c.Speculated != 2 || c.SpecCorrect != 1 || c.Mispred != 1 {
		t.Fatalf("counters wrong: %+v", c)
	}
	if c.PredRate() != 0.5 {
		t.Errorf("PredRate = %v, want 0.5", c.PredRate())
	}
	if c.Accuracy() != 0.5 {
		t.Errorf("Accuracy = %v, want 0.5", c.Accuracy())
	}
	if c.MispredRate() != 0.5 {
		t.Errorf("MispredRate = %v, want 0.5", c.MispredRate())
	}
	if c.CorrectSpecRate() != 0.25 {
		t.Errorf("CorrectSpecRate = %v, want 0.25", c.CorrectSpecRate())
	}
	if c.MispredOfLoads() != 0.25 {
		t.Errorf("MispredOfLoads = %v, want 0.25", c.MispredOfLoads())
	}
}

func TestCountersEmptyRates(t *testing.T) {
	var c Counters
	if c.PredRate() != 0 || c.Accuracy() != 0 || c.CorrectSpecRate() != 0 {
		t.Error("empty counters must report zero rates")
	}
}

func TestCountersMerge(t *testing.T) {
	var a, b Counters
	a.Record(predictor.Prediction{Addr: 1, Predicted: true, Speculate: true}, 1)
	b.Record(predictor.Prediction{Addr: 2, Predicted: true, Speculate: true}, 3)
	b.Record(predictor.Prediction{}, 9)
	a.Merge(b)
	if a.Loads != 3 || a.Speculated != 2 || a.SpecCorrect != 1 || a.Mispred != 1 {
		t.Errorf("merge wrong: %+v", a)
	}
}

func TestCountersString(t *testing.T) {
	var c Counters
	c.Record(predictor.Prediction{Addr: 1, Predicted: true, Speculate: true}, 1)
	if !strings.Contains(c.String(), "loads=1") {
		t.Errorf("String() = %q", c.String())
	}
}
