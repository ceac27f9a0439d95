// Package metrics accumulates the prediction statistics reported in the
// paper's evaluation: prediction rate (speculative accesses out of all
// dynamic loads), accuracy (correct predictions out of speculative
// accesses), misprediction rate and correct-speculative rate. It reads
// only what every predictor produces; the hybrid selector statistics of
// Fig. 8 are the chooser's own ledger (predictor.SelectorStats).
package metrics

import (
	"fmt"

	"capred/internal/predictor"
)

// Counters aggregates per-load prediction outcomes.
type Counters struct {
	Loads       int64 // dynamic loads observed
	Predicted   int64 // loads for which an address was produced
	Correct     int64 // correct among Predicted (speculated or not)
	Speculated  int64 // loads for which a speculative access was launched
	SpecCorrect int64 // correct among Speculated
	Mispred     int64 // wrong among Speculated
}

// Record tallies one resolved load.
func (c *Counters) Record(p predictor.Prediction, actual uint32) {
	c.Loads++
	if p.Predicted {
		c.Predicted++
		if p.Addr == actual {
			c.Correct++
		}
	}
	if p.Speculate {
		c.Speculated++
		if p.Addr == actual {
			c.SpecCorrect++
		} else {
			c.Mispred++
		}
	}
}

// Merge adds other into c.
func (c *Counters) Merge(other Counters) {
	c.Loads += other.Loads
	c.Predicted += other.Predicted
	c.Correct += other.Correct
	c.Speculated += other.Speculated
	c.SpecCorrect += other.SpecCorrect
	c.Mispred += other.Mispred
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// Empty reports whether the counters saw no loads at all — e.g. a table
// row whose every contributing trace failed. Renderers use it to mark
// the row "n/a" instead of printing zero rates that read as measured.
func (c Counters) Empty() bool { return c.Loads == 0 }

// PredRate is the paper's prediction-rate metric: speculative accesses out
// of all dynamic loads.
func (c Counters) PredRate() float64 { return ratio(c.Speculated, c.Loads) }

// Accuracy is the correct-prediction rate out of all speculative accesses.
func (c Counters) Accuracy() float64 { return ratio(c.SpecCorrect, c.Speculated) }

// MispredRate is 1 − Accuracy: wrong speculative accesses out of all
// speculative accesses.
func (c Counters) MispredRate() float64 { return ratio(c.Mispred, c.Speculated) }

// CorrectSpecRate is the Fig. 9/11 metric: correct speculative accesses
// out of all dynamic loads.
func (c Counters) CorrectSpecRate() float64 { return ratio(c.SpecCorrect, c.Loads) }

// MispredOfLoads is the share of all dynamic loads that suffered a wrong
// speculative access.
func (c Counters) MispredOfLoads() float64 { return ratio(c.Mispred, c.Loads) }

// String renders a one-line summary.
func (c Counters) String() string {
	return fmt.Sprintf("loads=%d pred-rate=%.1f%% accuracy=%.2f%% correct-spec=%.1f%%",
		c.Loads, c.PredRate()*100, c.Accuracy()*100, c.CorrectSpecRate()*100)
}
