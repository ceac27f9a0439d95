package metrics

import "fmt"

// Rates is the read interface shared by Counters (load-weighted pooled
// rates) and Mean (equal-weight per-trace averages). Table renderers
// accept a Rates so per-trace rows and aggregate rows format identically.
type Rates interface {
	Empty() bool
	PredRate() float64
	Accuracy() float64
	MispredRate() float64
	CorrectSpecRate() float64
	MispredOfLoads() float64
}

var (
	_ Rates = Counters{}
	_ Rates = Mean{}
)

// Mean aggregates per-trace rates with equal weight, the way the paper's
// "Average" bars do: each trace contributes one sample per rate no matter
// how many loads it executes. This differs from pooling counters (which
// load-weights the aggregate, so a long surviving trace dominates under
// partial failure); the pooled view is retained in Pooled for debugging.
//
// A rate whose per-trace denominator is zero (for example accuracy on a
// trace that never speculated) contributes no sample to that rate's mean
// — matching how a per-trace table row would show "n/a" rather than 0.
//
// Mean is comparable, so result structs holding one can be compared with
// == in determinism tests, like Counters.
type Mean struct {
	Traces int      // traces folded in
	Pooled Counters // load-weighted pool of the same traces, for debugging

	// Per-rate sums and sample counts, grouped by denominator.
	nLoads          int // traces with Loads > 0
	sumPredRate     float64
	sumCorrectSpec  float64
	sumMispredLoads float64

	nSpec          int // traces with Speculated > 0
	sumAccuracy    float64
	sumMispredRate float64
}

// Add folds one trace's counters into the mean as a single equal-weight
// sample.
func (m *Mean) Add(c Counters) {
	m.Traces++
	m.Pooled.Merge(c)
	if c.Loads > 0 {
		m.nLoads++
		m.sumPredRate += c.PredRate()
		m.sumCorrectSpec += c.CorrectSpecRate()
		m.sumMispredLoads += c.MispredOfLoads()
	}
	if c.Speculated > 0 {
		m.nSpec++
		m.sumAccuracy += c.Accuracy()
		m.sumMispredRate += c.MispredRate()
	}
}

func mean(sum float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Empty reports whether no contributing trace saw any loads.
func (m Mean) Empty() bool { return m.nLoads == 0 }

// PredRate is the equal-weight mean of the per-trace prediction rates.
func (m Mean) PredRate() float64 { return mean(m.sumPredRate, m.nLoads) }

// Accuracy is the equal-weight mean of the per-trace accuracies.
func (m Mean) Accuracy() float64 { return mean(m.sumAccuracy, m.nSpec) }

// MispredRate is the equal-weight mean of the per-trace misprediction
// rates.
func (m Mean) MispredRate() float64 { return mean(m.sumMispredRate, m.nSpec) }

// CorrectSpecRate is the equal-weight mean of the per-trace
// correct-speculative rates.
func (m Mean) CorrectSpecRate() float64 { return mean(m.sumCorrectSpec, m.nLoads) }

// MispredOfLoads is the equal-weight mean of the per-trace shares of
// loads suffering a wrong speculative access.
func (m Mean) MispredOfLoads() float64 { return mean(m.sumMispredLoads, m.nLoads) }

// String renders a one-line summary in the Counters format, with the
// trace count in place of the load count.
func (m Mean) String() string {
	return fmt.Sprintf("traces=%d pred-rate=%.1f%% accuracy=%.2f%% correct-spec=%.1f%%",
		m.Traces, m.PredRate()*100, m.Accuracy()*100, m.CorrectSpecRate()*100)
}
