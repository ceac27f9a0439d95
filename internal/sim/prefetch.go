package sim

import (
	"math"

	"capred/internal/predictor"
	"capred/internal/report"
)

// Prefetch runs the §1.1 positioning experiment: a Baer/Chen stride
// prefetcher, the hybrid address predictor, and both together, against a
// plain baseline, over all 45 traces ([Gonz97]: sharing stride
// structures for both). A line's speedup pools the surviving traces'
// cycles; its L1 hit rate is their equal-weight mean.
func Prefetch(cfg Config) SweepResult {
	// The hybrid runs share the plain and RPT runs' cache levels, and
	// the combination reads the hybrid's predictions from its own run.
	r, runs := timingPass(cfg, "prefetch", []timed{
		{"", false, nil, 0},
		{"", true, nil, 0},
		{"", false, predictor.DefaultHybridConfig(), 0},
		{"", true, predictor.DefaultHybridConfig(), 0},
	})
	runs = survivors(runs)
	l1 := func(v int) float64 {
		if len(runs) == 0 {
			return math.NaN()
		}
		var sum float64
		for _, run := range runs {
			sum += run.T[v].L1HitRate / float64(len(runs))
		}
		return sum
	}
	r.layout("§1.1: data prefetching vs address prediction (timing model)", "configuration",
		[]string{"baseline", "stride prefetch (RPT)", "hybrid address prediction", "prefetch + address prediction"},
		column{"speedup", report.Speedup, func(v int) float64 { return speedup(runs, v) }},
		column{"avg L1 hit rate", report.Pct, l1})
	return r
}
