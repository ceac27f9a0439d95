package sim

import (
	"fmt"
	"strings"

	"capred/internal/metrics"
	"capred/internal/predictor"
	"capred/internal/predictor/tournament"
	"capred/internal/report"
)

// Tournament runs the meta-predictor ablation across every trace: the
// paper's hybrid (§3.7) as the reference, the two-way stride+CAP
// tournament that must reproduce it exactly, the Markov component on its
// own (a 1-way tournament is the component plus confidence gating), and
// the default 3-way lineup. Immediate mode (§4), like Fig. 5.
func Tournament(cfg Config) SweepResult {
	r, runs := sweep(cfg, []row{
		{"hybrid (§3.7)", predictor.DefaultHybridConfig(), 0, nil},
		{"tournament stride+cap", tournament.LineupOf("stride", "cap"), 0, nil},
		{"markov alone", tournament.LineupOf("markov"), 0, nil},
		{"tournament 3-way", tournament.LineupOf(tournament.DefaultComponents()...), 0, nil},
	})
	r.byRow("tournament meta-predictor vs the paper's hybrid (average over traces)", "configuration",
		pct("pred rate", metrics.Rates.PredRate),
		pct("accuracy", metrics.Rates.Accuracy),
		pct("correct spec", metrics.Rates.CorrectSpecRate),
		pct2("mispred/loads", metrics.Rates.MispredOfLoads))
	// Only the rows that name components report selection shares; the
	// hybrid row keeps "—".
	r.Sel = make([][]predictor.ComponentStat, len(runs))
	for i := 1; i < len(runs); i++ {
		r.Sel[i] = pooledSelections(runs[i])
	}
	return r
}

// pooledSelections sums each entrant's selections over the surviving
// runs; nil when no run kept a ledger.
func pooledSelections(runs []traceRun) []predictor.ComponentStat {
	var out []predictor.ComponentStat
	for _, run := range runs {
		if !run.ok || run.Comps == nil {
			continue
		}
		if out == nil {
			out = make([]predictor.ComponentStat, len(run.Comps))
		}
		for i, s := range run.Comps {
			out[i].Name = s.Name
			out[i].Selected += s.Selected
			out[i].Correct += s.Correct
		}
	}
	return out
}

// selShares renders one row's per-component selection breakdown:
// share of speculative accesses attributed to each component, with the
// component's own accuracy on the loads it won.
func selShares(stats []predictor.ComponentStat) string {
	if len(stats) == 0 {
		return "—"
	}
	var total int64
	for _, s := range stats {
		total += s.Selected
	}
	parts := make([]string, 0, len(stats))
	for _, s := range stats {
		if total == 0 {
			parts = append(parts, s.Name+" 0%")
			continue
		}
		parts = append(parts, fmt.Sprintf("%s %s@%s", s.Name,
			report.Pct(float64(s.Selected)/float64(total)),
			report.Pct(safeDiv(float64(s.Correct), float64(s.Selected)))))
	}
	return strings.Join(parts, " ")
}
