package sim

import (
	"context"
	"fmt"
	"strings"

	"capred/internal/metrics"
	"capred/internal/predictor"
	"capred/internal/predictor/tournament"
	"capred/internal/report"
	"capred/internal/trace"
	"capred/internal/workload"
)

// tournamentRow names one configuration of the ablation. A nil
// component list selects the paper's hybrid (§3.7) as the reference;
// otherwise the row runs a tournament over the named components.
type tournamentRow struct {
	name  string
	comps []string
}

// tournamentRows fixes the ablation ladder: the paper's hybrid, the
// two-way tournament that must reproduce it exactly, the Markov
// component on its own (a 1-way tournament is the component plus
// confidence gating), and the default 3-way lineup.
func tournamentRows() []tournamentRow {
	return []tournamentRow{
		{"hybrid (§3.7)", nil},
		{"tournament stride+cap", []string{"stride", "cap"}},
		{"markov alone", []string{"markov"}},
		{"tournament 3-way", tournament.DefaultComponents()},
	}
}

// tournamentPredictor builds the predictor for one ablation row.
func tournamentPredictor(row tournamentRow) (predictor.Predictor, error) {
	if row.comps == nil {
		return predictor.NewHybrid(predictor.DefaultHybridConfig()), nil
	}
	return tournament.NewNamed(predictor.DefaultConfig(), row.comps...)
}

// tournamentTally is one trace's result: the standard counters plus the
// tournament's per-component selection statistics.
type tournamentTally struct {
	C   metrics.Counters
	Sel []predictor.ComponentStat
}

// TournamentResult holds the ablation outcome: per-row aggregate rates
// over all traces plus per-component selection statistics.
type TournamentResult struct {
	FailureSet
	Rows []string
	// Avg is the equal-weight per-trace mean of each row's rates — the
	// same aggregation as the figures' "Average" rows.
	Avg []metrics.Mean
	// Sel[row] sums the per-component selection stats across traces;
	// empty for the hybrid reference row.
	Sel [][]predictor.ComponentStat
}

// Tournament runs the meta-predictor ablation across every trace: the
// paper's hybrid against the two-way tournament that provably equals it,
// the Markov component alone, and the default 3-way tournament.
// Immediate mode (§4), like Fig. 5.
func Tournament(cfg Config) TournamentResult {
	rows := tournamentRows()
	specs := workload.Traces()

	type cell struct {
		t    tournamentTally
		done bool
	}
	cells := make([][]cell, len(rows))
	g := newGrid(cfg)
	for ri, row := range rows {
		row := row
		cells[ri] = make([]cell, len(specs))
		g.addPass(row.name, specs, func(i int) error {
			spec := specs[i]
			var t tournamentTally
			err := cfg.perTrace(spec, func(ctx context.Context, open func() trace.Source) error {
				f := cfg.factoryFor(spec, func() predictor.Predictor {
					p, err := tournamentPredictor(row)
					if err != nil {
						panic(err) // unreachable: rows name known components only
					}
					return p
				})
				st := NewStepper(f(), 0)
				err := forEachBlock(ctx, open(), st.StepBlock)
				st.Finish()
				t = tournamentTally{C: st.C}
				// Only rows that name components report selection
				// shares; the hybrid row keeps "—".
				if tp, ok := st.Predictor().(*predictor.Tournament); ok && row.comps != nil {
					t.Sel = tp.ComponentStats()
				}
				return err
			})
			if err != nil {
				return err
			}
			cells[ri][i] = cell{t: t, done: true}
			return nil
		})
	}
	fails := g.run()

	out := TournamentResult{
		Rows: make([]string, len(rows)),
		Avg:  make([]metrics.Mean, len(rows)),
		Sel:  make([][]predictor.ComponentStat, len(rows)),
	}
	out.absorb(g.size(), fails)
	for ri, row := range rows {
		out.Rows[ri] = row.name
		for _, c := range cells[ri] {
			if !c.done {
				continue
			}
			out.Avg[ri].Add(c.t.C)
			if c.t.Sel != nil {
				if out.Sel[ri] == nil {
					out.Sel[ri] = make([]predictor.ComponentStat, len(c.t.Sel))
					for si := range c.t.Sel {
						out.Sel[ri][si].Name = c.t.Sel[si].Name
					}
				}
				for si := range c.t.Sel {
					out.Sel[ri][si].Selected += c.t.Sel[si].Selected
					out.Sel[ri][si].Correct += c.t.Sel[si].Correct
				}
			}
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

// Table renders the ablation.
func (r TournamentResult) Table() *report.Table {
	t := report.New("tournament meta-predictor vs the paper's hybrid (average over traces)",
		"configuration", "pred rate", "accuracy", "correct spec", "mispred/loads",
		"selection share@accuracy")
	for i, name := range r.Rows {
		a := r.Avg[i]
		t.Add(name,
			naPct(a, a.PredRate()),
			naPct(a, a.Accuracy()),
			naPct(a, a.CorrectSpecRate()),
			naPct2(a, a.MispredOfLoads()),
			selShares(r.Sel[i]))
	}
	t.SetFooter(r.Footer())
	return t
}
