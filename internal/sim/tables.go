package sim

import (
	"fmt"

	"capred/internal/metrics"
	"capred/internal/predictor"
	"capred/internal/report"
)

// SweepResult is the result of every experiment that reports one row
// per predictor configuration: each row's equal-weight mean over the
// traces that survived, in row order.
type SweepResult struct {
	FailureSet
	Names    []string
	Counters []metrics.Mean
	// Sel, when non-nil, adds the tournament ablation's selection
	// column: Sel[i] pools row i's per-entrant selections over the
	// surviving traces, and a nil Sel[i] renders "—".
	Sel [][]predictor.ComponentStat

	title, first string
	cols         []column
}

// column is one rate column of a SweepResult table.
type column struct {
	header string
	cell   func(metrics.Mean) string
}

// pct and pct2 are rate columns rendered with one and two decimals; a
// row no trace survived reads "n/a".
func pct(header string, rate func(metrics.Mean) float64) column {
	return column{header, func(c metrics.Mean) string { return naPct(c, rate(c)) }}
}

func pct2(header string, rate func(metrics.Mean) float64) column {
	return column{header, func(c metrics.Mean) string { return naPct2(c, rate(c)) }}
}

// sweepRows runs one suite pass per row and averages each over its
// surviving traces. A row is labelled by its stage; the caller may
// relabel it. The passes are returned for readings beyond the counters.
func sweepRows(cfg Config, title, first string, cols []column, rows []row) (SweepResult, []*suitePass) {
	r := SweepResult{title: title, first: first, cols: cols}
	passes := sweep(cfg, &r.FailureSet, rows)
	for i, p := range passes {
		_, avg := p.merge()
		r.Names = append(r.Names, rows[i].stage)
		r.Counters = append(r.Counters, avg)
	}
	return r, passes
}

// Table renders one line per row.
func (r SweepResult) Table() *report.Table {
	headers := []string{r.first}
	for _, c := range r.cols {
		headers = append(headers, c.header)
	}
	if r.Sel != nil {
		headers = append(headers, "selection share@accuracy")
	}
	t := report.New(r.title, headers...)
	for i, name := range r.Names {
		cells := []string{name}
		for _, c := range r.cols {
			cells = append(cells, c.cell(r.Counters[i]))
		}
		if r.Sel != nil {
			cells = append(cells, selShares(r.Sel[i]))
		}
		t.Add(cells...)
	}
	t.SetFooter(r.Footer())
	return t
}

// hybridWith is the hybrid factory with one change to its default
// configuration.
func hybridWith(edit func(*predictor.HybridConfig)) Factory {
	return func() predictor.Predictor {
		hc := predictor.DefaultHybridConfig()
		edit(&hc)
		return predictor.NewHybrid(hc)
	}
}

// capWith is the stand-alone CAP factory with one change to its default
// configuration.
func capWith(edit func(*predictor.CAPConfig)) Factory {
	return func() predictor.Predictor {
		cc := predictor.DefaultCAPConfig()
		edit(&cc)
		return predictor.NewCAP(cc)
	}
}

// --- §4.3: link-table update policy ---

// UpdatePolicy reproduces the §4.3 study: the three LT update policies.
// The paper finds "update always" slightly better on almost all traces.
func UpdatePolicy(cfg Config) SweepResult {
	var rows []row
	for _, pol := range []predictor.UpdatePolicy{
		predictor.UpdateAlways,
		predictor.UpdateUnlessStrideCorrect,
		predictor.UpdateUnlessStrideSelected,
	} {
		rows = append(rows, row{pol.String(), hybridWith(func(hc *predictor.HybridConfig) { hc.UpdatePolicy = pol }), 0, nil})
	}
	r, _ := sweepRows(cfg, "§4.3: LT update policy (hybrid, average over all traces)", "policy",
		[]column{pct("prediction rate", metrics.Mean.PredRate), pct2("accuracy", metrics.Mean.Accuracy)}, rows)
	return r
}

// --- §4.2 text: LT size sweep ---

// LTSize reproduces the §4.2 sensitivity claim: the hybrid prediction rate
// steadily increases from 1K-entry to 8K-entry link tables. Rows are
// labelled in K entries ("1K"); their stage is "LT 1024".
func LTSize(cfg Config) SweepResult {
	sizes := []int{1024, 2048, 4096, 8192}
	var rows []row
	for _, n := range sizes {
		rows = append(rows, row{fmt.Sprintf("LT %d", n), hybridWith(func(hc *predictor.HybridConfig) { hc.CAP.LTEntries = n }), 0, nil})
	}
	r, _ := sweepRows(cfg, "§4.2: hybrid prediction rate vs LT entries", "LT entries",
		[]column{pct("prediction rate", metrics.Mean.PredRate), pct2("accuracy", metrics.Mean.Accuracy)}, rows)
	for i, n := range sizes {
		r.Names[i] = fmt.Sprintf("%dK", n/1024)
	}
	return r
}

// ladderColumns are the columns of the §1 and §3.6 predictor
// comparisons.
func ladderColumns() []column {
	return []column{
		pct("prediction rate", metrics.Mean.PredRate),
		pct("correct of loads", metrics.Mean.CorrectSpecRate),
		pct2("accuracy", metrics.Mean.Accuracy),
	}
}

// --- §1 text: baseline predictor comparison ---

// Baselines reproduces the §1 ladder: last-address predictors handle ≈40%
// of loads, stride adds ≈13%, CAP and the hybrid sit above.
func Baselines(cfg Config) SweepResult {
	r, _ := sweepRows(cfg, "§1: predictor family ladder (average over all traces)", "predictor", ladderColumns(), []row{
		{"last", func() predictor.Predictor { return predictor.NewLast(predictor.DefaultLastConfig()) }, 0, nil},
		{"stride", func() predictor.Predictor { return predictor.NewStride(predictor.BasicStrideConfig()) }, 0, nil},
		{"stride+", strideFactory, 0, nil},
		{"cap", capFactory, 0, nil},
		{"hybrid", hybridFactory, 0, nil},
	})
	return r
}

// --- §3.6: control-based address predictors ---

// ControlBased reproduces the §3.6 negative result: g-share-style and
// call-path address predictors are no substitute for CAP.
func ControlBased(cfg Config) SweepResult {
	r, _ := sweepRows(cfg, "§3.6: control-based address predictors vs CAP", "predictor", ladderColumns(), []row{
		{"gshare-addr", func() predictor.Predictor { return predictor.NewControl(predictor.DefaultControlConfig(false)) }, 0, nil},
		{"path-addr", func() predictor.Predictor { return predictor.NewControl(predictor.DefaultControlConfig(true)) }, 0, nil},
		{"cap", capFactory, 0, nil},
	})
	return r
}

// --- Ablations beyond the paper's figures (DESIGN.md §6) ---

// Ablations measures the design choices DESIGN.md calls out: PF bits
// on/off/external, static vs dynamic selector, and shift(m) variations.
func Ablations(cfg Config) SweepResult {
	r, _ := sweepRows(cfg, "Ablations (average over all traces)", "configuration", []column{
		pct("prediction rate", metrics.Mean.PredRate),
		pct2("accuracy", metrics.Mean.Accuracy),
		pct2("mispred of loads", metrics.Mean.MispredOfLoads),
	}, []row{
		{"hybrid (baseline)", hybridFactory, 0, nil},
		{"hybrid, no PF bits", hybridWith(func(hc *predictor.HybridConfig) {
			hc.CAP.PFBits = 0
			hc.CAP.PFTableEntries = 0
		}), 0, nil},
		{"hybrid, in-LT PF bits", hybridWith(func(hc *predictor.HybridConfig) { hc.CAP.PFTableEntries = 0 }), 0, nil},
		{"hybrid, static selector=stride", hybridWith(func(hc *predictor.HybridConfig) { hc.StaticSelector = predictor.CompStride }), 0, nil},
		{"hybrid, static selector=cap", hybridWith(func(hc *predictor.HybridConfig) { hc.StaticSelector = predictor.CompCAP }), 0, nil},
		{"cap, history len 2", capWith(func(cc *predictor.CAPConfig) { cc.HistoryLen = 2 }), 0, nil},
		{"cap, 2-way LT", capWith(func(cc *predictor.CAPConfig) { cc.LTWays = 2 }), 0, nil},
	})
	return r
}
