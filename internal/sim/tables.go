package sim

import (
	"fmt"
	"math"
	"slices"

	"capred/internal/metrics"
	"capred/internal/predictor"
	"capred/internal/report"
)

// SweepResult is the result of every experiment. Its table is data: a
// title, a header per column and a label per line, and one number per
// cell, each column with its format. A cell no surviving trace filled
// holds NaN and renders "n/a". Names and Counters keep the sweep rows
// behind the table, each row's equal-weight mean over the traces that
// survived, for readings beyond the rendered columns; the timing and
// class-coverage passes have none.
type SweepResult struct {
	FailureSet
	Names    []string
	Counters []metrics.Mean
	// Sel, when non-nil, adds the tournament ablation's selection
	// column: Sel[i] pools line i's per-entrant selections over the
	// surviving traces, and a nil Sel[i] renders "—".
	Sel [][]predictor.ComponentStat

	title, first string
	cols         []column
	labels       []string
	cells        [][]float64 // cells[line][column]
}

// column is one numeric column of a table: its header, the format of
// its cells, and its value on each line, NaN for no data.
type column struct {
	header string
	format func(float64) string
	value  func(line int) float64
}

// layout sets the table: one line per label, and each column's value on
// each line.
func (r *SweepResult) layout(title, first string, labels []string, cols ...column) {
	r.title, r.first, r.labels, r.cols = title, first, labels, cols
	r.cells = make([][]float64, len(labels))
	for i := range labels {
		for _, c := range cols {
			r.cells[i] = append(r.cells[i], c.value(i))
		}
	}
}

// Table renders one line per label.
func (r SweepResult) Table() *report.Table {
	headers := []string{r.first}
	for _, c := range r.cols {
		headers = append(headers, c.header)
	}
	if r.Sel != nil {
		headers = append(headers, "selection share@accuracy")
	}
	t := report.New(r.title, headers...)
	for i, label := range r.labels {
		cells := []string{label}
		for j, v := range r.cells[i] {
			if math.IsNaN(v) {
				cells = append(cells, "n/a")
			} else {
				cells = append(cells, r.cols[j].format(v))
			}
		}
		if r.Sel != nil {
			cells = append(cells, selShares(r.Sel[i]))
		}
		t.Add(cells...)
	}
	t.SetFooter(r.Footer())
	return t
}

// Value returns the cell on the line labelled row in the column headed
// col, as a ratio (a percentage cell's 0.5 renders "50.0%"). It reports
// false when the table has no such cell or no surviving trace filled it.
func (r SweepResult) Value(row, col string) (float64, bool) {
	i := slices.Index(r.labels, row)
	j := slices.IndexFunc(r.cols, func(c column) bool { return c.header == col })
	if i < 0 || j < 0 || math.IsNaN(r.cells[i][j]) {
		return 0, false
	}
	return r.cells[i][j], true
}

// rate is a rate column: its header, its format, and the rate it reads
// from counters or a mean.
type rate struct {
	header string
	format func(float64) string
	of     func(metrics.Rates) float64
}

// pct and pct2 are rate columns rendered with one and two decimals.
func pct(header string, of func(metrics.Rates) float64) rate {
	return rate{header, report.Pct, of}
}

func pct2(header string, of func(metrics.Rates) float64) rate {
	return rate{header, report.Pct2, of}
}

// rateOf reads of from c, or NaN when c folded in no loads, so that a
// partial table cannot present missing data as a measured zero.
func rateOf(c metrics.Rates, of func(metrics.Rates) float64) float64 {
	if c.Empty() {
		return math.NaN()
	}
	return of(c)
}

// rowRate is the column that reads rt from means[line]: each line of the
// table is one sweep row.
func rowRate(rt rate, means []metrics.Mean) column {
	return column{rt.header, rt.format, func(line int) float64 { return rateOf(means[line], rt.of) }}
}

// byRow lays out one line per sweep row, labelled by its name.
func (r *SweepResult) byRow(title, first string, rates ...rate) {
	var cols []column
	for _, rt := range rates {
		cols = append(cols, rowRate(rt, r.Counters))
	}
	r.layout(title, first, r.Names, cols...)
}

// sweepRows runs rows and lays out one line per row.
func sweepRows(cfg Config, title, first string, rates []rate, rows []row) SweepResult {
	r, _ := sweep(cfg, rows)
	r.byRow(title, first, rates...)
	return r
}

// suiteColumn is a column of a per-suite table, whose lines are
// suiteOrder(): cell reads the runs that survived in the line's suite,
// or every surviving run on the Average line.
func suiteColumn(header string, format func(float64) string, runs []traceRun, cell func(in []traceRun, average bool) float64) column {
	suites := suiteOrder()
	return column{header, format, func(line int) float64 {
		average := suites[line] == "Average"
		var in []traceRun
		for _, run := range runs {
			if run.ok && (average || run.Spec.Suite == suites[line]) {
				in = append(in, run)
			}
		}
		return cell(in, average)
	}}
}

// suiteRate reads rt per suite from the suite's pooled counters, and on
// the Average line from the equal-weight mean over traces.
func suiteRate(rt rate, runs []traceRun) column {
	return suiteColumn(rt.header, rt.format, runs, func(in []traceRun, average bool) float64 {
		m := meanOf(in)
		if average {
			return rateOf(m, rt.of)
		}
		return rateOf(m.Pooled, rt.of)
	})
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
		hc := predictor.DefaultHybridConfig()
		hc.UpdatePolicy = pol
		rows = append(rows, row{pol.String(), hc, 0, nil})
	}
	return sweepRows(cfg, "§4.3: LT update policy (hybrid, average over all traces)", "policy",
		[]rate{pct("prediction rate", metrics.Rates.PredRate), pct2("accuracy", metrics.Rates.Accuracy)}, rows)
}

// --- §4.2 text: LT size sweep ---

// LTSize reproduces the §4.2 sensitivity claim: the hybrid prediction rate
// steadily increases from 1K-entry to 8K-entry link tables. Rows are
// labelled in K entries ("1K"); their stage is "LT 1024".
func LTSize(cfg Config) SweepResult {
	sizes := []int{1024, 2048, 4096, 8192}
	var rows []row
	for _, n := range sizes {
		hc := predictor.DefaultHybridConfig()
		hc.CAP.LTEntries = n
		rows = append(rows, row{fmt.Sprintf("LT %d", n), hc, 0, nil})
	}
	r, _ := sweep(cfg, rows)
	for i, n := range sizes {
		r.Names[i] = fmt.Sprintf("%dK", n/1024)
	}
	r.byRow("§4.2: hybrid prediction rate vs LT entries", "LT entries",
		pct("prediction rate", metrics.Rates.PredRate), pct2("accuracy", metrics.Rates.Accuracy))
	return r
}

// ladderRates are the columns of the §1 and §3.6 predictor comparisons.
func ladderRates() []rate {
	return []rate{
		pct("prediction rate", metrics.Rates.PredRate),
		pct("correct of loads", metrics.Rates.CorrectSpecRate),
		pct2("accuracy", metrics.Rates.Accuracy),
	}
}

// --- §1 text: baseline predictor comparison ---

// Baselines reproduces the §1 ladder: last-address predictors handle ≈40%
// of loads, stride adds ≈13%, CAP and the hybrid sit above.
func Baselines(cfg Config) SweepResult {
	return sweepRows(cfg, "§1: predictor family ladder (average over all traces)", "predictor", ladderRates(), []row{
		{"last", predictor.DefaultLastConfig(), 0, nil},
		{"stride", predictor.BasicStrideConfig(), 0, nil},
		{"stride+", predictor.DefaultStrideConfig(), 0, nil},
		{"cap", predictor.DefaultCAPConfig(), 0, nil},
		{"hybrid", predictor.DefaultHybridConfig(), 0, nil},
	})
}

// --- §3.6: control-based address predictors ---

// ControlBased reproduces the §3.6 negative result: g-share-style and
// call-path address predictors are no substitute for CAP.
func ControlBased(cfg Config) SweepResult {
	return sweepRows(cfg, "§3.6: control-based address predictors vs CAP", "predictor", ladderRates(), []row{
		{"gshare-addr", predictor.DefaultControlConfig(false), 0, nil},
		{"path-addr", predictor.DefaultControlConfig(true), 0, nil},
		{"cap", predictor.DefaultCAPConfig(), 0, nil},
	})
}

// --- Ablations beyond the paper's figures (DESIGN.md §6) ---

// Ablations measures the design choices DESIGN.md calls out: PF bits
// on/off/external, static vs dynamic selector, and shift(m) variations.
func Ablations(cfg Config) SweepResult {
	hybrid := predictor.DefaultHybridConfig()
	noPF, inLT, toStride, toCAP := hybrid, hybrid, hybrid, hybrid
	hist2, ways2 := predictor.DefaultCAPConfig(), predictor.DefaultCAPConfig()
	noPF.CAP.PFBits, noPF.CAP.PFTableEntries = 0, 0
	inLT.CAP.PFTableEntries = 0
	toStride.StaticSelector = predictor.CompStride
	toCAP.StaticSelector = predictor.CompCAP
	hist2.HistoryLen = 2
	ways2.LTWays = 2
	return sweepRows(cfg, "Ablations (average over all traces)", "configuration", []rate{
		pct("prediction rate", metrics.Rates.PredRate),
		pct2("accuracy", metrics.Rates.Accuracy),
		pct2("mispred of loads", metrics.Rates.MispredOfLoads),
	}, []row{
		{"hybrid (baseline)", hybrid, 0, nil},
		{"hybrid, no PF bits", noPF, 0, nil},
		{"hybrid, in-LT PF bits", inLT, 0, nil},
		{"hybrid, static selector=stride", toStride, 0, nil},
		{"hybrid, static selector=cap", toCAP, 0, nil},
		{"cap, history len 2", hist2, 0, nil},
		{"cap, 2-way LT", ways2, 0, nil},
	})
}
