package sim

import (
	"context"
	"fmt"
	"math"

	"capred/internal/cpu"
	"capred/internal/metrics"
	"capred/internal/predictor"
	"capred/internal/report"
	"capred/internal/trace"
	"capred/internal/workload"
)

// suiteOrder returns suite names plus the aggregate row label.
func suiteOrder() []string {
	return append(workload.SuiteNames(), "Average")
}

// safeDiv returns num/den, or 0 for an empty denominator: NaN is kept
// for the cells no surviving trace filled.
func safeDiv(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// timed is one configuration of the timing pass: the timing model, with
// the RPT prefetcher or without, running pred's predictor (nil: none)
// at a prediction gap. name, when set, prefixes the run's errors.
type timed struct {
	name string
	rpt  bool
	pred predictor.Spec
	gap  int
}

// timingPass runs every configuration, in order, on each trace of the
// roster, on one cpu.Shard of its worker's machine, as one grid pass
// under stage, and returns the result with the attempts and failures,
// and each trace's run. Runs share what the shard keys alike: the cache
// levels of runs with, or without, the worker's one RPT, and the
// predictions of one spec at one gap. Each run has the experiment
// config's budget, context, per-trace deadline, transient retry and
// fault wrappers applied. Under WrapFactory, which may substitute any
// run's predictor, every run starts a fresh cpu.Shard and shares
// nothing. Each surviving trace's T holds one result per configuration;
// configuration 0 is the baseline of speedup.
func timingPass(cfg Config, stage string, configs []timed) (SweepResult, []traceRun) {
	specs := workload.Traces()
	runs := make([]traceRun, len(specs))
	g := newGrid(cfg)
	g.addPass(stage, specs, func(w *worker, i int) error {
		spec := specs[i]
		build := func(pred predictor.Spec) predictor.Predictor { return w.predictor(cfg, spec, pred) }
		ts := w.machine.Shard(build)
		res := make([]cpu.Result, len(configs))
		for v, c := range configs {
			if cfg.WrapFactory != nil {
				ts = w.machine.Shard(build)
			}
			err := cfg.perTrace(spec, func(ctx context.Context, open func() trace.Source) error {
				mcfg := cpu.DefaultConfig()
				mcfg.Ctx = ctx
				if c.rpt {
					mcfg.Prefetcher = w.prefetcher()
				}
				res[v] = ts.Run(open(), c.pred, c.gap, mcfg)
				return res[v].Err
			})
			if err != nil {
				if c.name != "" {
					err = fmt.Errorf("%s: %w", c.name, err)
				}
				return err
			}
		}
		runs[i] = traceRun{Spec: spec, T: res, ok: true}
		return nil
	})
	var r SweepResult
	r.absorb(g.size(), g.run())
	return r, runs
}

// speedup is the baseline's cycles over configuration v's, pooled over
// runs; NaN for no runs.
func speedup(runs []traceRun, v int) float64 {
	if len(runs) == 0 {
		return math.NaN()
	}
	var base, cycles int64
	for _, run := range runs {
		base += run.T[0].Cycles
		cycles += run.T[v].Cycles
	}
	return safeDiv(float64(base), float64(cycles))
}

// survivors returns the runs that completed.
func survivors(runs []traceRun) []traceRun {
	var out []traceRun
	for _, run := range runs {
		if run.ok {
			out = append(out, run)
		}
	}
	return out
}

// --- Figure 5: prediction performance of the different predictors ---

// Fig5 reproduces Figure 5: prediction rate and accuracy of the enhanced
// stride, stand-alone CAP, and hybrid predictors across the eight suites.
// All three passes shard across one worker pool.
func Fig5(cfg Config) SweepResult {
	r, runs := sweep(cfg, []row{
		{"stride", predictor.DefaultStrideConfig(), 0, nil},
		{"cap", predictor.DefaultCAPConfig(), 0, nil},
		{"hybrid", predictor.DefaultHybridConfig(), 0, nil},
	})
	r.layout("Figure 5: prediction performance of the different predictors", "suite", suiteOrder(),
		suiteRate(pct("stride rate", metrics.Rates.PredRate), runs[0]),
		suiteRate(pct("cap rate", metrics.Rates.PredRate), runs[1]),
		suiteRate(pct("hybrid rate", metrics.Rates.PredRate), runs[2]),
		suiteRate(pct2("stride acc", metrics.Rates.Accuracy), runs[0]),
		suiteRate(pct2("cap acc", metrics.Rates.Accuracy), runs[1]),
		suiteRate(pct2("hybrid acc", metrics.Rates.Accuracy), runs[2]))
	return r
}

// --- Figure 6: hybrid performance vs LB size and associativity ---

// LBGeometry names one load-buffer configuration.
type LBGeometry struct {
	Entries int
	Ways    int
}

func (g LBGeometry) String() string {
	return fmt.Sprintf("%dK,%dway", g.Entries/1024, g.Ways)
}

// Fig6Geometries are the paper's five LB configurations.
func Fig6Geometries() []LBGeometry {
	return []LBGeometry{{2048, 2}, {4096, 1}, {4096, 2}, {4096, 4}, {8192, 2}}
}

// Fig6 reproduces Figure 6: hybrid prediction rate as a function of the
// number of LB entries and associativity, with the accuracy of the
// baseline 4K 2-way geometry, as in the paper. Columns are headed by
// LBGeometry.String.
func Fig6(cfg Config) SweepResult {
	var rows []row
	for _, geom := range Fig6Geometries() {
		hc := predictor.DefaultHybridConfig()
		hc.CAP.LBEntries, hc.CAP.LBWays = geom.Entries, geom.Ways
		rows = append(rows, row{"LB " + geom.String(), hc, 0, nil})
	}
	r, runs := sweep(cfg, rows)
	var cols []column
	for i, geom := range Fig6Geometries() {
		cols = append(cols, suiteRate(pct(geom.String(), metrics.Rates.PredRate), runs[i]))
	}
	cols = append(cols, suiteRate(pct2("acc(4K,2way)", metrics.Rates.Accuracy), runs[2]))
	r.layout("Figure 6: hybrid prediction rate vs LB entries/associativity", "suite", suiteOrder(), cols...)
	return r
}

// --- Figure 7: relative performance (speedup) per trace ---

// Fig7 reproduces Figure 7: per-trace speedup of the enhanced stride and
// hybrid predictors over no address prediction, on the OoO timing model.
// Its lines are the surviving traces, then their mean speedup.
func Fig7(cfg Config) SweepResult {
	r, runs := timingPass(cfg, "timing", []timed{
		{"baseline", false, nil, 0},
		{"stride", false, predictor.DefaultStrideConfig(), 0},
		{"hybrid", false, predictor.DefaultHybridConfig(), 0},
	})
	runs = survivors(runs)
	var labels []string
	for _, run := range runs {
		labels = append(labels, run.Spec.Name)
	}
	col := func(header string, v int) column {
		return column{header, report.Speedup, func(line int) float64 {
			if line < len(runs) {
				return speedup(runs[line:line+1], v)
			}
			if len(runs) == 0 {
				return math.NaN()
			}
			var sum float64
			for i := range runs {
				sum += speedup(runs[i:i+1], v)
			}
			return sum / float64(len(runs))
		}}
	}
	r.layout("Figure 7: speedup over no address prediction, per trace", "trace",
		append(labels, "Average"), col("stride", 1), col("hybrid", 2))
	return r
}

// --- Figure 8: selector performance ---

// selectorRates reads one line of Figure 8 from a selector ledger: the
// share of dual-confident loads in each selector state (SelStrongStride
// … SelStrongCAP), then the correct-selection rate, 1 − mis-selections
// / dual-confident loads. A ledger without dual-confident loads measured
// nothing: every rate is NaN.
func selectorRates(s predictor.SelectorStats) [5]float64 {
	if s.DualConfident == 0 {
		return noSelectorRates
	}
	var r [5]float64
	for st, n := range s.States {
		r[st] = float64(n) / float64(s.DualConfident)
	}
	r[4] = 1 - float64(s.MisSelected)/float64(s.DualConfident)
	return r
}

// noSelectorRates is the Figure 8 line of a ledger, or a set of ledgers,
// without dual-confident loads: "n/a" in every cell.
var noSelectorRates = [5]float64{math.NaN(), math.NaN(), math.NaN(), math.NaN(), math.NaN()}

// selectorAverage is Figure 8's Average line: the equal-weight mean of
// the per-trace lines over the traces that had dual-confident loads, as
// the paper's Average bars weigh every trace alike; NaN when none had.
func selectorAverage(ledgers []predictor.SelectorStats) [5]float64 {
	var sum [5]float64
	n := 0
	for _, s := range ledgers {
		if s.DualConfident == 0 {
			continue
		}
		n++
		for k, v := range selectorRates(s) {
			sum[k] += v
		}
	}
	if n == 0 {
		return noSelectorRates
	}
	for k := range sum {
		sum[k] /= float64(n)
	}
	return sum
}

// Fig8 reproduces Figure 8: the distribution of selector-counter states
// over dual-confident loads and the correct-selection rate, read from
// the ledger each trace's hybrid keeps (immediate mode, like Fig. 5).
// A suite's line pools its traces' ledgers.
func Fig8(cfg Config) SweepResult {
	r, runs := sweep(cfg, []row{{"hybrid", predictor.DefaultHybridConfig(), 0, nil}})
	col := func(header string, format func(float64) string, k int) column {
		return suiteColumn(header, format, runs[0], func(in []traceRun, average bool) float64 {
			if len(in) == 0 {
				return math.NaN()
			}
			var pool predictor.SelectorStats
			var ledgers []predictor.SelectorStats
			for _, run := range in {
				pool.Merge(run.Sel)
				ledgers = append(ledgers, run.Sel)
			}
			if average {
				return selectorAverage(ledgers)[k]
			}
			return selectorRates(pool)[k]
		})
	}
	r.layout("Figure 8: selector performance", "suite", suiteOrder(),
		col("strong-stride", report.Pct, 0), col("weak-stride", report.Pct, 1),
		col("weak-cap", report.Pct, 2), col("strong-cap", report.Pct, 3),
		col("correct-sel", report.Pct2, 4))
	return r
}

// --- Figure 9: history length and global correlation ---

// Fig9Lengths are the history lengths the paper sweeps.
func Fig9Lengths() []int { return []int{1, 2, 3, 4, 6, 12} }

// Fig9 reproduces Figure 9: correct predictions as a function of the
// history length, isolating global correlation. No confidence mechanism
// is used (every prediction is a speculative access). Lines are
// labelled by history length.
func Fig9(cfg Config) SweepResult {
	lengths := Fig9Lengths()
	var rows []row
	for _, gc := range []bool{true, false} {
		for _, hl := range lengths {
			cc := predictor.DefaultCAPConfig()
			cc.HistoryLen = hl
			cc.GlobalCorrelation = gc
			cc.ConfThreshold = 0 // no confidence mechanism
			cc.TagBits = 0
			cc.CF = predictor.NoCF()
			rows = append(rows, row{fmt.Sprintf("hist %d gc=%v", hl, gc), cc, 0, nil})
		}
	}
	r, _ := sweep(cfg, rows)
	var labels []string
	for _, hl := range lengths {
		labels = append(labels, fmt.Sprintf("%d", hl))
	}
	// Rows run with global correlation first, then without.
	n := len(lengths)
	r.layout("Figure 9: correct predictions vs history length (stand-alone CAP, no confidence)", "history length", labels,
		rowRate(pct("global correlation", metrics.Rates.CorrectSpecRate), r.Counters[:n]),
		rowRate(pct("no global correlation", metrics.Rates.CorrectSpecRate), r.Counters[n:]))
	return r
}

// --- Figure 10: LT tags and control-flow indications ---

// Fig10Variant names one confidence configuration of the sweep.
type Fig10Variant struct {
	Name    string
	TagBits int
	Path    bool
}

// Fig10Variants are the paper's five configurations.
func Fig10Variants() []Fig10Variant {
	return []Fig10Variant{
		{"no tag", 0, false},
		{"4 bit tag", 4, false},
		{"8 bit tag", 8, false},
		{"4 bit tag + path", 4, true},
		{"8 bit tag + path", 8, true},
	}
}

// Fig10 reproduces Figure 10: the influence of LT tags (and control-flow
// indications) on the stand-alone CAP predictor. Its rows are
// Fig10Variants, in order.
func Fig10(cfg Config) SweepResult {
	var rows []row
	for _, v := range Fig10Variants() {
		cc := predictor.DefaultCAPConfig()
		cc.TagBits = v.TagBits
		if !v.Path {
			cc.CF = predictor.NoCF()
		}
		rows = append(rows, row{v.Name, cc, 0, nil})
	}
	return sweepRows(cfg, "Figure 10: influence of LT tags on the CAP predictor", "variant", []rate{
		pct("prediction rate", metrics.Rates.PredRate),
		pct2("misprediction rate", metrics.Rates.MispredRate),
	}, rows)
}

// --- Figure 11: prediction gap ---

// Fig11Gaps are the prediction gaps the paper sweeps (0 = immediate).
func Fig11Gaps() []int { return []int{0, 4, 8, 12} }

// Fig11 reproduces Figure 11: the influence of the prediction gap on
// prediction rate and accuracy for the enhanced stride and hybrid
// predictors. Lines are labelled by gap ("immediate", "4", …); the
// sweep rows alternate stride and hybrid, gap by gap.
func Fig11(cfg Config) SweepResult {
	var rows []row
	var labels []string
	for _, gap := range Fig11Gaps() {
		rows = append(rows,
			row{fmt.Sprintf("stride gap %d", gap), predictor.DefaultStrideConfig(), gap, nil},
			row{fmt.Sprintf("hybrid gap %d", gap), predictor.DefaultHybridConfig(), gap, nil})
		label := "immediate"
		if gap > 0 {
			label = fmt.Sprintf("%d", gap)
		}
		labels = append(labels, label)
	}
	r, _ := sweep(cfg, rows)
	var stride, hybrid []metrics.Mean
	for i := 0; i < len(r.Counters); i += 2 {
		stride, hybrid = append(stride, r.Counters[i]), append(hybrid, r.Counters[i+1])
	}
	r.layout("Figure 11: influence of the prediction gap", "gap", labels,
		rowRate(pct("stride rate", metrics.Rates.PredRate), stride),
		rowRate(pct("hybrid rate", metrics.Rates.PredRate), hybrid),
		rowRate(pct2("stride acc", metrics.Rates.Accuracy), stride),
		rowRate(pct2("hybrid acc", metrics.Rates.Accuracy), hybrid))
	return r
}

// --- Figure 12: speedup with a prediction gap of 8 ---

// Fig12 reproduces Figure 12: relative performance of the predictors for
// an immediate update and for a prediction gap of 8 cycles. A suite's
// speedup pools its traces' cycles, and so does the Average line's over
// every trace.
func Fig12(cfg Config) SweepResult {
	// One pass over the roster, which lists the traces suite by suite,
	// so the pool stays busy across suite boundaries and a worker's two
	// predictors serve every suite. One hierarchy throughout; each
	// (spec, gap) computes its own predictions.
	r, runs := timingPass(cfg, "timing", []timed{
		{"", false, nil, 0},
		{"", false, predictor.DefaultStrideConfig(), 0},
		{"", false, predictor.DefaultStrideConfig(), 8},
		{"", false, predictor.DefaultHybridConfig(), 0},
		{"", false, predictor.DefaultHybridConfig(), 8},
	})
	col := func(header string, v int) column {
		return suiteColumn(header, report.Speedup, runs, func(in []traceRun, _ bool) float64 { return speedup(in, v) })
	}
	r.layout("Figure 12: speedup, immediate update vs prediction gap 8", "suite", suiteOrder(),
		col("stride imm", 1), col("stride gap8", 2), col("hybrid imm", 3), col("hybrid gap8", 4))
	return r
}
