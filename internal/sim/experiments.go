package sim

import (
	"context"
	"fmt"

	"capred/internal/cpu"
	"capred/internal/metrics"
	"capred/internal/predictor"
	"capred/internal/report"
	"capred/internal/trace"
	"capred/internal/workload"
)

// Standard factories.

func strideFactory() predictor.Predictor {
	return predictor.NewStride(predictor.DefaultStrideConfig())
}

func capFactory() predictor.Predictor {
	return predictor.NewCAP(predictor.DefaultCAPConfig())
}

func hybridFactory() predictor.Predictor {
	return predictor.NewHybrid(predictor.DefaultHybridConfig())
}

// suiteOrder returns suite names plus the aggregate row label.
func suiteOrder() []string {
	return append(workload.SuiteNames(), "Average")
}

// rowFor selects a table row's rates: per-suite rows are pooled
// counters, the "Average" row is the equal-weight per-trace mean. Both
// satisfy metrics.Rates, so renderers format them identically.
func rowFor(suites map[string]metrics.Counters, avg metrics.Mean, name string) metrics.Rates {
	if name == "Average" {
		return avg
	}
	return suites[name]
}

// naPct / naPct2 render a percentage cell, masking rows whose every
// contributing trace failed ("n/a") so partial tables cannot present
// missing data as measured zeros.
func naPct(c metrics.Rates, v float64) string {
	if c.Empty() {
		return "n/a"
	}
	return report.Pct(v)
}

func naPct2(c metrics.Rates, v float64) string {
	if c.Empty() {
		return "n/a"
	}
	return report.Pct2(v)
}

// safeDiv returns num/den, or 0 for an empty denominator (e.g. a suite
// whose every trace failed), keeping partial tables free of NaN/Inf.
func safeDiv(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// runTimed runs one configuration of timing shard ts, a trace's shard
// on worker w's machine, with the experiment config's budget, context,
// per-trace deadline, transient retry and fault wrappers applied. f may
// be nil (the no-prediction baseline). k names what the run shares with
// the shard's other runs; k.Pred also names f's configuration within
// the shard's pass (see worker.predictor). Under WrapFactory, which may
// substitute a trace's factory on any call, no run shares predictions.
func runTimed(cfg Config, w *worker, ts cpu.Shard, spec workload.TraceSpec, mcfg cpu.Config, f Factory, gapDepth int, k cpu.Keys) (cpu.Result, error) {
	var newPred func() predictor.Predictor
	if f != nil {
		variant := k.Pred
		newPred = func() predictor.Predictor { return w.predictor(cfg, spec, variant, f) }
	}
	if cfg.WrapFactory != nil {
		k.Pred = 0
	}
	var out cpu.Result
	err := cfg.perTrace(spec, func(ctx context.Context, open func() trace.Source) error {
		m := mcfg
		m.Ctx = ctx
		out = ts.Run(open(), newPred, gapDepth, m, k)
		return out.Err
	})
	return out, err
}

// --- Figure 5: prediction performance of the different predictors ---

// Fig5Result holds per-suite counters for the three predictors.
type Fig5Result struct {
	FailureSet
	Stride map[string]metrics.Counters
	CAP    map[string]metrics.Counters
	Hybrid map[string]metrics.Counters
	AvgS   metrics.Mean
	AvgC   metrics.Mean
	AvgH   metrics.Mean
}

// Fig5 reproduces Figure 5: prediction rate and accuracy of the enhanced
// stride, stand-alone CAP, and hybrid predictors across the eight suites.
// All three passes shard across one worker pool.
func Fig5(cfg Config) Fig5Result {
	var r Fig5Result
	p := sweep(cfg, &r.FailureSet, []row{
		{"stride", strideFactory, 0, nil},
		{"cap", capFactory, 0, nil},
		{"hybrid", hybridFactory, 0, nil},
	})
	r.Stride, r.AvgS = p[0].merge()
	r.CAP, r.AvgC = p[1].merge()
	r.Hybrid, r.AvgH = p[2].merge()
	return r
}

// Table renders the Figure 5 rows.
func (r Fig5Result) Table() *report.Table {
	t := report.New("Figure 5: prediction performance of the different predictors",
		"suite", "stride rate", "cap rate", "hybrid rate",
		"stride acc", "cap acc", "hybrid acc")
	for _, s := range suiteOrder() {
		cs := rowFor(r.Stride, r.AvgS, s)
		cc := rowFor(r.CAP, r.AvgC, s)
		ch := rowFor(r.Hybrid, r.AvgH, s)
		t.Add(s,
			naPct(cs, cs.PredRate()), naPct(cc, cc.PredRate()), naPct(ch, ch.PredRate()),
			naPct2(cs, cs.Accuracy()), naPct2(cc, cc.Accuracy()), naPct2(ch, ch.Accuracy()))
	}
	t.SetFooter(r.Footer())
	return t
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

// Fig6Result maps geometry → per-suite counters.
type Fig6Result struct {
	FailureSet
	Geometries []LBGeometry
	Suites     []map[string]metrics.Counters
	Avgs       []metrics.Mean
}

// Fig6 reproduces Figure 6: hybrid prediction rate as a function of the
// number of LB entries and associativity.
func Fig6(cfg Config) Fig6Result {
	r := Fig6Result{Geometries: Fig6Geometries()}
	var rows []row
	for _, geom := range r.Geometries {
		rows = append(rows, row{"LB " + geom.String(), hybridWith(func(hc *predictor.HybridConfig) {
			hc.CAP.LBEntries = geom.Entries
			hc.CAP.LBWays = geom.Ways
		}), 0, nil})
	}
	for _, p := range sweep(cfg, &r.FailureSet, rows) {
		suites, avg := p.merge()
		r.Suites = append(r.Suites, suites)
		r.Avgs = append(r.Avgs, avg)
	}
	return r
}

// Table renders the Figure 6 rows (prediction rate per geometry, accuracy
// for the baseline 4K 2-way geometry, as in the paper).
func (r Fig6Result) Table() *report.Table {
	headers := []string{"suite"}
	for _, g := range r.Geometries {
		headers = append(headers, g.String())
	}
	headers = append(headers, "acc(4K,2way)")
	t := report.New("Figure 6: hybrid prediction rate vs LB entries/associativity", headers...)
	baseIdx := 2 // 4K 2-way
	for _, s := range suiteOrder() {
		row := []string{s}
		for i := range r.Geometries {
			c := rowFor(r.Suites[i], r.Avgs[i], s)
			row = append(row, naPct(c, c.PredRate()))
		}
		c := rowFor(r.Suites[baseIdx], r.Avgs[baseIdx], s)
		row = append(row, naPct2(c, c.Accuracy()))
		t.Add(row...)
	}
	t.SetFooter(r.Footer())
	return t
}

// --- Figure 7: relative performance (speedup) per trace ---

// Fig7Row is one trace's timing outcome.
type Fig7Row struct {
	Trace         string
	Suite         string
	BaseCycles    int64
	StrideCycles  int64
	HybridCycles  int64
	StrideSpeedup float64
	HybridSpeedup float64
}

// Fig7Result holds per-trace speedups plus the averages. Traces that
// failed are absent from Rows and listed in Failures instead.
type Fig7Result struct {
	FailureSet
	Rows      []Fig7Row
	AvgStride float64
	AvgHybrid float64
}

// Fig7 reproduces Figure 7: per-trace speedup of the enhanced stride and
// hybrid predictors over no address prediction, on the OoO timing model.
func Fig7(cfg Config) Fig7Result {
	specs := workload.Traces()
	rows := make([]Fig7Row, len(specs))
	done := make([]bool, len(specs))
	g := newGrid(cfg)
	g.addPass("timing", specs, func(w *worker, i int) error {
		spec := specs[i]
		mcfg := cpu.DefaultConfig()
		ts := w.machine.Shard()
		base, err := runTimed(cfg, w, ts, spec, mcfg, nil, 0, cpu.Keys{Mem: 1})
		if err != nil {
			return fmt.Errorf("baseline: %w", err)
		}
		st, err := runTimed(cfg, w, ts, spec, mcfg, strideFactory, 0, cpu.Keys{Mem: 1, Pred: 1})
		if err != nil {
			return fmt.Errorf("stride: %w", err)
		}
		hy, err := runTimed(cfg, w, ts, spec, mcfg, hybridFactory, 0, cpu.Keys{Mem: 1, Pred: 2})
		if err != nil {
			return fmt.Errorf("hybrid: %w", err)
		}
		rows[i] = Fig7Row{
			Trace: spec.Name, Suite: spec.Suite,
			BaseCycles: base.Cycles, StrideCycles: st.Cycles, HybridCycles: hy.Cycles,
			StrideSpeedup: safeDiv(float64(base.Cycles), float64(st.Cycles)),
			HybridSpeedup: safeDiv(float64(base.Cycles), float64(hy.Cycles)),
		}
		done[i] = true
		return nil
	})
	var r Fig7Result
	r.absorb(g.size(), g.run())
	var ss, hs float64
	for i, row := range rows {
		if !done[i] {
			continue
		}
		r.Rows = append(r.Rows, row)
		ss += row.StrideSpeedup
		hs += row.HybridSpeedup
	}
	r.AvgStride = safeDiv(ss, float64(len(r.Rows)))
	r.AvgHybrid = safeDiv(hs, float64(len(r.Rows)))
	return r
}

// Table renders the Figure 7 rows.
func (r Fig7Result) Table() *report.Table {
	t := report.New("Figure 7: speedup over no address prediction, per trace",
		"trace", "stride", "hybrid")
	for _, row := range r.Rows {
		t.Add(row.Trace, report.Speedup(row.StrideSpeedup), report.Speedup(row.HybridSpeedup))
	}
	t.Add("Average", report.Speedup(r.AvgStride), report.Speedup(r.AvgHybrid))
	t.SetFooter(r.Footer())
	return t
}

// --- Figure 8: selector performance ---

// Fig8Result holds the hybrid's selector ledger (§3.7) per suite,
// pooled over the suite's surviving traces, and per surviving trace.
type Fig8Result struct {
	FailureSet
	Suites map[string]predictor.SelectorStats
	Traces []predictor.SelectorStats // in roster order
}

// Fig8Row is one row of Figure 8: the share of dual-confident loads in
// each selector state (SelStrongStride … SelStrongCAP) and the
// correct-selection rate, 1 − mis-selections / dual-confident loads.
type Fig8Row struct {
	Share      [4]float64
	CorrectSel float64
}

// fig8Row computes a ledger's row; an empty ledger has no shares and no
// mis-selections.
func fig8Row(s predictor.SelectorStats) Fig8Row {
	row := Fig8Row{CorrectSel: 1 - safeDiv(float64(s.MisSelected), float64(s.DualConfident))}
	for st, n := range s.States {
		row.Share[st] = safeDiv(float64(n), float64(s.DualConfident))
	}
	return row
}

// Average is the "Average" row: the equal-weight mean of the per-trace
// rows over the traces that had dual-confident loads, as the paper's
// Average bars weigh every trace alike.
func (r Fig8Result) Average() Fig8Row {
	var sum Fig8Row
	n := 0
	for _, s := range r.Traces {
		if s.DualConfident == 0 {
			continue
		}
		n++
		row := fig8Row(s)
		for st := range sum.Share {
			sum.Share[st] += row.Share[st]
		}
		sum.CorrectSel += row.CorrectSel
	}
	if n == 0 {
		return fig8Row(predictor.SelectorStats{})
	}
	for st := range sum.Share {
		sum.Share[st] /= float64(n)
	}
	sum.CorrectSel /= float64(n)
	return sum
}

// Fig8 reproduces Figure 8: the distribution of selector-counter states
// over dual-confident loads and the correct-selection rate, read from
// the ledger each trace's hybrid keeps (immediate mode, like Fig. 5).
func Fig8(cfg Config) Fig8Result {
	r := Fig8Result{Suites: make(map[string]predictor.SelectorStats)}
	p := sweep(cfg, &r.FailureSet, []row{{"hybrid", hybridFactory, 0, nil}})
	for _, run := range p[0].runs {
		if run.ok {
			s := r.Suites[run.Spec.Suite]
			s.Merge(run.Sel)
			r.Suites[run.Spec.Suite] = s
			r.Traces = append(r.Traces, run.Sel)
		}
	}
	return r
}

// Table renders the Figure 8 rows; a row no trace survived reads "n/a".
func (r Fig8Result) Table() *report.Table {
	t := report.New("Figure 8: selector performance",
		"suite", "strong-stride", "weak-stride", "weak-cap", "strong-cap", "correct-sel")
	for _, s := range suiteOrder() {
		l, ok := r.Suites[s]
		row := fig8Row(l)
		if s == "Average" {
			row, ok = r.Average(), len(r.Traces) > 0
		}
		if !ok {
			t.Add(s, "n/a", "n/a", "n/a", "n/a", "n/a")
			continue
		}
		t.Add(s, report.Pct(row.Share[0]), report.Pct(row.Share[1]),
			report.Pct(row.Share[2]), report.Pct(row.Share[3]), report.Pct2(row.CorrectSel))
	}
	t.SetFooter(r.Footer())
	return t
}

// --- Figure 9: history length and global correlation ---

// Fig9Lengths are the history lengths the paper sweeps.
func Fig9Lengths() []int { return []int{1, 2, 3, 4, 6, 12} }

// Fig9Result holds correct-speculative rates per history length, with and
// without global correlation.
type Fig9Result struct {
	FailureSet
	Lengths []int
	With    []float64
	Without []float64
}

// Fig9 reproduces Figure 9: correct predictions as a function of the
// history length, isolating global correlation. No confidence mechanism
// is used (every prediction is a speculative access).
func Fig9(cfg Config) Fig9Result {
	r := Fig9Result{Lengths: Fig9Lengths()}
	var rows []row
	for _, gc := range []bool{true, false} {
		for _, hl := range r.Lengths {
			rows = append(rows, row{fmt.Sprintf("hist %d gc=%v", hl, gc), capWith(func(cc *predictor.CAPConfig) {
				cc.HistoryLen = hl
				cc.GlobalCorrelation = gc
				cc.ConfThreshold = 0 // no confidence mechanism
				cc.TagBits = 0
				cc.CF = predictor.NoCF()
			}), 0, nil})
		}
	}
	// Rows run with global correlation first, then without.
	for i, p := range sweep(cfg, &r.FailureSet, rows) {
		_, avg := p.merge()
		if i < len(r.Lengths) {
			r.With = append(r.With, avg.CorrectSpecRate())
		} else {
			r.Without = append(r.Without, avg.CorrectSpecRate())
		}
	}
	return r
}

// Table renders the Figure 9 series.
func (r Fig9Result) Table() *report.Table {
	t := report.New("Figure 9: correct predictions vs history length (stand-alone CAP, no confidence)",
		"history length", "global correlation", "no global correlation")
	for i, hl := range r.Lengths {
		t.Add(fmt.Sprintf("%d", hl), report.Pct(r.With[i]), report.Pct(r.Without[i]))
	}
	t.SetFooter(r.Footer())
	return t
}

// BestLength returns the history length with the highest correct rate for
// the given series.
func (r Fig9Result) BestLength(with bool) int {
	series := r.Without
	if with {
		series = r.With
	}
	best, bestV := r.Lengths[0], series[0]
	for i, v := range series {
		if v > bestV {
			best, bestV = r.Lengths[i], v
		}
	}
	return best
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
		rows = append(rows, row{v.Name, capWith(func(cc *predictor.CAPConfig) {
			cc.TagBits = v.TagBits
			if !v.Path {
				cc.CF = predictor.NoCF()
			}
		}), 0, nil})
	}
	r, _ := sweepRows(cfg, "Figure 10: influence of LT tags on the CAP predictor", "variant", []column{
		pct("prediction rate", metrics.Mean.PredRate),
		pct2("misprediction rate", metrics.Mean.MispredRate),
	}, rows)
	return r
}

// --- Figure 11: prediction gap ---

// Fig11Gaps are the prediction gaps the paper sweeps (0 = immediate).
func Fig11Gaps() []int { return []int{0, 4, 8, 12} }

// Fig11Result holds stride and hybrid counters per gap.
type Fig11Result struct {
	FailureSet
	Gaps   []int
	Stride []metrics.Mean
	Hybrid []metrics.Mean
}

// Fig11 reproduces Figure 11: the influence of the prediction gap on
// prediction rate and accuracy for the enhanced stride and hybrid
// predictors.
func Fig11(cfg Config) Fig11Result {
	r := Fig11Result{Gaps: Fig11Gaps()}
	var rows []row
	for _, gap := range r.Gaps {
		rows = append(rows,
			row{fmt.Sprintf("stride gap %d", gap), strideFactory, gap, nil},
			row{fmt.Sprintf("hybrid gap %d", gap), hybridFactory, gap, nil})
	}
	p := sweep(cfg, &r.FailureSet, rows)
	for gi := range r.Gaps {
		_, avgS := p[2*gi].merge()
		_, avgH := p[2*gi+1].merge()
		r.Stride = append(r.Stride, avgS)
		r.Hybrid = append(r.Hybrid, avgH)
	}
	return r
}

// Table renders the Figure 11 rows.
func (r Fig11Result) Table() *report.Table {
	t := report.New("Figure 11: influence of the prediction gap",
		"gap", "stride rate", "hybrid rate", "stride acc", "hybrid acc")
	for i, gap := range r.Gaps {
		name := "immediate"
		if gap > 0 {
			name = fmt.Sprintf("%d", gap)
		}
		t.Add(name,
			naPct(r.Stride[i], r.Stride[i].PredRate()), naPct(r.Hybrid[i], r.Hybrid[i].PredRate()),
			naPct2(r.Stride[i], r.Stride[i].Accuracy()), naPct2(r.Hybrid[i], r.Hybrid[i].Accuracy()))
	}
	t.SetFooter(r.Footer())
	return t
}

// --- Figure 12: speedup with a prediction gap of 8 ---

// Fig12Row is one suite's speedups.
type Fig12Row struct {
	Suite                 string
	StrideImm, StrideGap8 float64
	HybridImm, HybridGap8 float64
}

// Fig12Result holds per-suite speedups immediate vs gap 8.
type Fig12Result struct {
	FailureSet
	Rows []Fig12Row
}

// Fig12 reproduces Figure 12: relative performance of the predictors for
// an immediate update and for a prediction gap of 8 cycles.
func Fig12(cfg Config) Fig12Result {
	// One pass over the roster, which lists the traces suite by suite,
	// so the pool stays busy across suite boundaries and a worker's
	// predictors serve every suite.
	specs := workload.Traces()
	cycles := make([][5]int64, len(specs)) // base, strideImm, strideGap, hybridImm, hybridGap
	done := make([]bool, len(specs))
	g := newGrid(cfg)
	g.addPass("timing", specs, func(w *worker, i int) error {
		mcfg := cpu.DefaultConfig()
		ts := w.machine.Shard()
		// One hierarchy throughout; each predictor configuration is
		// its own Pred key.
		variants := []struct {
			f   Factory
			gap int
		}{
			{nil, 0}, {strideFactory, 0}, {strideFactory, 8}, {hybridFactory, 0}, {hybridFactory, 8},
		}
		for v, va := range variants {
			res, err := runTimed(cfg, w, ts, specs[i], mcfg, va.f, va.gap, cpu.Keys{Mem: 1, Pred: v})
			if err != nil {
				return err
			}
			cycles[i][v] = res.Cycles
		}
		done[i] = true
		return nil
	})
	var r Fig12Result
	r.absorb(g.size(), g.run())

	speedups := func(suite string, c [5]float64) Fig12Row {
		return Fig12Row{
			Suite:      suite,
			StrideImm:  safeDiv(c[0], c[1]),
			StrideGap8: safeDiv(c[0], c[2]),
			HybridImm:  safeDiv(c[0], c[3]),
			HybridGap8: safeDiv(c[0], c[4]),
		}
	}
	var totals [5]float64
	for _, suite := range workload.SuiteNames() {
		var sum [5]int64
		for i, c := range cycles {
			if done[i] && specs[i].Suite == suite {
				for v := range sum {
					sum[v] += c[v]
				}
			}
		}
		var row [5]float64
		for v := range row {
			row[v] = float64(sum[v])
			totals[v] += row[v]
		}
		r.Rows = append(r.Rows, speedups(suite, row))
	}
	r.Rows = append(r.Rows, speedups("Average", totals))
	return r
}

// Table renders the Figure 12 rows.
func (r Fig12Result) Table() *report.Table {
	t := report.New("Figure 12: speedup, immediate update vs prediction gap 8",
		"suite", "stride imm", "stride gap8", "hybrid imm", "hybrid gap8")
	for _, row := range r.Rows {
		t.Add(row.Suite,
			report.Speedup(row.StrideImm), report.Speedup(row.StrideGap8),
			report.Speedup(row.HybridImm), report.Speedup(row.HybridGap8))
	}
	t.SetFooter(r.Footer())
	return t
}
