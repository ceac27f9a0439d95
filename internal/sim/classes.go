package sim

import (
	"context"
	"fmt"
	"math"

	"capred/internal/predictor"
	"capred/internal/report"
	"capred/internal/trace"
	"capred/internal/workload"
)

// classOrder fixes the reporting order of profiled load classes. Tallies
// are indexed by class, whose values are below len(classOrder).
var classOrder = [...]predictor.LoadClass{
	predictor.ClassConstant,
	predictor.ClassStride,
	predictor.ClassContext,
	predictor.ClassIrregular,
	predictor.ClassUnknown,
}

// ClassCoverage profiles every trace to classify its static loads, then
// measures per-class coverage of the last, enhanced-stride, CAP and
// hybrid predictors — the quantitative version of the paper's §2
// analysis of which program behaviours each scheme captures. Its lines
// are the classes: each class's share of the dynamic loads, and each
// predictor's correct speculations over the loads of the class.
func ClassCoverage(cfg Config) SweepResult {
	specs := workload.Traces()
	// Distinct specs, as all four are live at once (see worker.predictor).
	preds := [...]predictor.Spec{
		predictor.DefaultLastConfig(),
		predictor.DefaultStrideConfig(),
		predictor.DefaultCAPConfig(),
		predictor.DefaultHybridConfig(),
	}
	names := [len(preds)]string{"last", "stride+", "cap", "hybrid"}

	// tally is one trace's result: dynamic loads per profiled class and,
	// per predictor, correct speculations per class.
	type tally struct {
		loads   [len(classOrder)]int64
		correct [len(preds)][len(classOrder)]int64
		ok      bool
	}
	tallies := make([]tally, len(specs))

	var r SweepResult
	g := newGrid(cfg)
	g.addPass("class-coverage", specs, func(w *worker, i int) error {
		spec := specs[i]
		// Both passes run inside one perTrace scope so the deadline spans
		// the whole two-pass job and a retry restarts it from scratch
		// with fresh state.
		var t tally
		err := cfg.perTrace(spec, func(ctx context.Context, open func() trace.Source) error {
			profile, err := profileLoads(ctx, open())
			if err != nil {
				return err
			}
			t = tally{}
			var live [len(preds)]predictor.Predictor
			for v, pred := range preds {
				live[v] = w.predictor(cfg, spec, pred)
			}

			var ghr predictor.GHR
			var path predictor.PathHist
			err = forEachBlock(ctx, open(), func(b *trace.Block) {
				for i, kb := range b.KindTaken {
					switch trace.Kind(kb &^ trace.KindTakenBit) {
					case trace.KindBranch:
						ghr.Update(kb&trace.KindTakenBit != 0)
					case trace.KindCall:
						path.Push(b.IP[i])
					case trace.KindLoad:
						class := profile.Class(b.IP[i])
						t.loads[class]++
						ref := predictor.LoadRef{
							IP: b.IP[i], Offset: b.Offset[i],
							GHR: ghr.Value(), Path: path.Value(),
						}
						addr := b.Addr[i]
						for v, p := range live {
							pr := p.Predict(ref)
							if pr.Speculate && pr.Addr == addr {
								t.correct[v][class]++
							}
							p.Resolve(ref, pr, addr)
						}
					}
				}
			})
			if err != nil {
				return fmt.Errorf("measurement pass: %w", err)
			}
			return nil
		})
		if err != nil {
			return err
		}
		t.ok = true
		tallies[i] = t
		return nil
	})
	r.absorb(g.size(), g.run())

	// Failed traces contribute nothing; with no load left, every cell
	// reads NaN.
	var sum tally
	var total int64
	for _, t := range tallies {
		if !t.ok {
			continue
		}
		for c, n := range t.loads {
			sum.loads[c] += n
			total += n
		}
		for v := range preds {
			for c, n := range t.correct[v] {
				sum.correct[v][c] += n
			}
		}
	}
	ratio := func(num, den int64) float64 {
		if total == 0 {
			return math.NaN()
		}
		return safeDiv(float64(num), float64(den))
	}
	cols := []column{{"share of loads", report.Pct, func(line int) float64 {
		return ratio(sum.loads[classOrder[line]], total)
	}}}
	for v, name := range names {
		cols = append(cols, column{name, report.Pct, func(line int) float64 {
			c := classOrder[line]
			return ratio(sum.correct[v][c], sum.loads[c])
		}})
	}
	var labels []string
	for _, c := range classOrder {
		labels = append(labels, c.String())
	}
	r.layout("§2 analysis: per-class coverage (correct speculations / loads of class)", "class", labels, cols...)
	return r
}
