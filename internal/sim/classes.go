package sim

import (
	"context"
	"fmt"

	"capred/internal/predictor"
	"capred/internal/report"
	"capred/internal/trace"
	"capred/internal/workload"
)

// classOrder fixes the reporting order of profiled load classes.
var classOrder = []predictor.LoadClass{
	predictor.ClassConstant,
	predictor.ClassStride,
	predictor.ClassContext,
	predictor.ClassIrregular,
	predictor.ClassUnknown,
}

// ClassCoverageResult breaks each predictor's correct speculations down by
// the profiled pattern class of the load — the quantitative version of the
// paper's §2 analysis of which program behaviours each scheme captures.
type ClassCoverageResult struct {
	FailureSet
	Predictors []string
	// Share of dynamic loads in each class (same order as classOrder).
	ClassShare map[predictor.LoadClass]float64
	// Coverage[predictor][class] = correct speculations / loads of class.
	Coverage []map[predictor.LoadClass]float64
}

// ClassCoverage profiles every trace to classify its static loads, then
// measures per-class coverage of the last, enhanced-stride, CAP and
// hybrid predictors.
func ClassCoverage(cfg Config) ClassCoverageResult {
	specs := workload.Traces()
	factories := []Factory{
		func() predictor.Predictor { return predictor.NewLast(predictor.DefaultLastConfig()) },
		strideFactory,
		capFactory,
		hybridFactory,
	}
	names := []string{"last", "stride+", "cap", "hybrid"}

	// classTally is one trace's result: dynamic loads per profiled class
	// and, per predictor, correct speculations per class.
	type classTally struct {
		Loads   map[predictor.LoadClass]int64
		Correct []map[predictor.LoadClass]int64
	}
	type tally struct {
		classTally
		done bool
	}

	tallies := make([]tally, len(specs))

	g := newGrid(cfg)
	g.addPass("class-coverage", specs, func(w *worker, i int) error {
		spec := specs[i]
		// Both passes run inside one perTrace scope so the deadline spans
		// the whole two-pass job and a retry restarts it from scratch
		// with fresh state.
		var t classTally
		err := cfg.perTrace(spec, func(ctx context.Context, open func() trace.Source) error {
			profile, err := profileLoads(ctx, open())
			if err != nil {
				return err
			}

			t = classTally{
				Loads:   make(map[predictor.LoadClass]int64),
				Correct: make([]map[predictor.LoadClass]int64, len(factories)),
			}
			preds := make([]predictor.Predictor, len(factories))
			for v, f := range factories {
				t.Correct[v] = make(map[predictor.LoadClass]int64)
				preds[v] = w.predictor(cfg, spec, v, f)
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
						t.Loads[class]++
						ref := predictor.LoadRef{
							IP: b.IP[i], Offset: b.Offset[i],
							GHR: ghr.Value(), Path: path.Value(),
						}
						addr := b.Addr[i]
						for v, p := range preds {
							pr := p.Predict(ref)
							if pr.Speculate && pr.Addr == addr {
								t.Correct[v][class]++
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
		tallies[i] = tally{classTally: t, done: true}
		return nil
	})
	fails := g.run()

	// Aggregate (failed traces contribute nothing).
	loads := make(map[predictor.LoadClass]int64)
	correct := make([]map[predictor.LoadClass]int64, len(factories))
	for v := range factories {
		correct[v] = make(map[predictor.LoadClass]int64)
	}
	var total int64
	for _, t := range tallies {
		if !t.done {
			continue
		}
		for c, n := range t.Loads {
			loads[c] += n
			total += n
		}
		for v := range factories {
			for c, n := range t.Correct[v] {
				correct[v][c] += n
			}
		}
	}

	out := ClassCoverageResult{
		Predictors: names,
		ClassShare: make(map[predictor.LoadClass]float64),
		Coverage:   make([]map[predictor.LoadClass]float64, len(factories)),
	}
	out.absorb(g.size(), fails)
	for _, c := range classOrder {
		if total > 0 {
			out.ClassShare[c] = float64(loads[c]) / float64(total)
		}
	}
	for v := range factories {
		out.Coverage[v] = make(map[predictor.LoadClass]float64)
		for _, c := range classOrder {
			if loads[c] > 0 {
				out.Coverage[v][c] = float64(correct[v][c]) / float64(loads[c])
			}
		}
	}
	return out
}

// Table renders the class-coverage matrix.
func (r ClassCoverageResult) Table() *report.Table {
	t := report.New("§2 analysis: per-class coverage (correct speculations / loads of class)",
		"class", "share of loads", "last", "stride+", "cap", "hybrid")
	for _, c := range classOrder {
		row := []string{c.String(), report.Pct(r.ClassShare[c])}
		for v := range r.Predictors {
			row = append(row, report.Pct(r.Coverage[v][c]))
		}
		t.Add(row...)
	}
	t.SetFooter(r.Footer())
	return t
}
