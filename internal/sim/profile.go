package sim

import (
	"context"
	"fmt"

	"capred/internal/metrics"
	"capred/internal/predictor"
	"capred/internal/report"
	"capred/internal/trace"
	"capred/internal/workload"
)

// ProfileAssistResult compares the plain hybrid against a profile-assisted
// hybrid (§6 future work: software-assisted load classification), at the
// baseline table size and at a reduced one (the paper expects profile
// feedback to "help reducing predictor size").
type ProfileAssistResult struct {
	FailureSet
	Names    []string
	Counters []metrics.Mean
	// Classified is the total number of profiled static loads, and
	// Irregular how many of them the profile filters out.
	Classified int
	Irregular  int
}

// ProfileAssist runs the profile-feedback experiment: each trace is
// profiled on a training prefix, then simulated with and without the
// resulting classification, at 4K- and 512-entry link tables.
func ProfileAssist(cfg Config) ProfileAssistResult {
	specs := workload.Traces()

	// profileCell is one trace's result.
	type profileCell struct {
		C          [4]metrics.Counters
		Classified int
		Irregular  int
	}
	type cell struct {
		profileCell
		done bool
	}
	cells := make([]cell, len(specs))

	g := newGrid(cfg)
	g.addPass("profile-assist", specs, func(_ *worker, i int) error {
		spec := specs[i]
		// The training pass and all four variants share one perTrace
		// scope: the deadline covers the whole job, and a retry restarts
		// it with a fresh cell so no partial tallies survive.
		var res profileCell
		err := cfg.perTrace(spec, func(ctx context.Context, open func() trace.Source) error {
			res = profileCell{}

			// Training pass: profile the first half of the budget.
			prof := predictor.NewProfiler()
			src := trace.NewLimit(open(), cfg.EventsPerTrace/2)
			err := forEachBlock(ctx, src, func(b *trace.Block) {
				for i, kb := range b.KindTaken {
					if trace.Kind(kb&^trace.KindTakenBit) == trace.KindLoad {
						prof.Observe(b.IP[i], b.Addr[i])
					}
				}
			})
			if err != nil {
				return fmt.Errorf("profiling pass: %w", err)
			}
			profile := prof.Profile()
			res.Classified = profile.Len()
			res.Irregular = profile.CountByClass()[predictor.ClassIrregular]

			small := func() predictor.HybridConfig {
				hc := predictor.DefaultHybridConfig()
				hc.CAP.LTEntries = 512
				hc.CAP.PFTableEntries = 2048
				return hc
			}
			variants := []Factory{
				hybridFactory,
				func() predictor.Predictor {
					return predictor.NewProfiled(hybridFactory(), profile)
				},
				func() predictor.Predictor { return predictor.NewHybrid(small()) },
				func() predictor.Predictor {
					return predictor.NewProfiled(predictor.NewHybrid(small()), profile)
				},
			}
			for v, f := range variants {
				c, err := RunTraceContext(ctx, open(), cfg.factoryFor(spec, f)(), 0)
				if err != nil {
					return fmt.Errorf("variant %d: %w", v, err)
				}
				res.C[v] = c
			}
			return nil
		})
		if err != nil {
			return err
		}
		cells[i] = cell{profileCell: res, done: true}
		return nil
	})

	r := ProfileAssistResult{
		Names: []string{
			"hybrid 4K LT",
			"hybrid 4K LT + profile",
			"hybrid 512 LT",
			"hybrid 512 LT + profile",
		},
	}
	r.absorb(g.size(), g.run())
	r.Counters = make([]metrics.Mean, 4)
	for _, cell := range cells {
		if !cell.done {
			continue
		}
		for v := range cell.C {
			r.Counters[v].Add(cell.C[v])
		}
		r.Classified += cell.Classified
		r.Irregular += cell.Irregular
	}
	return r
}

// Table renders the profile-assist comparison.
func (r ProfileAssistResult) Table() *report.Table {
	t := report.New("§6 future work: profile-assisted hybrid (irregular loads filtered)",
		"configuration", "prediction rate", "accuracy", "mispred of loads")
	for i, n := range r.Names {
		c := r.Counters[i]
		t.Add(n, naPct(c, c.PredRate()), naPct2(c, c.Accuracy()), naPct2(c, c.MispredOfLoads()))
	}
	t.SetFooter(r.Footer())
	return t
}
