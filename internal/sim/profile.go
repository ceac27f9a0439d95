package sim

import (
	"context"
	"fmt"

	"capred/internal/metrics"
	"capred/internal/predictor"
	"capred/internal/trace"
)

// profileLoads classifies every static load of src by its address
// pattern.
func profileLoads(ctx context.Context, src trace.Source) (*predictor.Profile, error) {
	prof := predictor.NewProfiler()
	err := forEachBlock(ctx, src, func(b *trace.Block) {
		for i, kb := range b.KindTaken {
			if trace.Kind(kb&^trace.KindTakenBit) == trace.KindLoad {
				prof.Observe(b.IP[i], b.Addr[i])
			}
		}
	})
	if err != nil {
		return nil, fmt.Errorf("profiling pass: %w", err)
	}
	return prof.Profile(), nil
}

// ProfileAssist runs the profile-feedback experiment (§6 future work:
// software-assisted load classification): the plain hybrid against one
// whose irregular loads, as profiled on a training prefix of each trace,
// never speculate, at 4K- and 512-entry link tables (the paper expects
// profile feedback to "help reducing predictor size").
func ProfileAssist(cfg Config) SweepResult {
	hybrid := predictor.DefaultHybridConfig()
	small := hybrid
	small.CAP.LTEntries, small.CAP.PFTableEntries = 512, 2048
	// profiled runs the row's predictor behind the profile of the first
	// half of the trace's budget.
	profiled := func(ctx context.Context, open func() trace.Source, p predictor.Predictor) (metrics.Counters, error) {
		profile, err := profileLoads(ctx, trace.NewLimit(open(), cfg.EventsPerTrace/2))
		if err != nil {
			return metrics.Counters{}, err
		}
		return RunTraceContext(ctx, open(), predictor.NewProfiled(p, profile), 0)
	}
	return sweepRows(cfg, "§6 future work: profile-assisted hybrid (irregular loads filtered)", "configuration", []rate{
		pct("prediction rate", metrics.Rates.PredRate),
		pct2("accuracy", metrics.Rates.Accuracy),
		pct2("mispred of loads", metrics.Rates.MispredOfLoads),
	}, []row{
		{"hybrid 4K LT", hybrid, 0, nil},
		{"hybrid 4K LT + profile", hybrid, 0, profiled},
		{"hybrid 512 LT", small, 0, nil},
		{"hybrid 512 LT + profile", small, 0, profiled},
	})
}
