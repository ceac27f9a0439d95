package sim

import (
	"context"

	"capred/internal/metrics"
	"capred/internal/predictor"
	"capred/internal/trace"
	"capred/internal/valuepred"
)

// AddressVsValue measures the last/stride/context/hybrid value predictors
// ([Lipa96a], [Saze97], [Wang97]) against the paper's hybrid address
// predictor on identical load streams — the §1 claim that value
// prediction's "lower predictability makes this option less attractive".
func AddressVsValue(cfg Config) SweepResult {
	rows := []row{{"hybrid address", predictor.DefaultHybridConfig(), 0, nil}}
	for _, v := range []struct {
		name  string
		build func(valuepred.Config) valuepred.Predictor
	}{
		{"last-value", valuepred.NewLast},
		{"stride-value", valuepred.NewStride},
		{"context-value", valuepred.NewContext},
		{"hybrid-value", valuepred.NewHybrid},
	} {
		rows = append(rows, row{v.name, nil, 0,
			func(ctx context.Context, open func() trace.Source, _ predictor.Predictor) (metrics.Counters, error) {
				return runValueTrace(ctx, open(), v.build(valuepred.DefaultConfig()))
			}})
	}
	return sweepRows(cfg, "§1: address vs value predictability (same loads, matched budgets)", "predictor", []rate{
		pct("spec rate", metrics.Rates.PredRate),
		pct("correct of loads", metrics.Rates.CorrectSpecRate),
		pct2("accuracy", metrics.Rates.Accuracy),
	}, rows)
}

// runValueTrace drives a value predictor over the loads of src and
// counts its predictions as an address predictor's: a speculation is
// correct when it names the loaded value.
func runValueTrace(ctx context.Context, src trace.Source, vp valuepred.Predictor) (metrics.Counters, error) {
	var c metrics.Counters
	err := forEachBlock(ctx, src, func(b *trace.Block) {
		for i, kb := range b.KindTaken {
			if trace.Kind(kb&^trace.KindTakenBit) == trace.KindLoad {
				ip, val := b.IP[i], b.Val[i]
				p := vp.Predict(ip)
				c.Record(predictor.Prediction{Addr: p.Val, Predicted: p.Predicted, Speculate: p.Speculate}, val)
				vp.Resolve(ip, p, val)
			}
		}
	})
	return c, err
}
