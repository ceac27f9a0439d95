package sim

import (
	"context"

	"capred/internal/predictor"
	"capred/internal/report"
	"capred/internal/trace"
	"capred/internal/valuepred"
	"capred/internal/workload"
)

// valueCounters mirrors the metrics the figure tables use, for value
// predictors.
type valueCounters struct {
	Loads       int64
	Speculated  int64
	SpecCorrect int64
}

func (c valueCounters) predRate() float64 {
	if c.Loads == 0 {
		return 0
	}
	return float64(c.Speculated) / float64(c.Loads)
}

func (c valueCounters) correctRate() float64 {
	if c.Loads == 0 {
		return 0
	}
	return float64(c.SpecCorrect) / float64(c.Loads)
}

func (c valueCounters) accuracy() float64 {
	if c.Speculated == 0 {
		return 0
	}
	return float64(c.SpecCorrect) / float64(c.Speculated)
}

// AddressVsValueResult compares address predictability with value
// predictability over the same dynamic loads — the §1 claim that value
// prediction's "lower predictability makes this option less attractive".
type AddressVsValueResult struct {
	FailureSet
	Names    []string
	Rates    []float64 // speculative accesses / loads
	Corrects []float64 // correct speculations / loads
	Accs     []float64
}

// AddressVsValue measures the last/stride/context/hybrid value predictors
// ([Lipa96a], [Saze97], [Wang97]) against the paper's hybrid address
// predictor on identical load streams.
func AddressVsValue(cfg Config) AddressVsValueResult {
	specs := workload.Traces()

	// valueRow is one trace's result.
	type valueRow struct {
		Addr addrTally
		Vals [4]valueCounters
	}
	type row struct {
		valueRow
		done bool
	}
	rows := make([]row, len(specs))

	g := newGrid(cfg)
	g.addPass("addr-vs-value", specs, func(_ *worker, i int) error {
		spec := specs[i]
		// The whole per-trace measurement runs in one perTrace scope and
		// accumulates into a local row, so a retry restarts from fresh
		// tallies and rows[i] only ever holds a complete attempt.
		var vr valueRow
		err := cfg.perTrace(spec, func(ctx context.Context, open func() trace.Source) error {
			var r valueRow
			vcfg := valuepred.DefaultConfig()
			vpreds := [4]valuepred.Predictor{
				valuepred.NewLast(vcfg),
				valuepred.NewStride(vcfg),
				valuepred.NewContext(vcfg),
				valuepred.NewHybrid(vcfg),
			}
			apred := cfg.factoryFor(spec, hybridFactory)()

			var ghr predictor.GHR
			var path predictor.PathHist
			err := forEachBlock(ctx, open(), func(b *trace.Block) {
				for i, kb := range b.KindTaken {
					switch trace.Kind(kb &^ trace.KindTakenBit) {
					case trace.KindBranch:
						ghr.Update(kb&trace.KindTakenBit != 0)
					case trace.KindCall:
						path.Push(b.IP[i])
					case trace.KindLoad:
						ip, addr, val := b.IP[i], b.Addr[i], b.Val[i]
						ref := predictor.LoadRef{
							IP: ip, Offset: b.Offset[i],
							GHR: ghr.Value(), Path: path.Value(),
						}
						ap := apred.Predict(ref)
						r.Addr.Loads++
						if ap.Speculate {
							r.Addr.Spec++
							if ap.Addr == addr {
								r.Addr.Correct++
							}
						}
						apred.Resolve(ref, ap, addr)

						for v, vp := range vpreds {
							p := vp.Predict(ip)
							r.Vals[v].Loads++
							if p.Speculate {
								r.Vals[v].Speculated++
								if p.Val == val {
									r.Vals[v].SpecCorrect++
								}
							}
							vp.Resolve(ip, p, val)
						}
					}
				}
			})
			vr = r
			return err
		})
		if err != nil {
			return err
		}
		rows[i] = row{valueRow: vr, done: true}
		return nil
	})
	fails := g.run()

	// Aggregate with equal weight per trace, like the figure tables'
	// "Average" row: each surviving trace contributes one sample per
	// rate, so a longer trace cannot dominate the comparison.
	var addrRate, addrCorrect, addrAcc rateMean
	var valRate, valCorrect, valAcc [4]rateMean
	for _, r := range rows {
		if !r.done {
			continue
		}
		addrRate.add(r.Addr.Spec, r.Addr.Loads)
		addrCorrect.add(r.Addr.Correct, r.Addr.Loads)
		addrAcc.add(r.Addr.Correct, r.Addr.Spec)
		for v := range valRate {
			valRate[v].add(r.Vals[v].Speculated, r.Vals[v].Loads)
			valCorrect[v].add(r.Vals[v].SpecCorrect, r.Vals[v].Loads)
			valAcc[v].add(r.Vals[v].SpecCorrect, r.Vals[v].Speculated)
		}
	}

	out := AddressVsValueResult{}
	out.absorb(g.size(), fails)
	push := func(name string, rate, correct, acc float64) {
		out.Names = append(out.Names, name)
		out.Rates = append(out.Rates, rate)
		out.Corrects = append(out.Corrects, correct)
		out.Accs = append(out.Accs, acc)
	}
	push("hybrid address", addrRate.mean(), addrCorrect.mean(), addrAcc.mean())
	names := []string{"last-value", "stride-value", "context-value", "hybrid-value"}
	for v, n := range names {
		push(n, valRate[v].mean(), valCorrect[v].mean(), valAcc[v].mean())
	}
	return out
}

// rateMean accumulates the equal-weight mean of per-trace rates; a trace
// whose denominator is zero contributes no sample.
type rateMean struct {
	sum float64
	n   int
}

func (m *rateMean) add(num, den int64) {
	if den > 0 {
		m.sum += float64(num) / float64(den)
		m.n++
	}
}

func (m rateMean) mean() float64 {
	if m.n == 0 {
		return 0
	}
	return m.sum / float64(m.n)
}

// addrTally is a minimal address-side tally for this experiment.
type addrTally struct {
	Loads, Spec, Correct int64
}

func (m addrTally) rate() float64 {
	if m.Loads == 0 {
		return 0
	}
	return float64(m.Spec) / float64(m.Loads)
}

func (m addrTally) correctRate() float64 {
	if m.Loads == 0 {
		return 0
	}
	return float64(m.Correct) / float64(m.Loads)
}

func (m addrTally) accuracy() float64 {
	if m.Spec == 0 {
		return 0
	}
	return float64(m.Correct) / float64(m.Spec)
}

// Table renders the comparison.
func (r AddressVsValueResult) Table() *report.Table {
	t := report.New("§1: address vs value predictability (same loads, matched budgets)",
		"predictor", "spec rate", "correct of loads", "accuracy")
	for i, n := range r.Names {
		t.Add(n, report.Pct(r.Rates[i]), report.Pct(r.Corrects[i]), report.Pct2(r.Accs[i]))
	}
	t.SetFooter(r.Footer())
	return t
}
