package sim

import (
	"capred/internal/cpu"
	"capred/internal/report"
	"capred/internal/workload"
)

// PrefetchResult compares data prefetching with address prediction and
// with their combination ([Gonz97]: sharing stride structures for both)
// on the timing model.
type PrefetchResult struct {
	FailureSet
	Names     []string
	Speedups  []float64 // over the no-prefetch, no-prediction baseline
	L1HitRate []float64
}

// Prefetch runs the §1.1 positioning experiment: a Baer/Chen stride
// prefetcher, the hybrid address predictor, and both together, against a
// plain baseline, over all 45 traces.
func Prefetch(cfg Config) PrefetchResult {
	specs := workload.Traces()
	const variants = 4

	type row struct {
		cycles [variants]int64
		l1     [variants]float64
		done   bool
	}
	rows := make([]row, len(specs))

	// Mem key 1 is the plain hierarchy and 2 the one the RPT warms; the
	// combination reads the hybrid's predictions from its own run.
	configs := [variants]struct {
		rpt bool
		f   Factory
		k   cpu.Keys
	}{
		{false, nil, cpu.Keys{Mem: 1}},
		{true, nil, cpu.Keys{Mem: 2}},
		{false, hybridFactory, cpu.Keys{Mem: 1, Pred: 1}},
		{true, hybridFactory, cpu.Keys{Mem: 2, Pred: 1}},
	}

	g := newGrid(cfg)
	g.addPass("prefetch", specs, func(w *worker, i int) error {
		ts := w.machine.Shard()
		for v, c := range configs {
			mcfg := cpu.DefaultConfig()
			if c.rpt {
				mcfg.Prefetcher = w.prefetcher()
			}
			r, err := runTimed(cfg, w, ts, specs[i], mcfg, c.f, 0, c.k)
			if err != nil {
				return err
			}
			rows[i].cycles[v] = r.Cycles
			rows[i].l1[v] = r.L1HitRate
		}
		rows[i].done = true
		return nil
	})
	fails := g.run()

	var cycles [variants]int64
	var l1 [variants]float64
	survived := 0
	for _, r := range rows {
		if r.done {
			survived++
		}
	}
	for _, r := range rows {
		if !r.done {
			continue
		}
		for v := 0; v < variants; v++ {
			cycles[v] += r.cycles[v]
			l1[v] += r.l1[v] / float64(survived)
		}
	}
	names := []string{
		"baseline",
		"stride prefetch (RPT)",
		"hybrid address prediction",
		"prefetch + address prediction",
	}
	out := PrefetchResult{}
	out.absorb(g.size(), fails)
	for v := 0; v < variants; v++ {
		out.Names = append(out.Names, names[v])
		out.Speedups = append(out.Speedups, safeDiv(float64(cycles[0]), float64(cycles[v])))
		out.L1HitRate = append(out.L1HitRate, l1[v])
	}
	return out
}

// Table renders the prefetch comparison.
func (r PrefetchResult) Table() *report.Table {
	t := report.New("§1.1: data prefetching vs address prediction (timing model)",
		"configuration", "speedup", "avg L1 hit rate")
	for i, n := range r.Names {
		t.Add(n, report.Speedup(r.Speedups[i]), report.Pct(r.L1HitRate[i]))
	}
	t.SetFooter(r.Footer())
	return t
}
