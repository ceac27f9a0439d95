package sim

import (
	"capred/internal/cpu"
	"capred/internal/prefetch"
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

	g := newGrid(cfg)
	g.addPass("prefetch", specs, func(w *worker, i int) error {
		spec := specs[i]
		run := func(v int) (cpu.Result, error) {
			mcfg := cpu.DefaultConfig()
			var p Factory
			switch v {
			case 1:
				mcfg.Prefetcher = prefetch.NewRPT(prefetch.DefaultRPTConfig())
			case 2:
				p = hybridFactory
			case 3:
				mcfg.Prefetcher = prefetch.NewRPT(prefetch.DefaultRPTConfig())
				p = hybridFactory
			}
			return runTimed(cfg, w, spec, mcfg, v, p, 0)
		}
		for v := 0; v < variants; v++ {
			r, err := run(v)
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
