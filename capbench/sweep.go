package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"capred/internal/sim"
	"capred/internal/trace"
	"capred/internal/workload"
)

const (
	// goldenDir holds the experiment golden tables, relative to the
	// repository root the benchmark runs from.
	goldenDir = "internal/sim/testdata"
	// goldenEvents is the budget the goldens were rendered at.
	goldenEvents = 20_000
	// setupReps fresh materialisations make up setup_s (their median).
	setupReps = 5
)

// sweepWorkload returns the runner for a capsim sweep over the named
// experiments, sharded across GOMAXPROCS scheduler workers. A pass runs
// every experiment once and reads the replay cache set-up filled, as
// every experiment after the first does inside one capsim run.
func sweepWorkload(names []string) func(*bench) error {
	return func(b *bench) error {
		exps := make([]sim.Experiment, len(names))
		for i, n := range names {
			e, ok := sim.ExperimentByName(n)
			if !ok {
				return fmt.Errorf("unknown experiment %q", n)
			}
			exps[i] = e
		}
		if err := checkGoldens(b, exps); err != nil {
			return err
		}
		cache, err := setupRoster(b)
		if err != nil {
			return err
		}
		runtime.GC()
		return runPasses(b, exps, cache)
	}
}

// checkGoldens runs each experiment at the goldens' budget on a fresh
// cache and byte-compares its table with the committed golden.
func checkGoldens(b *bench, exps []sim.Experiment) error {
	cfg := sim.Config{
		EventsPerTrace: goldenEvents,
		Workers:        runtime.GOMAXPROCS(0),
		ReplayCache:    trace.NewReplayCache(0),
	}
	for _, e := range exps {
		want, err := os.ReadFile(filepath.Join(goldenDir, e.Name+".golden"))
		if err != nil {
			return fmt.Errorf("reading golden: %w", err)
		}
		compareGolden(b, e, cfg, want)
	}
	return nil
}

// compareGolden runs e under cfg and counts a failed operation unless
// every trace run succeeds and the table equals want byte for byte.
func compareGolden(b *bench, e sim.Experiment, cfg sim.Config, want []byte) {
	b.attempted.Add(1)
	r := e.Run(cfg)
	if fails := r.Failed(); len(fails) > 0 {
		b.fail("%s at %d events: %d trace runs failed, first: %v", e.Name, cfg.EventsPerTrace, len(fails), fails[0])
	} else if r.Table().String() != string(want) {
		b.fail("%s at %d events differs from its golden", e.Name, cfg.EventsPerTrace)
	}
}

// cacheKey is the replay-cache key sim.Config gives a trace at a
// budget. runPasses checks that the sweep added no entry, so a drift
// between the two shows as a failure, not as a silently cold sweep.
func cacheKey(name string, events int64) string { return fmt.Sprintf("%s@%d", name, events) }

// setupRoster materialises the 45-trace roster into a fresh replay
// cache setupReps times, records the median as setup_s, and returns the
// last cache.
func setupRoster(b *bench) (*trace.ReplayCache, error) {
	specs := workload.Traces()
	var cache *trace.ReplayCache
	var times sample
	for i := 0; i < setupReps; i++ {
		cache = nil
		runtime.GC() // the previous cache is garbage; keep it out of this one's peak
		sp := b.tr.open(b.root.id, "setup")
		t0 := time.Now()
		b.labelled(func() {
			cache = trace.NewReplayCache(0)
			for _, spec := range specs {
				ms := b.tr.open(sp.id, "materialise")
				cache.Open(cacheKey(spec.Name, b.events), func() trace.Source {
					return trace.NewLimit(spec.Open(), b.events)
				})
				ms.end(map[string]any{"trace": spec.Name})
			}
		}, "layer", "trace")
		times = append(times, time.Since(t0).Seconds())
		sp.end(nil)
	}
	if st := cache.Stats(); st.Entries != len(specs) || st.Bytes == 0 {
		return nil, fmt.Errorf("set-up materialised %d of %d traces", st.Entries, len(specs))
	}
	b.metrics["setup_s"] = times
	return cache, nil
}

// runPasses runs sweep passes until the run's budget is spent. Pass 0
// warms the heap and is checked but not measured. op_p50_ms is the
// median measured pass; mev_per_s is the work of every measured pass
// over their summed wall time, which a slow spell of the host moves less
// than a median of per-pass rates. With tracing on, measured passes
// alternate untraced and traced so the run also measures what tracing
// costs.
func runPasses(b *bench, exps []sim.Experiment, cache *trace.ReplayCache) error {
	budget := b.budget() - b.spent
	minPasses := 4
	if b.tr != nil {
		minPasses = 3
	}
	var ref []string
	var opTimes, plain, traced sample
	var events int64
	var busy time.Duration
	start := time.Now()
	for i := 0; i < minPasses || time.Since(start) < budget; i++ {
		withSpans := b.tr != nil && i > 0 && i%2 == 0
		// Every pass starts from the same heap: the last pass's garbage
		// would otherwise be collected at a varying point of this one.
		runtime.GC()
		p := runPass(b, exps, cache, withSpans)
		if ref == nil {
			ref = p.tables
		}
		for j, t := range p.tables {
			if t != ref[j] {
				b.fail("pass %d: %s table differs from pass 0", i, exps[j].Name)
			}
		}
		if n := cache.Stats().Entries; n != len(workload.Traces()) {
			b.fail("pass %d: the sweep materialised %d streams set-up had not", i, n-len(workload.Traces()))
		}
		if i == 0 {
			continue
		}
		ms := float64(p.dur) / 1e6
		opTimes = append(opTimes, ms)
		events += p.events
		busy += p.dur
		if withSpans {
			traced = append(traced, ms)
		} else {
			plain = append(plain, ms)
		}
	}
	b.metrics["op_p50_ms"] = opTimes
	b.metrics["mev_per_s"] = sample{float64(events) / busy.Seconds() / 1e6}
	b.notes["pass_ms"] = opTimes
	b.notes["experiments"] = len(exps)
	b.notes["workers"] = runtime.GOMAXPROCS(0)
	if b.tr != nil {
		b.recordSpans(gridShape, traced, plain)
		b.notes["add_up"] = fmt.Sprintf("sum of cell time covers %.1f%% of workers x experiment wall",
			100*(1-b.metrics["span.unattributed_frac"][0]))
	}
	return nil
}

// passResult is one pass's wall time, events consumed and tables.
type passResult struct {
	dur    time.Duration
	events int64
	tables []string
}

// runPass runs every experiment once. Events consumed are counted by
// opens through sim.Config.WrapSource, each a full stream of b.events;
// with spans on, each open is a cell span, and the events its source
// delivered must add up to exactly that count.
func runPass(b *bench, exps []sim.Experiment, cache *trace.ReplayCache, withSpans bool) passResult {
	var tr *tracer
	if withSpans {
		tr = b.tr
	}
	var opens, delivered atomic.Int64
	var res passResult
	pass := tr.open(b.root.id, "pass")
	t0 := time.Now()
	for _, e := range exps {
		xs := tr.open(pass.id, "experiment")
		cfg := sim.Config{
			EventsPerTrace: b.events,
			Workers:        runtime.GOMAXPROCS(0),
			ReplayCache:    cache,
			WrapSource: func(name string, src trace.Source) trace.Source {
				opens.Add(1)
				if tr == nil {
					return src
				}
				return newCellSource(tr, xs.id, name, src, func(n int64) { delivered.Add(n) })
			},
		}
		var r sim.Result
		b.labelled(func() { r = e.Run(cfg) }, "experiment", e.Name, "layer", "sim")
		xs.end(map[string]any{"experiment": e.Name})
		b.attempted.Add(1)
		if fails := r.Failed(); len(fails) > 0 {
			b.fail("%s: %d trace runs failed, first: %v", e.Name, len(fails), fails[0])
		}
		res.tables = append(res.tables, r.Table().String())
	}
	res.dur = time.Since(t0)
	pass.end(nil)
	res.events = opens.Load() * b.events
	if withSpans && delivered.Load() != res.events {
		b.fail("cells delivered %d events, want %d opens x %d", delivered.Load(), opens.Load(), b.events)
	}
	return res
}
