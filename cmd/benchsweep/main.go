// Command benchsweep measures what the replay cache buys a sweep and
// writes the result as JSON (BENCH_sweep.json by default, for the CI
// benchmark job and the numbers quoted in DESIGN.md).
//
// It reports two layers:
//
//   - drain: raw event-delivery throughput per trace — the live workload
//     generator, a cold cache open (materialise + first replay), and a
//     warm replay cursor — plus the cache's resident column cost in
//     bytes per event. The cursor must beat the generator or the cache
//     is pure memory overhead.
//
//   - sweep: wall-clock for a representative slice of the experiment
//     roster (baselines, Fig. 9, Fig. 12, prefetch — the generator-bound
//     and cpu-model-bound extremes) run streaming, then cached, then
//     cached with the grid scheduler at GOMAXPROCS workers, with the
//     cache's occupancy stats and the heap allocated and collections run
//     by the parallel pass. The headline numbers are the speedups.
//
// Usage:
//
//	benchsweep [-events n] [-traces n] [-o file]
//	benchsweep -gate BENCH_sweep.json [-gate-drop 0.10]
//
// Gate mode reruns the drain and prediction benchmarks and compares two
// same-run ratios, the warm cursor over the live generator and the
// tournament over the hybrid, against the committed baseline's: a drop
// beyond the tolerance exits nonzero, which is how CI makes the perf
// trajectory an enforced invariant rather than an uploaded artifact.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"capred"
)

type drainReport struct {
	Traces            int     `json:"traces"`
	EventsPerTrace    int64   `json:"events_per_trace"`
	GeneratorMEvS     float64 `json:"generator_mev_per_s"`
	ColdCacheMEvS     float64 `json:"cold_cache_mev_per_s"`
	WarmCursorMEvS    float64 `json:"warm_cursor_mev_per_s"`
	CursorVsGenerator float64 `json:"cursor_vs_generator"`
	// BytesPerEvent is the cache's resident column cost (26 B/event SoA
	// lanes), not the v3 encoding density — the cache stores decoded
	// columns, not bytes.
	BytesPerEvent float64 `json:"resident_bytes_per_event"`
}

type sweepReport struct {
	Experiments      []string `json:"experiments"`
	StreamingSeconds float64  `json:"streaming_seconds"`
	// CachedColdSeconds includes materialising all 45 streams; warm is a
	// second pass over the resident cache — what every experiment after
	// the first sees inside one capsim run.
	CachedColdSeconds float64 `json:"cached_cold_seconds"`
	CachedWarmSeconds float64 `json:"cached_warm_seconds"`
	SpeedupCold       float64 `json:"speedup_cold"`
	SpeedupWarm       float64 `json:"speedup_warm"`
	// The parallel row reruns the warm sweep with the scheduler sharding
	// each (trace, config) grid across GOMAXPROCS workers. Output is
	// bit-identical to serial (the golden suite enforces it); only the
	// wall clock moves, and only on multi-core hosts.
	Workers             int     `json:"workers"`
	ParallelWarmSeconds float64 `json:"parallel_warm_seconds"`
	SpeedupParallel     float64 `json:"speedup_parallel_vs_serial_warm"`
	// AllocMiBPerPass and GCPerPass are the heap the parallel warm pass
	// allocated (the runtime.MemStats.TotalAlloc delta) and the
	// collections it triggered: what rebuilding per-cell tables costs
	// beyond the wall clock.
	AllocMiBPerPass float64 `json:"alloc_mib_per_pass"`
	GCPerPass       uint32  `json:"gc_per_pass"`
	CacheStreams    int     `json:"cache_streams"`
	CacheMiB        float64 `json:"cache_mib"`
	CacheHits       int64   `json:"cache_hits"`
}

// predictReport measures end-to-end prediction throughput (RunTrace
// over a warm replay cursor) for the hybrid and the default tournament
// (stride, CAP and Markov).
// The tournament/hybrid ratio is gated: it is the price of the
// meta-predictor abstraction, measured in one run on one host, and a
// regression here means the component fan-out or the chooser grew a
// hot-path cost the hybrid did not.
type predictReport struct {
	Traces         int     `json:"traces"`
	EventsPerTrace int64   `json:"events_per_trace"`
	HybridMEvS     float64 `json:"hybrid_mev_per_s"`
	TournamentMEvS float64 `json:"tournament_mev_per_s"`
	// TournamentVsHybrid is the throughput ratio — the slowdown of
	// arbitrating three components instead of the hybrid's two.
	TournamentVsHybrid float64 `json:"tournament_vs_hybrid"`
}

type report struct {
	Drain   drainReport   `json:"drain"`
	Predict predictReport `json:"predict"`
	Sweep   sweepReport   `json:"sweep"`
}

func main() {
	fs := flag.NewFlagSet("benchsweep", flag.ExitOnError)
	events := fs.Int64("events", 400_000, "events per trace")
	nTraces := fs.Int("traces", 8, "traces to drain-benchmark (0 = full roster)")
	out := fs.String("o", "BENCH_sweep.json", "output file (- for stdout)")
	gate := fs.String("gate", "", "baseline BENCH_sweep.json to gate against: rerun the drain and prediction benchmarks and exit nonzero when the cursor/generator or tournament/hybrid ratio regresses past -gate-drop")
	gateDrop := fs.Float64("gate-drop", 0.10, "fractional regression of the cursor/generator and tournament/hybrid ratios tolerated by -gate")
	fs.Parse(os.Args[1:])

	if *gate != "" {
		os.Exit(gateDrain(*gate, *gateDrop, *events, *nTraces))
	}

	rep := report{
		Drain:   drainBench(*events, *nTraces),
		Predict: predictBench(*events, *nTraces),
		Sweep:   sweepBench(*events),
	}

	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchsweep:", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if *out == "-" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchsweep:", err)
		os.Exit(1)
	}
	fmt.Printf("benchsweep: drain %.1f -> %.1f Mev/s (%.2fx), sweep %.1fs -> %.1fs warm (%.2fx), %.1fs at %d workers (%.2fx), wrote %s\n",
		rep.Drain.GeneratorMEvS, rep.Drain.WarmCursorMEvS, rep.Drain.CursorVsGenerator,
		rep.Sweep.StreamingSeconds, rep.Sweep.CachedWarmSeconds, rep.Sweep.SpeedupWarm,
		rep.Sweep.ParallelWarmSeconds, rep.Sweep.Workers, rep.Sweep.SpeedupParallel, *out)
}

// gateDrain is the CI regression gate: it reruns the drain and
// prediction benchmarks (best of three, to shave scheduler noise) and
// fails when a fresh ratio lands more than drop below the committed
// baseline's. Two ratios gate: the warm cursor over the live generator
// (what the replay cache buys every sweep, which the SoA pipeline
// exists to protect) and the tournament over the hybrid (the
// meta-predictor's hot-path cost). Each divides two throughputs from
// the same run, so a faster or slower host moves both alike and leaves
// the ratio in place; no absolute rate from the baseline's host gates.
func gateDrain(baselinePath string, drop float64, events int64, nTraces int) int {
	raw, err := os.ReadFile(baselinePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchsweep: gate:", err)
		return 2
	}
	var base report
	if err := json.Unmarshal(raw, &base); err != nil {
		fmt.Fprintf(os.Stderr, "benchsweep: gate: %s: %v\n", baselinePath, err)
		return 2
	}
	if base.Drain.CursorVsGenerator <= 0 {
		fmt.Fprintf(os.Stderr, "benchsweep: gate: %s has no cursor_vs_generator baseline\n", baselinePath)
		return 2
	}
	var fresh float64
	for i := 0; i < 3; i++ {
		if r := drainBench(events, nTraces).CursorVsGenerator; r > fresh {
			fresh = r
		}
	}
	floor := base.Drain.CursorVsGenerator * (1 - drop)
	if fresh < floor {
		fmt.Fprintf(os.Stderr, "benchsweep: gate FAIL: cursor/generator drain %.1fx is below %.1fx (baseline %.1fx - %.0f%%)\n",
			fresh, floor, base.Drain.CursorVsGenerator, drop*100)
		return 1
	}
	fmt.Printf("benchsweep: gate ok: cursor/generator drain %.1fx vs baseline %.1fx (floor %.1fx)\n",
		fresh, base.Drain.CursorVsGenerator, floor)

	// Baselines written before the prediction benchmark existed have no
	// ratio; they gate on drain alone.
	if base.Predict.TournamentVsHybrid > 0 {
		var freshR float64
		for i := 0; i < 3; i++ {
			if r := predictBench(events, nTraces).TournamentVsHybrid; r > freshR {
				freshR = r
			}
		}
		floorR := base.Predict.TournamentVsHybrid * (1 - drop)
		if freshR < floorR {
			fmt.Fprintf(os.Stderr, "benchsweep: gate FAIL: tournament/hybrid throughput %.3f is below %.3f (baseline %.3f - %.0f%%)\n",
				freshR, floorR, base.Predict.TournamentVsHybrid, drop*100)
			return 1
		}
		fmt.Printf("benchsweep: gate ok: tournament/hybrid throughput %.3f vs baseline %.3f (floor %.3f)\n",
			freshR, base.Predict.TournamentVsHybrid, floorR)
	}
	return 0
}

// predictBench measures RunTrace throughput over warm replay cursors:
// the hybrid (the paper's configuration) and the default tournament.
func predictBench(events int64, nTraces int) predictReport {
	specs := capred.Traces()
	if nTraces > 0 && nTraces < len(specs) {
		specs = specs[:nTraces]
	}
	cache := capred.NewReplayCache(0)
	open := func(s capred.TraceSpec) capred.Source {
		return cache.Open(s.Name, func() capred.Source { return capred.Limit(s.Open(), events) })
	}
	var total int64
	for _, s := range specs {
		total += drain(open(s)) // warm the cache so both measurements replay
	}

	var hybridDur, tourDur time.Duration
	for _, s := range specs {
		t0 := time.Now()
		_, err := capred.RunTrace(open(s), capred.NewHybrid(capred.DefaultHybridConfig()), 0)
		hybridDur += time.Since(t0)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchsweep: predict:", err)
			os.Exit(1)
		}

		t0 = time.Now()
		if _, err := capred.RunTrace(open(s), capred.NewFullTournament(false), 0); err != nil {
			fmt.Fprintln(os.Stderr, "benchsweep: predict:", err)
			os.Exit(1)
		}
		tourDur += time.Since(t0)
	}
	r := predictReport{
		Traces:         len(specs),
		EventsPerTrace: events,
		HybridMEvS:     float64(total) / hybridDur.Seconds() / 1e6,
		TournamentMEvS: float64(total) / tourDur.Seconds() / 1e6,
	}
	r.TournamentVsHybrid = r.TournamentMEvS / r.HybridMEvS
	return r
}

// drain pulls every event out of src through the block interface,
// mirroring the hot loops in the sim drivers.
func drain(src capred.Source) int64 {
	bs := capred.AsBlocks(src)
	b := capred.GetBlock()
	defer capred.PutBlock(b)
	var n int64
	for {
		k, ok := bs.NextBlock(b, capred.BlockLen)
		n += int64(k)
		if !ok {
			return n
		}
	}
}

func drainBench(events int64, nTraces int) drainReport {
	specs := capred.Traces()
	if nTraces > 0 && nTraces < len(specs) {
		specs = specs[:nTraces]
	}
	open := func(s capred.TraceSpec) capred.Source {
		return capred.Limit(s.Open(), events)
	}

	var genDur, coldDur, warmDur time.Duration
	var total int64
	cache := capred.NewReplayCache(0)
	for _, s := range specs {
		spec := s
		t0 := time.Now()
		total += drain(open(spec))
		genDur += time.Since(t0)

		t0 = time.Now()
		drain(cache.Open(spec.Name, func() capred.Source { return open(spec) }))
		coldDur += time.Since(t0)

		t0 = time.Now()
		drain(cache.Open(spec.Name, func() capred.Source { return open(spec) }))
		warmDur += time.Since(t0)
	}
	st := cache.Stats()
	mevs := func(d time.Duration) float64 {
		return float64(total) / d.Seconds() / 1e6
	}
	r := drainReport{
		Traces:         len(specs),
		EventsPerTrace: events,
		GeneratorMEvS:  mevs(genDur),
		ColdCacheMEvS:  mevs(coldDur),
		WarmCursorMEvS: mevs(warmDur),
		BytesPerEvent:  float64(st.Bytes) / float64(total),
	}
	r.CursorVsGenerator = r.WarmCursorMEvS / r.GeneratorMEvS
	return r
}

func sweepBench(events int64) sweepReport {
	names := []string{"baselines", "fig9", "fig12", "prefetch"}
	run := func(cfg capred.ExperimentConfig) float64 {
		t0 := time.Now()
		capred.RunBaselines(cfg)
		capred.Fig9(cfg)
		capred.Fig12(cfg)
		capred.RunPrefetch(cfg)
		return time.Since(t0).Seconds()
	}

	streaming := run(capred.ExperimentConfig{EventsPerTrace: events})

	cached := capred.ExperimentConfig{
		EventsPerTrace: events,
		ReplayCache:    capred.NewReplayCache(0),
	}
	cold := run(cached)
	warm := run(cached)

	par := cached
	par.Workers = runtime.GOMAXPROCS(0)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	parallel := run(par)
	runtime.ReadMemStats(&after)
	st := cached.ReplayCache.Stats()

	return sweepReport{
		Experiments:         names,
		StreamingSeconds:    streaming,
		CachedColdSeconds:   cold,
		CachedWarmSeconds:   warm,
		SpeedupCold:         streaming / cold,
		SpeedupWarm:         streaming / warm,
		Workers:             par.Workers,
		ParallelWarmSeconds: parallel,
		SpeedupParallel:     warm / parallel,
		AllocMiBPerPass:     float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20),
		GCPerPass:           after.NumGC - before.NumGC,
		CacheStreams:        st.Entries,
		CacheMiB:            float64(st.Bytes) / (1 << 20),
		CacheHits:           st.Hits,
	}
}
