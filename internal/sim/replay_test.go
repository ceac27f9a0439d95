package sim

import (
	"reflect"
	"testing"

	"capred/internal/metrics"
	"capred/internal/trace"
	"capred/internal/workload"
)

// cachedCfg returns cfg with a replay cache of the given byte budget
// attached (0 = unlimited).
func cachedCfg(cfg Config, budget int64) Config {
	cfg.ReplayCache = trace.NewReplayCache(budget)
	return cfg
}

// TestCachedRunsMatchStreaming pins the cache's core guarantee: replaying
// materialised streams produces bit-identical counters to regenerating
// them, across drivers with very different drain loops.
func TestCachedRunsMatchStreaming(t *testing.T) {
	base := Config{EventsPerTrace: 20_000}

	t.Run("Baselines", func(t *testing.T) {
		cfg := cachedCfg(base, 0)
		a := Baselines(base)
		b := Baselines(cfg)
		if len(a.Failed()) != 0 || len(b.Failed()) != 0 {
			t.Fatalf("unexpected failures: %v / %v", a.Failed(), b.Failed())
		}
		for i := range a.Counters {
			if a.Counters[i] != b.Counters[i] {
				t.Fatalf("%s differs cached vs streaming:\n%+v\n%+v",
					a.Names[i], a.Counters[i], b.Counters[i])
			}
		}
		st := cfg.ReplayCache.Stats()
		if st.Hits == 0 || st.Entries != len(workload.Traces()) {
			t.Errorf("cache not exercised: %+v", st)
		}
	})

	t.Run("ClassCoverage", func(t *testing.T) {
		cfg := cachedCfg(base, 0)
		a := ClassCoverage(base)
		b := ClassCoverage(cfg)
		if !reflect.DeepEqual(a.cells, b.cells) {
			t.Fatalf("class coverage differs:\n%v\n%v", a.cells, b.cells)
		}
	})

	t.Run("WrongPath", func(t *testing.T) {
		cfg := cachedCfg(base, 0)
		a := WrongPath(base)
		b := WrongPath(cfg)
		for m := range a.Counters {
			if a.Counters[m] != b.Counters[m] {
				t.Fatalf("%s differs cached vs streaming:\n%+v\n%+v",
					a.Names[m], a.Counters[m], b.Counters[m])
			}
		}
	})
}

// TestCacheBudgetFallbackKeepsResultsIdentical proves that a cache too
// small to hold any stream silently degrades to live regeneration with
// unchanged results.
func TestCacheBudgetFallbackKeepsResultsIdentical(t *testing.T) {
	base := Config{EventsPerTrace: 15_000}
	cfg := cachedCfg(base, 1024) // far below any 15k-event stream
	a := Baselines(base)
	b := Baselines(cfg)
	for i := range a.Counters {
		if a.Counters[i] != b.Counters[i] {
			t.Fatalf("%s differs under budget fallback:\n%+v\n%+v",
				a.Names[i], a.Counters[i], b.Counters[i])
		}
	}
	st := cfg.ReplayCache.Stats()
	if st.Entries != 0 || st.Bytes != 0 {
		t.Errorf("over-budget streams retained: %+v", st)
	}
	if st.Rejected == 0 || st.Misses == 0 {
		t.Errorf("fallback not recorded: %+v", st)
	}
}

// TestCachedParallelReplay replays the same cached traces from many
// concurrent trace runs (Workers drives goroutines); under -race this
// pins that shared cursors are race-free.
func TestCachedParallelReplay(t *testing.T) {
	cfg := cachedCfg(Config{EventsPerTrace: 10_000, Workers: 8}, 0)
	// Two passes: the first materialises, the second replays concurrently.
	for pass := 0; pass < 2; pass++ {
		runs, fails := hybridPass(cfg, "replay")
		if len(fails) != 0 {
			t.Fatalf("pass %d failures: %v", pass, fails)
		}
		for _, r := range runs {
			if r.C.Loads == 0 {
				t.Fatalf("pass %d: trace %s saw no loads", pass, r.Spec.Name)
			}
		}
	}
	if st := cfg.ReplayCache.Stats(); st.Hits == 0 {
		t.Errorf("replays not served from cache: %+v", st)
	}
}

// TestAverageIsEqualWeight pins the averaging fix: a trace contributing
// 10× the loads of its siblings moves "Average" no more than they do.
func TestAverageIsEqualWeight(t *testing.T) {
	spec := func(name, suite string) workload.TraceSpec {
		return workload.TraceSpec{Name: name, Suite: suite}
	}
	counters := func(loads, spec int64) metrics.Counters {
		return metrics.Counters{Loads: loads, Predicted: spec, Correct: spec, Speculated: spec, SpecCorrect: spec}
	}
	runs := []traceRun{
		{Spec: spec("a", "S1"), C: counters(1000, 800), ok: true},   // rate 0.8
		{Spec: spec("b", "S1"), C: counters(1000, 400), ok: true},   // rate 0.4
		{Spec: spec("c", "S2"), C: counters(10000, 2000), ok: true}, // 10× loads, rate 0.2
	}
	avg := meanOf(runs)
	want := (0.8 + 0.4 + 0.2) / 3
	if got := avg.PredRate(); got < want-1e-9 || got > want+1e-9 {
		t.Errorf("Average pred rate = %v, want equal-weight %v", got, want)
	}
	// The load-weighted pool would sit far below the equal-weight mean
	// (dominated by the long, low-rate trace); it stays available for
	// debugging.
	pooled := avg.Pooled.PredRate()
	if pooled >= want {
		t.Fatalf("pooled rate %v should sit below the equal-weight mean %v here", pooled, want)
	}
	// Swapping which trace is long must not change the equal-weight mean.
	runs[0].C, runs[2].C = counters(10000, 8000), counters(1000, 200)
	avg2 := meanOf(runs)
	if got := avg2.PredRate(); got < want-1e-9 || got > want+1e-9 {
		t.Errorf("Average moved with trace length: %v, want %v", got, want)
	}
}
