package sim

import (
	"context"
	"errors"
	"runtime"
	"testing"

	"capred/internal/predictor"
	"capred/internal/trace"
	"capred/internal/workload"
)

// TestPanickedShardLeavesCleanWorker panics one trace's source midway
// through its run on the serial path, where one worker runs every
// shard: the trace fails with a *PanicError, and every other trace —
// the one the worker runs next included — gets the counters of a clean
// run.
func TestPanickedShardLeavesCleanWorker(t *testing.T) {
	const victim = 3
	specs := workload.Traces()
	clean, fails := hybridPass(Config{EventsPerTrace: 5_000}, "clean")
	if len(fails) != 0 {
		t.Fatalf("clean pass failed: %v", fails)
	}
	cfg := Config{
		EventsPerTrace: 5_000,
		Workers:        1,
		WrapSource: func(name string, src trace.Source) trace.Source {
			if name != specs[victim].Name {
				return src
			}
			return trace.NewCorrupt(src, 3_000, func(*trace.Event) { panic("injected source panic") })
		},
	}
	runs, fails := hybridPass(cfg, "panic")
	var pe *PanicError
	if len(fails) != 1 || fails[0].Trace != specs[victim].Name || !errors.As(fails[0].Err, &pe) {
		t.Fatalf("failures = %v, want one *PanicError for %s", fails, specs[victim].Name)
	}
	for i, r := range runs {
		if i != victim && (!r.ok || r.C != clean[i].C) {
			t.Errorf("%s after the panic: counters %+v, want %+v", r.Spec.Name, r.C, clean[i].C)
		}
	}
}

// TestRetriedAttemptResetsPredictor fails every trace's first attempt
// with a transient error partway through, on the serial path: the retry
// runs the worker's partly trained predictor again, which must be reset
// to give the counters of a clean run.
func TestRetriedAttemptResetsPredictor(t *testing.T) {
	clean, fails := hybridPass(Config{EventsPerTrace: 5_000}, "clean")
	if len(fails) != 0 {
		t.Fatalf("clean pass failed: %v", fails)
	}
	attempts := map[string]int{}
	cfg := Config{
		EventsPerTrace: 5_000,
		SourceRetries:  1,
		WrapSource: func(name string, src trace.Source) trace.Source {
			attempts[name]++
			if attempts[name] == 1 {
				return trace.NewFailAfter(src, 2_000, trace.Transient(trace.ErrInjected))
			}
			return src
		},
	}
	runs, fails := hybridPass(cfg, "retry")
	if len(fails) != 0 {
		t.Fatalf("retried pass failed: %v", fails)
	}
	for i, r := range runs {
		if r.C != clean[i].C {
			t.Errorf("%s after a retry: counters %+v, want %+v", r.Spec.Name, r.C, clean[i].C)
		}
	}
}

// TestWorkerCachesPerPassVariant drives runShards directly: a worker
// reuses its predictor for a (pass, variant) it has built, builds anew
// for another pass or variant and after a failed or panicked shard, and
// never caches under WrapFactory.
func TestWorkerCachesPerPassVariant(t *testing.T) {
	spec := workload.Traces()[0]
	built := 0
	f := func() predictor.Predictor { built++; return hybridFactory() }
	wrapped := Config{WrapFactory: func(_ string, f Factory) Factory { return f }}
	// cell is a shard of the given pass that takes its predictor for
	// variant and then ends as outcome says: "ok", "error" or "panic".
	cell := func(cfg Config, pass, variant int, outcome string) shard {
		return shard{pass: pass, run: func(w *worker) error {
			w.predictor(cfg, spec, variant, f)
			switch outcome {
			case "error":
				return context.Canceled
			case "panic":
				panic("injected shard panic")
			}
			return nil
		}}
	}
	var cfg Config
	for _, c := range []struct {
		name   string
		shards []shard
		builds int
	}{
		{"one pass", []shard{cell(cfg, 0, 0, "ok"), cell(cfg, 0, 0, "ok"), cell(cfg, 0, 0, "ok")}, 1},
		{"two variants", []shard{cell(cfg, 0, 0, "ok"), cell(cfg, 0, 1, "ok"), cell(cfg, 0, 0, "ok")}, 2},
		{"two passes", []shard{cell(cfg, 0, 0, "ok"), cell(cfg, 1, 0, "ok"), cell(cfg, 1, 0, "ok")}, 2},
		{"failed shard", []shard{cell(cfg, 0, 0, "ok"), cell(cfg, 0, 0, "error"), cell(cfg, 0, 0, "ok")}, 2},
		{"panicked shard", []shard{cell(cfg, 0, 0, "ok"), cell(cfg, 0, 0, "panic"), cell(cfg, 0, 0, "ok")}, 2},
		{"wrapped factory", []shard{cell(wrapped, 0, 0, "ok"), cell(wrapped, 0, 0, "ok"), cell(wrapped, 0, 0, "ok")}, 3},
	} {
		built = 0
		runShards(Config{Workers: 1}, c.shards)
		if built != c.builds {
			t.Errorf("%s: built %d predictors, want %d", c.name, built, c.builds)
		}
	}
}

// TestWarmPredictSweepAllocation holds the reuse in place: a warm pass
// of the predictor sweeps (baselines, fig9, fig11, tournament) on the
// serial path allocates a few MiB, where building every cell's
// predictor tables afresh allocated hundreds.
func TestWarmPredictSweepAllocation(t *testing.T) {
	cfg := Config{EventsPerTrace: 5_000, Workers: 1, ReplayCache: trace.NewReplayCache(0)}
	pass := func() {
		for _, name := range []string{"baselines", "fig9", "fig11", "tournament"} {
			e, _ := ExperimentByName(name)
			if fails := e.Run(cfg).Failed(); len(fails) != 0 {
				t.Fatalf("%s: %v", name, fails)
			}
		}
	}
	pass() // fills the replay cache
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	pass()
	runtime.ReadMemStats(&after)
	const limit = 32 << 20
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("warm pass allocated %.1f MiB in %d GCs", float64(got)/(1<<20), after.NumGC-before.NumGC)
	if got > limit {
		t.Errorf("warm pass allocated %.1f MiB, want at most %d MiB", float64(got)/(1<<20), limit>>20)
	}
}
