package sim

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"capred/internal/cpu"
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

// countedSpec is a stride spec that counts the predictors it builds.
type countedSpec struct {
	predictor.StrideConfig
	built *int
}

func (s countedSpec) New() predictor.Predictor {
	*s.built++
	return s.StrideConfig.New()
}

// TestWorkerCachesPerSpec holds the worker's cache to spec keys: Fig.
// 11's stride rows at gaps 0-12, four passes on the serial path, build
// one stride predictor. Driving runShards directly, a worker reuses its
// predictor for a spec it has built and builds anew for a distinct spec
// and after a failed or panicked shard, and under WrapFactory every
// cell builds fresh.
func TestWorkerCachesPerSpec(t *testing.T) {
	built := 0
	stride := countedSpec{predictor.DefaultStrideConfig(), &built}
	basic := countedSpec{predictor.BasicStrideConfig(), &built}

	var rows []row
	for _, gap := range Fig11Gaps() {
		rows = append(rows, row{fmt.Sprintf("stride gap %d", gap), stride, gap, nil})
	}
	r, _ := sweep(Config{EventsPerTrace: 2_000, Workers: 1}, rows)
	if len(r.Failures) != 0 || built != 1 {
		t.Errorf("Fig. 11 stride rows: %d failures, built %d predictors, want 1", len(r.Failures), built)
	}

	spec := workload.Traces()[0]
	wrapped := Config{WrapFactory: func(_ string, f Factory) Factory { return f }}
	// cell is a shard that takes pred's predictor and then ends as
	// outcome says: "ok", "error" or "panic".
	cell := func(cfg Config, pred predictor.Spec, outcome string) shard {
		return shard{run: func(w *worker) error {
			w.predictor(cfg, spec, pred)
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
		{"equal specs", []shard{cell(cfg, stride, "ok"), cell(cfg, stride, "ok"), cell(cfg, stride, "ok")}, 1},
		{"distinct specs", []shard{cell(cfg, stride, "ok"), cell(cfg, basic, "ok"), cell(cfg, stride, "ok"), cell(cfg, basic, "ok")}, 2},
		{"failed shard", []shard{cell(cfg, stride, "ok"), cell(cfg, stride, "error"), cell(cfg, stride, "ok")}, 2},
		{"panicked shard", []shard{cell(cfg, stride, "ok"), cell(cfg, stride, "panic"), cell(cfg, stride, "ok")}, 2},
		{"wrapped factory", []shard{cell(wrapped, stride, "ok"), cell(wrapped, stride, "ok"), cell(wrapped, stride, "ok")}, 3},
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

// TestWarmTimingSweepAllocation is TestWarmPredictSweepAllocation for
// the timing sweeps (fig7, fig12, prefetch): each worker keeps its
// machine's tables, its stream-determined columns and its RPT across
// shards. A warm serial pass at 5k events allocated 4.0 MiB, nearly all
// of it the three grids' per-worker tables; building the columns afresh
// for every shard took it to 9.3 MiB, and a fresh RPT per run added
// another 4.2 MiB. Under -race the same pass allocated 7.3 MiB, and
// 14.7 MiB with columns built per shard.
func TestWarmTimingSweepAllocation(t *testing.T) {
	cfg := Config{EventsPerTrace: 5_000, Workers: 1, ReplayCache: trace.NewReplayCache(0)}
	pass := func() {
		for _, name := range []string{"fig7", "fig12", "prefetch"} {
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
	limit := uint64(6 << 20)
	if raceDetector {
		limit = 10 << 20
	}
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("warm pass allocated %.2f MiB in %d GCs", float64(got)/(1<<20), after.NumGC-before.NumGC)
	if got > limit {
		t.Errorf("warm pass allocated %.1f MiB, want at most %d MiB", float64(got)/(1<<20), limit>>20)
	}
}

// TestTimingShardDivergence changes one load address on the second open
// of one trace. That run reads the columns its shard's first run
// stored, so the trace's Fig. 12 and Fig. 7 shards must fail with
// cpu.ErrDiverged in the failure footer, and every other trace must time
// as in a run where the victim failed outright.
func TestTimingShardDivergence(t *testing.T) {
	victim := workload.Traces()[7].Name
	// diverge changes the address of the first load past event 1000 on
	// the victim's second open.
	diverge := func() func(string, trace.Source) trace.Source {
		opens := 0
		return func(name string, src trace.Source) trace.Source {
			if name != victim {
				return src
			}
			if opens++; opens != 2 {
				return src
			}
			n, done := 0, false
			return trace.NewCorrupt(src, 1, func(ev *trace.Event) {
				if n++; !done && n > 1000 && ev.Kind == trace.KindLoad {
					ev.Addr ^= 0x40
					done = true
				}
			})
		}
	}
	leftOut := func(name string, src trace.Source) trace.Source {
		if name == victim {
			return trace.NewErrSource(errors.New("victim left out"))
		}
		return src
	}
	checkFailure := func(fs FailureSet, footer string) {
		t.Helper()
		if len(fs.Failures) != 1 || fs.Failures[0].Trace != victim || !errors.Is(fs.Failures[0].Err, cpu.ErrDiverged) {
			t.Fatalf("failures = %v, want one cpu.ErrDiverged for %s", fs.Failures, victim)
		}
		if !strings.Contains(footer, victim) || !strings.Contains(footer, cpu.ErrDiverged.Error()) {
			t.Errorf("footer does not name the divergence of %s:\n%s", victim, footer)
		}
	}
	base := Config{EventsPerTrace: 5_000, Workers: 2}

	t.Run("fig12", func(t *testing.T) {
		cfg := base
		cfg.WrapSource = leftOut
		want := Fig12(cfg)
		cfg.WrapSource = diverge()
		got := Fig12(cfg)
		checkFailure(got.FailureSet, got.Table().String())
		if !reflect.DeepEqual(got.cells, want.cells) {
			t.Errorf("speedups around the diverged trace:\n%v\nwant, with it left out:\n%v", got.cells, want.cells)
		}
	})
	t.Run("fig7", func(t *testing.T) {
		clean := Fig7(base)
		cfg := base
		cfg.WrapSource = diverge()
		got := Fig7(cfg)
		checkFailure(got.FailureSet, got.Table().String())
		var want []string
		for _, line := range clean.labels {
			if line != victim {
				want = append(want, line)
			}
		}
		if !reflect.DeepEqual(got.labels, want) {
			t.Fatalf("lines %v, want the clean run's but %s: %v", got.labels, victim, want)
		}
		// Every trace but the victim times as in the clean run; the
		// Average line is over one trace fewer.
		for _, line := range want[:len(want)-1] {
			for _, col := range []string{"stride", "hybrid"} {
				g, _ := got.Value(line, col)
				if w, _ := clean.Value(line, col); g != w {
					t.Errorf("%s %s speedup %v, want the clean run's %v", line, col, g, w)
				}
			}
		}
	})
}
