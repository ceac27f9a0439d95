package sim

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"capred/internal/predictor"
	"capred/internal/trace"
	"capred/internal/workload"
)

// hybridPass sweeps one row — every trace through the hybrid,
// immediate mode — and returns the per-trace runs with the failures.
func hybridPass(cfg Config, stage string) ([]traceRun, []TraceFailure) {
	r, runs := sweep(cfg, []row{{stage, predictor.DefaultHybridConfig(), 0, nil}})
	return runs[0], r.Failures
}

// TestSchedulerShardAttributionUnderWorkers injects two unrelated faults
// into a parallel run: each must be attributed to exactly its own shard,
// with every sibling surviving, no matter which worker hit it.
func TestSchedulerShardAttributionUnderWorkers(t *testing.T) {
	cfg := Config{
		EventsPerTrace: 8_000,
		Workers:        4,
		WrapSource:     failSourceFor("INT_go", 2_000),
		WrapFactory:    panicFactoryFor("CAD_cat"),
	}
	runs, fails := hybridPass(cfg, "test")
	if len(fails) != 2 {
		t.Fatalf("failures = %v, want exactly the two injected ones", fails)
	}
	byTrace := map[string]error{}
	for _, f := range fails {
		if f.Stage != "test" {
			t.Errorf("failure %v lost its stage", f)
		}
		byTrace[f.Trace] = f.Err
	}
	if !errors.Is(byTrace["INT_go"], trace.ErrInjected) {
		t.Errorf("INT_go error = %v, want wrapped ErrInjected", byTrace["INT_go"])
	}
	var pe *PanicError
	if !errors.As(byTrace["CAD_cat"], &pe) {
		t.Errorf("CAD_cat error = %v, want *PanicError", byTrace["CAD_cat"])
	}
	for _, r := range runs {
		bad := r.Spec.Name == "INT_go" || r.Spec.Name == "CAD_cat"
		if r.ok == bad {
			t.Errorf("trace %s: ok=%v, want %v", r.Spec.Name, r.ok, !bad)
		}
	}
}

// TestSchedulerMultiPassFailureOrder pins that failures come back in
// shard registration order even when workers complete out of order: the
// same trace failing in all three Fig5 passes reports stride, cap,
// hybrid — the registration order — every time.
func TestSchedulerMultiPassFailureOrder(t *testing.T) {
	r := Fig5(Config{
		EventsPerTrace: 8_000,
		Workers:        6,
		WrapSource:     failSourceFor("INT_go", 2_000),
	})
	fails := r.Failed()
	if len(fails) != 3 {
		t.Fatalf("failures = %v, want one per pass", fails)
	}
	for i, stage := range []string{"stride", "cap", "hybrid"} {
		if fails[i].Stage != stage || fails[i].Trace != "INT_go" {
			t.Errorf("failure[%d] = %v, want INT_go at stage %s", i, fails[i], stage)
		}
	}
}

// TestSchedulerNoGoroutineLeak runs parallel grids repeatedly and checks
// the worker pool drains completely each time.
func TestSchedulerNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	cfg := Config{EventsPerTrace: 2_000, Workers: 8}
	for i := 0; i < 3; i++ {
		if _, fails := hybridPass(cfg, "leak"); len(fails) != 0 {
			t.Fatalf("clean run failed: %v", fails)
		}
	}
	// Allow the runtime a moment to reap exited goroutines.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSchedulerPromptCancellation hangs every trace source on the run's
// context and cancels shortly after launch: the pool must unblock and
// return promptly, with every shard accounted for as a failure.
func TestSchedulerPromptCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := Config{
		EventsPerTrace: 1_000_000,
		Workers:        4,
		Ctx:            ctx,
		WrapSourceCtx: func(ctx context.Context, name string, src trace.Source) trace.Source {
			return trace.NewHang(ctx, src, 100)
		},
	}
	time.AfterFunc(50*time.Millisecond, cancel)
	start := time.Now()
	runs, fails := hybridPass(cfg, "hang")
	elapsed := time.Since(start)
	if elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v; hung workers were not unblocked promptly", elapsed)
	}
	if len(fails) != len(runs) {
		t.Fatalf("%d of %d shards failed, want all (every source hangs)", len(fails), len(runs))
	}
	for _, f := range fails {
		if !errors.Is(f.Err, context.Canceled) {
			t.Errorf("failure %v should carry the cancellation", f)
		}
	}
}

// TestSchedulerFlakyOpenRetryUnderWorkers wires trace.FlakyOpen into the
// per-shard retry loop: every trace's first open fails transiently, and
// with one retry the whole parallel run must still come back clean.
func TestSchedulerFlakyOpenRetryUnderWorkers(t *testing.T) {
	// WrapSource hands us an opened source, while FlakyOpen wraps an
	// opener; bridge them per trace, under a lock since wrapping happens
	// concurrently across shards.
	var mu sync.Mutex
	cur := map[string]trace.Source{}
	openers := map[string]func() trace.Source{}
	wrap := func(name string, src trace.Source) trace.Source {
		mu.Lock()
		defer mu.Unlock()
		if _, ok := openers[name]; !ok {
			openers[name] = trace.FlakyOpen(func() trace.Source { return cur[name] }, 1, 200)
		}
		cur[name] = src
		return openers[name]()
	}

	cfg := Config{EventsPerTrace: 5_000, Workers: 4, WrapSource: wrap, SourceRetries: 1}
	runs, fails := hybridPass(cfg, "flaky")
	if len(fails) != 0 {
		t.Fatalf("transient opens not retried under workers: %v", fails)
	}
	for _, r := range runs {
		if !r.ok || r.C.Loads == 0 {
			t.Fatalf("trace %s did not complete after retry", r.Spec.Name)
		}
	}

	// Without the retry budget every shard's transient fault is fatal.
	mu.Lock()
	cur = map[string]trace.Source{}
	openers = map[string]func() trace.Source{}
	mu.Unlock()
	cfg.SourceRetries = 0
	_, fails = hybridPass(cfg, "flaky")
	if len(fails) != len(workload.Traces()) {
		t.Fatalf("failures = %d, want every trace without retries", len(fails))
	}
}

// TestSchedulerDeterministicAcrossWorkerCounts is the counters-level
// determinism check under oversubscription: more workers than shards,
// odd worker counts, and the serial path must all produce identical
// per-trace counters.
func TestSchedulerDeterministicAcrossWorkerCounts(t *testing.T) {
	base := Config{EventsPerTrace: 5_000}
	ref, fails := hybridPass(base, "det")
	if len(fails) != 0 {
		t.Fatalf("serial reference failed: %v", fails)
	}
	for _, workers := range []int{2, 5, 64} {
		cfg := base
		cfg.Workers = workers
		runs, fails := hybridPass(cfg, "det")
		if len(fails) != 0 {
			t.Fatalf("workers=%d failed: %v", workers, fails)
		}
		for i := range runs {
			if runs[i].Spec.Name != ref[i].Spec.Name {
				t.Fatalf("workers=%d: result order diverged at %d", workers, i)
			}
			if runs[i].C != ref[i].C {
				t.Errorf("workers=%d: %s counters diverged from serial", workers, runs[i].Spec.Name)
			}
		}
	}
}
