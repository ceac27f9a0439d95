package sim

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"capred/internal/predictor"
	"capred/internal/trace"
	"capred/internal/workload"
)

// failSourceFor returns a WrapSource that truncates the named trace with
// a decode error after n events and leaves every other trace untouched.
func failSourceFor(name string, n int64) func(string, trace.Source) trace.Source {
	return func(traceName string, src trace.Source) trace.Source {
		if traceName == name {
			return trace.NewFailAfter(src, n, nil)
		}
		return src
	}
}

// panicFactoryFor returns a WrapFactory whose factory panics for the
// named trace only.
func panicFactoryFor(name string) func(string, Factory) Factory {
	return func(traceName string, f Factory) Factory {
		if traceName != name {
			return f
		}
		return func() predictor.Predictor { panic("injected factory panic") }
	}
}

func TestRunTraceSurfacesDecodeError(t *testing.T) {
	spec, _ := workload.ByName("INT_go")
	src := trace.NewFailAfter(trace.NewLimit(spec.Open(), 50_000), 10_000, nil)
	c, err := RunTrace(src, predictor.DefaultHybridConfig().New(), 0)
	if !errors.Is(err, trace.ErrInjected) {
		t.Fatalf("err = %v, want wrapped ErrInjected", err)
	}
	if c.Loads == 0 {
		t.Error("partial counters should cover the events before the fault")
	}
}

func TestRunTraceCleanEOFHasNoError(t *testing.T) {
	spec, _ := workload.ByName("INT_go")
	// The fault budget outlives the stream, so EOF arrives cleanly and no
	// error may be invented.
	src := trace.NewFailAfter(trace.NewLimit(spec.Open(), 5_000), 1_000_000, nil)
	if _, err := RunTrace(src, predictor.DefaultHybridConfig().New(), 0); err != nil {
		t.Fatalf("clean EOF reported an error: %v", err)
	}
}

func TestRunTraceContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	spec, _ := workload.ByName("INT_go")
	_, err := RunTraceContext(ctx, trace.NewLimit(spec.Open(), 50_000), predictor.DefaultHybridConfig().New(), 0)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestRunTraceHangingSourceUnblocksOnCancel(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	spec, _ := workload.ByName("INT_go")
	src := trace.NewHang(ctx, trace.NewLimit(spec.Open(), 50_000), 1000)
	done := make(chan error, 1)
	go func() {
		_, err := RunTraceContext(ctx, src, predictor.DefaultHybridConfig().New(), 0)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("err = %v, want context.DeadlineExceeded", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("hung source was not unblocked by cancellation")
	}
}

func TestSweepIsolatesDecodeError(t *testing.T) {
	cfg := Config{
		EventsPerTrace: 10_000,
		WrapSource:     failSourceFor("INT_go", 2_000),
	}
	runs, fails := hybridPass(cfg, "test")
	if len(fails) != 1 {
		t.Fatalf("failures = %v, want exactly the injected one", fails)
	}
	if fails[0].Trace != "INT_go" || fails[0].Suite != "INT" || fails[0].Stage != "test" {
		t.Errorf("failure misattributed: %+v", fails[0])
	}
	if !errors.Is(fails[0].Err, trace.ErrInjected) {
		t.Errorf("failure error = %v, want wrapped ErrInjected", fails[0].Err)
	}
	var okRuns int
	for _, r := range runs {
		if r.ok {
			okRuns++
			if r.Spec.Name == "INT_go" {
				t.Error("failed trace marked ok")
			}
		}
	}
	if okRuns != len(runs)-1 {
		t.Errorf("%d of %d runs ok, want all but one", okRuns, len(runs))
	}
}

func TestPanickingFactoryFailsOnlyItsTrace(t *testing.T) {
	cfg := Config{
		EventsPerTrace: 5_000,
		WrapFactory:    panicFactoryFor("CAD_cat"),
	}
	runs, fails := hybridPass(cfg, "test")
	if len(fails) != 1 || fails[0].Trace != "CAD_cat" {
		t.Fatalf("failures = %v, want exactly CAD_cat", fails)
	}
	var pe *PanicError
	if !errors.As(fails[0].Err, &pe) {
		t.Fatalf("failure error = %T, want *PanicError", fails[0].Err)
	}
	if len(pe.Stack) == 0 {
		t.Error("recovered panic lost its stack")
	}
	if !strings.Contains(pe.Error(), "injected factory panic") {
		t.Errorf("panic value lost: %v", pe)
	}
	for _, r := range runs {
		if r.Spec.Name != "CAD_cat" && !r.ok {
			t.Errorf("sibling trace %s damaged by the panic", r.Spec.Name)
		}
	}
}

func TestTransientSourceErrorIsRetried(t *testing.T) {
	// The first open of INT_go fails transiently; the retry succeeds.
	var mu sync.Mutex
	failed := false
	wrap := func(traceName string, src trace.Source) trace.Source {
		if traceName != "INT_go" {
			return src
		}
		mu.Lock()
		defer mu.Unlock()
		if !failed {
			failed = true
			return trace.NewFailAfter(src, 100, trace.Transient(trace.ErrInjected))
		}
		return src
	}

	cfg := Config{EventsPerTrace: 5_000, WrapSource: wrap, SourceRetries: 1}
	_, fails := hybridPass(cfg, "test")
	if len(fails) != 0 {
		t.Fatalf("transient failure not retried: %v", fails)
	}

	// Without a retry budget the same fault is fatal for the trace.
	mu.Lock()
	failed = false
	mu.Unlock()
	cfg.SourceRetries = 0
	_, fails = hybridPass(cfg, "test")
	if len(fails) != 1 || fails[0].Trace != "INT_go" {
		t.Fatalf("failures = %v, want INT_go without retries", fails)
	}
}

// traceDeadline is the per-trace deadline of the timeout tests: far
// above what a sibling's 5k-event run takes, even under the race
// detector on a loaded host, so that only the hung trace can reach it.
const traceDeadline = 2 * time.Second

// hangTrace is a WrapSourceCtx that hangs the named trace's source on
// the run's own deadline context.
func hangTrace(name string) func(context.Context, string, trace.Source) trace.Source {
	return func(ctx context.Context, traceName string, src trace.Source) trace.Source {
		if traceName == name {
			return trace.NewHang(ctx, src, 100)
		}
		return src
	}
}

func TestTraceTimeoutFailsSlowTraceOnly(t *testing.T) {
	// Hang one trace's source on its own deadline; TraceTimeout must fail
	// it with the deadline while its siblings run to completion.
	cfg := Config{
		EventsPerTrace: 5_000,
		TraceTimeout:   traceDeadline,
		WrapSourceCtx:  hangTrace("JAV_aud"),
	}
	runs, fails := hybridPass(cfg, "test")
	if len(fails) != 1 || fails[0].Trace != "JAV_aud" {
		t.Fatalf("failures = %v, want exactly JAV_aud", fails)
	}
	if !errors.Is(fails[0].Err, context.DeadlineExceeded) {
		t.Errorf("JAV_aud failed with %v, want the trace deadline", fails[0].Err)
	}
	for _, r := range runs {
		if r.Spec.Name != "JAV_aud" && !r.ok {
			t.Errorf("sibling %s failed alongside the slow trace", r.Spec.Name)
		}
	}
}

func TestCorruptedSourceCompletesButDegrades(t *testing.T) {
	spec, _ := workload.ByName("INT_xli")
	clean, err := RunTrace(trace.NewLimit(spec.Open(), 50_000), predictor.DefaultHybridConfig().New(), 0)
	if err != nil {
		t.Fatal(err)
	}
	corrupted, err := RunTrace(
		trace.NewCorrupt(trace.NewLimit(spec.Open(), 50_000), 5, nil),
		predictor.DefaultHybridConfig().New(), 0)
	if err != nil {
		t.Fatalf("corruption is silent damage, not a stream error: %v", err)
	}
	if corrupted.Loads != clean.Loads {
		t.Errorf("corruption changed the load count: %d vs %d", corrupted.Loads, clean.Loads)
	}
	if !(corrupted.Accuracy() < clean.Accuracy()) {
		t.Errorf("scrambled addresses should cost accuracy: clean=%.4f corrupt=%.4f",
			clean.Accuracy(), corrupted.Accuracy())
	}
}

func TestFig5PartialResults(t *testing.T) {
	cfg := Config{
		EventsPerTrace: 10_000,
		WrapSource:     failSourceFor("INT_go", 2_000),
	}
	r := Fig5(cfg)
	// Fig5 runs three passes (stride, cap, hybrid); the bad trace fails
	// in each of them.
	if len(r.Failed()) != 3 {
		t.Fatalf("failures = %v, want one per pass", r.Failed())
	}
	for _, f := range r.Failed() {
		if f.Trace != "INT_go" {
			t.Errorf("unexpected failing trace %q", f.Trace)
		}
	}
	if r.Counters[rowIndex(t, r.Names, "hybrid")].Pooled.Loads == 0 {
		t.Error("survivors should still aggregate")
	}
	out := r.Table().String()
	if !strings.Contains(out, "WARNING: 3 of") {
		t.Errorf("table footer missing the failure warning:\n%s", out)
	}
	if !strings.Contains(out, "INT_go") {
		t.Errorf("table footer must name the failing trace:\n%s", out)
	}
}

func TestFig10PartialResultsWithPanic(t *testing.T) {
	cfg := Config{
		EventsPerTrace: 8_000,
		WrapFactory:    panicFactoryFor("MM_aud"),
	}
	r := Fig10(cfg)
	if len(r.Failed()) == 0 {
		t.Fatal("panicking factory reported no failures")
	}
	for _, f := range r.Failed() {
		if f.Trace != "MM_aud" {
			t.Errorf("unexpected failing trace %q", f.Trace)
		}
		var pe *PanicError
		if !errors.As(f.Err, &pe) {
			t.Errorf("failure %v did not preserve the panic", f)
		}
	}
	out := r.Table().String()
	if !strings.Contains(out, "WARNING") || !strings.Contains(out, "MM_aud") {
		t.Errorf("footer missing failure report:\n%s", out)
	}
	for _, c := range r.Counters {
		if c.Pooled.Loads == 0 {
			t.Error("surviving traces should still produce every variant row")
		}
	}
}

// TestCancelledExperimentReportsEveryTrace runs every experiment under
// a cancelled context: every run fails with the cancellation, and the
// table still renders, every data cell "n/a" and the footer explaining
// why.
func TestCancelledExperimentReportsEveryTrace(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, e := range Experiments() {
		t.Run(e.Name, func(t *testing.T) {
			r := e.Run(Config{EventsPerTrace: 5_000, Ctx: ctx})
			if r.Attempted == 0 || len(r.Failures) != r.Attempted {
				t.Fatalf("%d of %d runs failed, want every one", len(r.Failures), r.Attempted)
			}
			for _, f := range r.Failures {
				if !errors.Is(f.Err, context.Canceled) {
					t.Errorf("failure %v should be the cancellation", f)
				}
			}
			if len(r.labels) == 0 || len(r.cols) == 0 {
				t.Fatalf("table has %d lines and %d columns", len(r.labels), len(r.cols))
			}
			for _, line := range r.labels {
				for _, c := range r.cols {
					if v, ok := r.Value(line, c.header); ok {
						t.Errorf("(%s, %s) = %v, want no data", line, c.header, v)
					}
				}
			}
			out := r.Table().String()
			if got, want := strings.Count(out, "n/a"), len(r.labels)*len(r.cols); got != want {
				t.Errorf("%d cells read n/a, want all %d:\n%s", got, want, out)
			}
			if !strings.Contains(out, "WARNING") {
				t.Errorf("cancelled run must keep its failure footer:\n%s", out)
			}
		})
	}
}

func TestFooterAccounting(t *testing.T) {
	var s FailureSet
	if s.Footer() != "" {
		t.Error("clean set must render no footer")
	}
	s.absorb(45, []TraceFailure{{Trace: "INT_go", Suite: "INT", Stage: "stride", Err: trace.ErrInjected}})
	s.absorb(45, nil)
	f := s.Footer()
	if !strings.Contains(f, "1 of 90") {
		t.Errorf("footer should count runs across passes: %q", f)
	}
	if !strings.Contains(f, "INT_go [stride]") {
		t.Errorf("footer should attribute the failure: %q", f)
	}
}

// TestSweepSkipsFailedTraceInEveryRow: a factory that panics on one
// trace fails it once per row, under the row's stage. Where every row
// is a plain immediate-update run, every row's counters, and the
// tournament's pooled selections, aggregate exactly the other traces:
// adding the victim's own run back gives the clean result.
func TestSweepSkipsFailedTraceInEveryRow(t *testing.T) {
	const victim = "INT_go"
	spec, _ := workload.ByName(victim)
	for _, tc := range []struct {
		name   string
		run    func(Config) SweepResult
		stages []string
		plain  bool // every row is RunTrace at gap 0
	}{
		{"tournament", Tournament, []string{"hybrid (§3.7)", "tournament stride+cap", "markov alone", "tournament 3-way"}, true},
		{"lt-size", LTSize, []string{"LT 1024", "LT 2048", "LT 4096", "LT 8192"}, true},
		{"wrong-path", WrongPath, []string{"no wrong path", "wrong path + squash recovery", "wrong path, destructive updates"}, false},
		{"profile-assist", ProfileAssist, []string{"hybrid 4K LT", "hybrid 4K LT + profile", "hybrid 512 LT", "hybrid 512 LT + profile"}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{EventsPerTrace: 5_000}
			// The clean run records the victim's factory of each row,
			// in row order (the serial path runs shards in order).
			var victimRows []Factory
			cfg.WrapFactory = func(name string, f Factory) Factory {
				if name == victim {
					victimRows = append(victimRows, f)
				}
				return f
			}
			clean := tc.run(cfg)
			cfg.Workers, cfg.WrapFactory = 4, panicFactoryFor(victim)
			r := tc.run(cfg)

			rows := len(tc.stages)
			if r.Attempted != rows*len(workload.Traces()) {
				t.Errorf("attempted %d, want %d", r.Attempted, rows*len(workload.Traces()))
			}
			if len(r.Failures) != rows || len(victimRows) != rows {
				t.Fatalf("%d failures and %d victim rows, want %d each: %v", len(r.Failures), len(victimRows), rows, r.Failures)
			}
			for i, f := range r.Failures {
				var pe *PanicError
				if f.Trace != victim || f.Stage != tc.stages[i] || !errors.As(f.Err, &pe) {
					t.Errorf("failure %d = %v, want a panic of %s [%s]", i, f, victim, tc.stages[i])
				}
			}
			if tc.name == "tournament" && (r.Sel == nil || r.Sel[0] != nil) {
				t.Errorf("selection shares %v: want the hybrid row's to stay empty", r.Sel)
			}
			if !tc.plain {
				return
			}
			for i, f := range victimRows {
				p := f()
				c, err := RunTrace(cfg.open(spec), p, 0)
				if err != nil {
					t.Fatal(err)
				}
				got := r.Counters[i]
				got.Pooled.Merge(c)
				if want := clean.Counters[i]; got.Traces+1 != want.Traces || got.Pooled != want.Pooled {
					t.Errorf("%s: survivors plus %s = %d traces %+v, want the clean %d traces %+v",
						tc.stages[i], victim, got.Traces+1, got.Pooled, want.Traces, want.Pooled)
				}
				if r.Sel == nil || r.Sel[i] == nil {
					continue
				}
				for k, s := range p.(*predictor.Tournament).ComponentStats() {
					got, want := r.Sel[i][k], clean.Sel[i][k]
					if got.Selected+s.Selected != want.Selected || got.Correct+s.Correct != want.Correct {
						t.Errorf("%s: %s selections %+v plus %s's %+v, want the clean %+v",
							tc.stages[i], s.Name, got, victim, s, want)
					}
				}
			}
		})
	}
}
