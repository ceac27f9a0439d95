package sim

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"capred/internal/trace"
)

// The resilience knobs (TraceTimeout, SourceRetries, ctx polling) must
// hold in every drain loop, not only RunTraceContext's: the class
// coverage pass drains each trace twice, and the profile-assist,
// addr-vs-value and wrong-path rows run their own per-cell bodies
// (a profiling pass, a value-predictor loop, wrong-path bursts). These
// tests drive the same fault matrix through each of those drivers.

// customLoopDrivers enumerates the drivers whose cells drain traces
// outside RunTraceContext as (name, run) pairs returning the failure
// set.
func customLoopDrivers() []struct {
	name string
	run  func(Config) FailureSet
} {
	return []struct {
		name string
		run  func(Config) FailureSet
	}{
		{"ClassCoverage", func(cfg Config) FailureSet { return ClassCoverage(cfg).FailureSet }},
		{"ProfileAssist", func(cfg Config) FailureSet { return ProfileAssist(cfg).FailureSet }},
		{"AddressVsValue", func(cfg Config) FailureSet { return AddressVsValue(cfg).FailureSet }},
		{"WrongPath", func(cfg Config) FailureSet { return WrongPath(cfg).FailureSet }},
	}
}

// TestTraceTimeoutBoundsCustomLoops injects a hanging source into one
// trace of each custom-loop driver. The hang blocks on the per-trace
// deadline context itself (via WrapSourceCtx), so the driver must fail
// that trace with DeadlineExceeded within TraceTimeout instead of
// wedging the whole sweep; every sibling must survive.
func TestTraceTimeoutBoundsCustomLoops(t *testing.T) {
	const victim = "INT_go"
	for _, d := range customLoopDrivers() {
		d := d
		t.Run(d.name, func(t *testing.T) {
			t.Parallel()
			cfg := Config{
				EventsPerTrace: 5_000,
				TraceTimeout:   traceDeadline,
				WrapSourceCtx:  hangTrace(victim),
			}
			start := time.Now()
			fails := d.run(cfg)
			if len(fails.Failed()) == 0 {
				t.Fatalf("%s ignored the hanging source", d.name)
			}
			for _, f := range fails.Failed() {
				if f.Trace != victim {
					t.Errorf("sibling %s failed alongside the hung trace: %v", f.Trace, f.Err)
				}
				if !errors.Is(f.Err, context.DeadlineExceeded) {
					t.Errorf("failure should carry the deadline: %v", f.Err)
				}
			}
			// The hang must cost roughly one TraceTimeout, not wedge the
			// driver; the generous bound keeps slow CI out of the picture.
			if e := time.Since(start); e > 30*time.Second {
				t.Errorf("driver took %v with a %v trace deadline", e, traceDeadline)
			}
		})
	}
}

// TestTransientErrorRetriedInCustomLoops fails the first open of one
// trace with a transient error in each custom-loop driver; with one
// retry the sweep must come back clean, and with none the trace must
// fail.
func TestTransientErrorRetriedInCustomLoops(t *testing.T) {
	const victim = "CAD_cat"
	for _, d := range customLoopDrivers() {
		d := d
		t.Run(d.name, func(t *testing.T) {
			oneShot := func() func(string, trace.Source) trace.Source {
				var mu sync.Mutex
				fired := false
				return func(traceName string, src trace.Source) trace.Source {
					if traceName != victim {
						return src
					}
					mu.Lock()
					defer mu.Unlock()
					if fired {
						return src
					}
					fired = true
					return trace.NewFailAfter(src, 50, trace.Transient(trace.ErrInjected))
				}
			}

			cfg := Config{EventsPerTrace: 5_000, SourceRetries: 1, WrapSource: oneShot()}
			if fails := d.run(cfg); len(fails.Failed()) != 0 {
				t.Fatalf("transient fault not retried: %v", fails.Failed())
			}

			cfg = Config{EventsPerTrace: 5_000, SourceRetries: 0, WrapSource: oneShot()}
			fails := d.run(cfg)
			if len(fails.Failed()) == 0 {
				t.Fatal("without retries the transient fault must surface")
			}
			for _, f := range fails.Failed() {
				if f.Trace != victim {
					t.Errorf("failure misattributed to %s: %v", f.Trace, f.Err)
				}
				if !errors.Is(f.Err, trace.ErrInjected) {
					t.Errorf("failure should carry the injected error: %v", f.Err)
				}
			}
		})
	}
}
