// Package sim wires workloads, predictors and metrics into the paper's
// experiments: one driver function per evaluation figure/table (Fig. 5
// through Fig. 12, the LT update-policy and LT size studies, the §1
// baselines and the §3.6 control-based comparison).
package sim

import (
	"context"
	"fmt"
	"time"

	"capred/internal/cpu"
	"capred/internal/metrics"
	"capred/internal/predictor"
	"capred/internal/retry"
	"capred/internal/trace"
	"capred/internal/workload"
)

// Config scales the experiments. The paper uses 30M instructions per
// trace; rates converge much earlier, so the default keeps experiments
// interactive while a higher budget sharpens the numbers.
type Config struct {
	// EventsPerTrace bounds each trace (instructions, all kinds).
	EventsPerTrace int64
	// Workers bounds the goroutines the scheduler shards an experiment's
	// (trace × configuration) grid across. 0 (and 1) select the serial
	// reference path: shards run in registration order on the calling
	// goroutine. Every worker count produces bit-identical tables — each
	// shard starts from a fresh or reset predictor instance and its own
	// replay cursor, writes only its own result slot, and results merge
	// in shard order after the pool drains (see scheduler.go).
	Workers int

	// Ctx, when non-nil, cancels in-flight trace simulations: traces
	// that have not completed fail with the context's error and the
	// drivers report partial results. nil means Background.
	Ctx context.Context
	// TraceTimeout, when positive, bounds each individual trace run; a
	// trace exceeding it fails with context.DeadlineExceeded without
	// affecting its siblings.
	TraceTimeout time.Duration
	// SourceRetries bounds re-runs of a trace whose source failed with a
	// transient error (trace.IsTransient). 0 disables retries.
	SourceRetries int

	// Progress, when non-nil, is invoked by the scheduler as grid shards
	// complete: done counts the finished shards of the experiment's one
	// grid, total the shards it registered. A shard is one trace of one
	// pass; a timing shard runs several configurations. Calls may arrive
	// concurrently from worker goroutines; the callback must be fast and
	// thread-safe. The serving layer uses it to report job progress.
	Progress func(done, total int)

	// ReplayCache, when non-nil, materialises each trace's event stream
	// once (in the compact trace encoding) and replays it on later
	// opens, so sweeps that drive the same trace through many predictor
	// configurations stop re-running the workload generator. Streaming
	// and cached runs produce identical counters; the cache only changes
	// where events come from.
	ReplayCache *trace.ReplayCache

	// WrapSource, when non-nil, wraps every trace source as it is
	// opened. The fault-injection harness and capsim's -inject flag use
	// it to substitute hostile streams for specific traces.
	WrapSource func(traceName string, src trace.Source) trace.Source
	// WrapSourceCtx is WrapSource with the per-trace deadline context:
	// it is applied after WrapSource, inside the TraceTimeout scope, so
	// wrappers that must observe cancellation (e.g. trace.NewHang bound
	// to the run's own deadline) can be injected.
	WrapSourceCtx func(ctx context.Context, traceName string, src trace.Source) trace.Source
	// WrapFactory, like WrapSource, substitutes the predictor factory
	// for specific traces (e.g. one that panics, to test isolation). It
	// gets each cell's spec.New; with it set, no cell reuses or shares
	// another's predictor.
	WrapFactory func(traceName string, f Factory) Factory
}

// DefaultConfig returns the standard experiment scale.
func DefaultConfig() Config {
	return Config{EventsPerTrace: 400_000}
}

// schedWorkers resolves the configured worker count for the scheduler;
// anything below 2 is the serial path.
func (c Config) schedWorkers() int {
	if c.Workers > 1 {
		return c.Workers
	}
	return 1
}

// Factory builds a fresh predictor instance. Grids name configurations
// by predictor.Spec and reuse a worker's instance of an equal spec;
// WrapFactory sees a cell's spec.New as a Factory and may substitute
// another, and then every call builds fresh.
type Factory func() predictor.Predictor

// RunTrace drives one predictor over one event stream, maintaining the
// global branch-history and call-path registers, and returns the
// prediction counters. gapDepth 0 is the paper's immediate update (§4);
// a positive depth defers resolutions by that many dynamic loads (§5).
//
// The returned error is non-nil when the stream ended on a source error
// (src.Err) rather than clean EOF; the counters accumulated up to that
// point are returned alongside it so callers can decide whether partial
// numbers are usable.
func RunTrace(src trace.Source, p predictor.Predictor, gapDepth int) (metrics.Counters, error) {
	return RunTraceContext(context.Background(), src, p, gapDepth)
}

// RunTraceContext is RunTrace with cancellation: the run stops with
// ctx.Err() at the next batch boundary once ctx is done. A source whose
// Next blocks (e.g. a stalled feed) must itself honour ctx — see
// trace.NewHang — since a blocked Next cannot be interrupted here.
func RunTraceContext(ctx context.Context, src trace.Source, p predictor.Predictor, gapDepth int) (metrics.Counters, error) {
	// RunTrace and the step-wise serving path (server sessions fed events
	// over the network) share one per-event code path — the Stepper — so
	// their counters agree bit-for-bit by construction.
	st := NewStepper(p, gapDepth)
	err := forEachBlock(ctx, src, st.StepBlock)
	// Drain the prediction gap on every exit, including source error and
	// cancellation: predictions are recorded at predict time, so Finish
	// never changes the counters, but skipping it would leave the
	// in-flight resolutions unapplied to the predictor's tables and break
	// the resolve-all invariant partial-counter consumers rely on.
	st.Finish()
	return st.C, err
}

// forEachBlock drains src in blocks of up to trace.BlockLen events,
// invoking fn on each block and polling ctx between blocks. It returns
// the context's error on cancellation, or the source error (wrapped)
// when the stream ended on one instead of clean EOF. Every drain loop
// in the package goes through here, so cancellation, error propagation
// and block delivery behave identically across drivers.
//
// The block passed to fn follows the Block view contract: it is valid
// only for the duration of the call and must be treated as read-only
// (warm replay cursors alias the cache's resident columns).
func forEachBlock(ctx context.Context, src trace.Source, fn func(*trace.Block)) error {
	bs := trace.AsBlocks(src)
	b := trace.GetBlock()
	defer trace.PutBlock(b)
	for {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		n, ok := bs.NextBlock(b, trace.BlockLen)
		if n > 0 {
			fn(b)
		}
		if !ok {
			break
		}
	}
	// A decode error must never be mistaken for clean EOF: counters from
	// a truncated stream look plausible but undercount every rate.
	if err := src.Err(); err != nil {
		return fmt.Errorf("trace source: %w", err)
	}
	return nil
}

// traceRun pairs a trace with its counters and, when its predictor is
// a tournament, the selector ledger Fig. 8 reads and the per-entrant
// selections the tournament ablation reads. A timing run has no
// counters; T holds its result of each configuration instead.
type traceRun struct {
	Spec  workload.TraceSpec
	C     metrics.Counters
	Sel   predictor.SelectorStats
	Comps []predictor.ComponentStat
	T     []cpu.Result
	ok    bool
}

// perTrace is the single per-trace run policy: it installs the config's
// per-trace deadline, retries transient source errors (trace.IsTransient)
// up to SourceRetries times, and hands the body a context-aware opener
// that applies the fault wrappers. Every driver pass — the figure sweeps,
// the timing drivers and the class-coverage pass — runs its per-trace
// work through here, so the resilience knobs apply uniformly.
//
// The body may run more than once (on retry) and must therefore reset
// any per-trace state it accumulates at the top of each attempt, only
// publishing results once it returns nil.
func (c Config) perTrace(spec workload.TraceSpec, body func(ctx context.Context, open func() trace.Source) error) error {
	pol := retry.Policy{Attempts: c.SourceRetries + 1}
	return pol.Do(c.context(), trace.IsTransient, func(int) error {
		ctx := c.context()
		if c.TraceTimeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, c.TraceTimeout)
			defer cancel()
		}
		return body(ctx, func() trace.Source { return c.openCtx(ctx, spec) })
	})
}

// meanOf is the equal-weight mean of the surviving runs' counters
// ("Average" in the paper's figures), folded in roster order. Pooling
// would let long (or merely surviving, under partial failure) traces
// dominate; Mean keeps the pool for the per-suite lines, whose traces
// all run the same event budget.
func meanOf(runs []traceRun) metrics.Mean {
	var m metrics.Mean
	for _, r := range runs {
		if r.ok {
			m.Add(r.C)
		}
	}
	return m
}
