// The parallel sharded experiment scheduler. Every experiment is a grid
// of independent (configuration pass × trace) cells — exactly the
// embarrassingly-parallel shape of the paper's evaluation — and this
// file turns that grid into shards executed across a bounded worker
// pool. A cell names its predictor configuration by value, a
// predictor.Spec, so equal configurations share a worker's instance.
//
// Determinism: output tables are bit-identical at every worker count.
// Three properties make that structural rather than lucky:
//
//  1. Shards are independent. Each shard starts its predictor
//     instance(s) and timing model from the state a fresh spec.New()
//     or a fresh cpu.Machine has — its worker's cached instance, reset
//     in place (see worker), or a new one; a timing shard's cpu.Shard
//     forgets the columns of the worker's last trace — and opens its
//     own trace source: with a ReplayCache configured, a private replay
//     cursor over the cache's immutable shared bytes. A worker runs one
//     shard at a time, so no mutable state is shared between shards
//     that run concurrently.
//  2. Each shard writes only its own pre-allocated result slot, so the
//     completion order of shards cannot influence what any slot holds.
//  3. All merging (suite pooling, equal-weight means, failure lists)
//     happens after the pool drains, iterating the slots in shard
//     registration order. Floating-point accumulation therefore runs in
//     one fixed order regardless of scheduling.
//
// The resilience policy composes per shard: perTrace installs the
// config's deadline and transient-retry loop inside the shard, a panic
// anywhere in a shard is recovered into a *PanicError for that shard
// alone, and cancellation fails the shards that have not started while
// the ones in flight stop at their next batch boundary.
package sim

import (
	"context"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"capred/internal/cpu"
	"capred/internal/metrics"
	"capred/internal/predictor"
	"capred/internal/prefetch"
	"capred/internal/trace"
	"capred/internal/workload"
)

// shard is one (configuration pass, trace) cell of an experiment grid.
// run gets the worker that executes it.
type shard struct {
	stage string
	spec  workload.TraceSpec
	run   func(w *worker) error
}

// maxCached bounds the predictors a worker keeps: the class-coverage
// matrix steps four distinct specs at once in each cell.
const maxCached = 4

// worker is one scheduler goroutine's reusable simulation state: the
// predictors of the specs it ran last, one timing model and one RPT
// prefetcher. A shard gets a cached predictor reset in place
// (predictor.Resetter) instead of a fresh spec.New(), so the tables of
// a configuration are allocated once per worker rather than once per
// cell, whichever pass asks for it. Retention is bounded by maxCached
// predictors plus one cpu.Machine, with the stream-determined columns
// of the longest trace it timed, and one RPT per worker, and the state
// lives only as long as the grid's run.
type worker struct {
	cached  [maxCached]cachedPredictor
	next    int         // cached slot the next new predictor takes
	machine cpu.Machine // each timing shard starts a cpu.Shard on it
	rpt     *prefetch.RPT
}

// cachedPredictor is a predictor built from spec.
type cachedPredictor struct {
	spec predictor.Spec
	p    predictor.Predictor
}

// predictor returns spec's predictor, for a run on trace t, in the
// state a fresh spec.New() has: the cached instance of an equal spec,
// reset, or else a new one, which the worker keeps if it can be reset,
// evicting its oldest. A cell must therefore never hold two live
// predictors of equal spec: the second call resets and returns the
// first. With a WrapFactory configured (it may substitute another
// factory for t) every call builds fresh and nothing is cached.
func (w *worker) predictor(cfg Config, t workload.TraceSpec, spec predictor.Spec) predictor.Predictor {
	if cfg.WrapFactory != nil {
		return cfg.WrapFactory(t.Name, spec.New)()
	}
	for _, c := range w.cached {
		if c.p != nil && c.spec == spec {
			c.p.(predictor.Resetter).Reset()
			return c.p
		}
	}
	p := spec.New()
	if _, ok := p.(predictor.Resetter); ok {
		w.cached[w.next] = cachedPredictor{spec, p}
		w.next = (w.next + 1) % maxCached
	}
	return p
}

// prefetcher returns the worker's RPT prefetcher in the state
// prefetch.NewRPT(prefetch.DefaultRPTConfig()) builds.
func (w *worker) prefetcher() *prefetch.RPT {
	if w.rpt == nil {
		w.rpt = prefetch.NewRPT(prefetch.DefaultRPTConfig())
	} else {
		w.rpt.Reset()
	}
	return w.rpt
}

// drop forgets every cached instance: a shard that failed or panicked
// may have left them mid-update.
func (w *worker) drop() { *w = worker{} }

// grid accumulates an experiment's full work grid before execution, so
// every pass of a multi-configuration sweep shards across the same
// worker pool instead of running pass-by-pass behind barriers.
type grid struct {
	cfg    Config
	shards []shard
}

func newGrid(cfg Config) *grid { return &grid{cfg: cfg} }

// addPass registers one configuration pass over specs; body(w, i)
// performs the i-th trace's work on worker w and must write results
// only to slot i of whatever the caller pre-allocated (see the
// determinism contract at the top of the file).
func (g *grid) addPass(stage string, specs []workload.TraceSpec, body func(w *worker, i int) error) {
	for i := range specs {
		g.shards = append(g.shards, shard{
			stage: stage,
			spec:  specs[i],
			run:   func(w *worker) error { return body(w, i) },
		})
	}
}

// row is one configuration of a predictor sweep: the stage its
// failures report, the spec of its predictor (nil for none), and the
// prediction gap it runs at. A row with a body runs it on each trace
// instead of RunTraceContext at gap; p is the row's predictor, nil for a
// row without a spec.
type row struct {
	stage string
	pred  predictor.Spec
	gap   int
	body  func(ctx context.Context, open func() trace.Source, p predictor.Predictor) (metrics.Counters, error)
}

// sweep is the figure pass every predictor sweep shares: it registers
// one suite pass per row on one grid, runs the grid, and returns the
// result with the attempts, the failures, and each row's stage and
// equal-weight mean, plus each row's per-trace runs, in row order. The
// caller lays out the table.
func sweep(cfg Config, rows []row) (SweepResult, [][]traceRun) {
	g := newGrid(cfg)
	runs := make([][]traceRun, len(rows))
	for i, r := range rows {
		runs[i] = g.addSuitePass(r)
	}
	var res SweepResult
	res.absorb(g.size(), g.run())
	for i, r := range rows {
		res.Names = append(res.Names, r.stage)
		res.Counters = append(res.Counters, meanOf(runs[i]))
	}
	return res, runs
}

// addSuitePass registers the standard figure pass — every trace of the
// roster through one row — and returns its per-trace slots, filled once
// the grid has run.
func (g *grid) addSuitePass(r row) []traceRun {
	specs := workload.Traces()
	runs := make([]traceRun, len(specs))
	cfg := g.cfg
	body := r.body
	if body == nil {
		body = func(ctx context.Context, open func() trace.Source, p predictor.Predictor) (metrics.Counters, error) {
			return RunTraceContext(ctx, open(), p, r.gap)
		}
	}
	g.addPass(r.stage, specs, func(w *worker, i int) error {
		spec := specs[i]
		// Record the spec up front so even a panic mid-run leaves the
		// slot attributed to its trace.
		runs[i] = traceRun{Spec: spec}
		var run traceRun
		err := cfg.perTrace(spec, func(ctx context.Context, open func() trace.Source) (err error) {
			var p predictor.Predictor
			if r.pred != nil {
				p = w.predictor(cfg, spec, r.pred)
			}
			run = traceRun{Spec: spec}
			run.C, err = body(ctx, open, p)
			if t, ok := p.(*predictor.Tournament); ok {
				run.Sel, run.Comps = t.SelectorStats(), t.ComponentStats()
			}
			return err
		})
		if err != nil {
			return err
		}
		run.ok = true
		runs[i] = run
		return nil
	})
	return runs
}

// size is the number of registered shards — what FailureSet.Attempted
// should account for.
func (g *grid) size() int { return len(g.shards) }

// run executes every registered shard under the config's worker count
// and returns the failures in shard registration order.
func (g *grid) run() []TraceFailure {
	errs := runShards(g.cfg, g.shards)
	var fails []TraceFailure
	for i, err := range errs {
		if err != nil {
			fails = append(fails, TraceFailure{
				Trace: g.shards[i].spec.Name,
				Suite: g.shards[i].spec.Suite,
				Stage: g.shards[i].stage,
				Err:   err,
			})
		}
	}
	return fails
}

// runShards is the scheduler core: it executes shards across
// cfg.schedWorkers() goroutines (serially, in order, on the calling
// goroutine for Workers <= 1) and returns per-shard errors in shard
// order. Workers claim shard indices from an atomic cursor, so no shard
// runs twice and an idle worker immediately picks up the next cell of
// whatever pass still has work. Each worker goroutine has its own
// worker state. Each shard is isolated: a panic becomes that shard's
// *PanicError, a failed shard leaves its worker nothing cached, and
// once the config's context is done, not-yet-started shards fail with
// its error instead of running.
func runShards(cfg Config, shards []shard) []error {
	errs := make([]error, len(shards))
	ctx := cfg.context()
	var done atomic.Int64
	runOne := func(w *worker, i int) {
		// Progress reporting is observational only: it must not perturb
		// scheduling or results, so it fires after the shard's slot is
		// final, counting completions (not slot indices) monotonically.
		if cfg.Progress != nil {
			defer func() { cfg.Progress(int(done.Add(1)), len(shards)) }()
		}
		if err := ctx.Err(); err != nil {
			errs[i] = err
			return
		}
		defer func() {
			if r := recover(); r != nil {
				errs[i] = &PanicError{Value: r, Stack: debug.Stack()}
			}
			if errs[i] != nil {
				w.drop()
			}
		}()
		errs[i] = shards[i].run(w)
	}

	workers := cfg.schedWorkers()
	if workers > len(shards) {
		workers = len(shards)
	}
	if workers <= 1 {
		// Serial reference path: the golden harness diffs every parallel
		// run against this.
		var w worker
		for i := range shards {
			runOne(&w, i)
		}
		return errs
	}

	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var w worker
			for {
				i := int(next.Add(1)) - 1
				if i >= len(shards) {
					return
				}
				runOne(&w, i)
			}
		}()
	}
	wg.Wait()
	return errs
}
