// Fault tolerance for the experiment harness: per-trace failures are
// isolated, recorded and reported instead of crashing a sweep or
// silently folding truncated counters into the aggregate tables.
package sim

import (
	"context"
	"fmt"
	"strings"

	"capred/internal/trace"
	"capred/internal/workload"
)

// PanicError is a panic recovered from a per-trace worker goroutine,
// converted into an ordinary error with the goroutine's stack captured
// at the panic site.
type PanicError struct {
	Value any
	Stack []byte
}

// Error implements error.
func (p *PanicError) Error() string { return fmt.Sprintf("panic: %v", p.Value) }

// TraceFailure records one failed trace run within an experiment.
type TraceFailure struct {
	Trace string // trace name, e.g. "INT_go"
	Suite string // suite name, e.g. "INT"
	Stage string // which pass of the experiment, e.g. "stride" or "gap 8"
	Err   error
}

// String renders the failure as one report line.
func (f TraceFailure) String() string {
	if f.Stage != "" {
		return fmt.Sprintf("%s [%s]: %v", f.Trace, f.Stage, f.Err)
	}
	return fmt.Sprintf("%s: %v", f.Trace, f.Err)
}

// FailureSet is embedded in every experiment result: the per-trace runs
// that failed, out of how many were attempted. Tables render partial
// results from the surviving runs plus an explicit failure footer.
type FailureSet struct {
	Failures  []TraceFailure
	Attempted int // total per-trace runs the driver attempted
}

// Failed returns the recorded failures (nil for a clean run).
func (s FailureSet) Failed() []TraceFailure { return s.Failures }

// absorb accounts for `runs` attempted trace runs and their failures.
func (s *FailureSet) absorb(runs int, fails []TraceFailure) {
	s.Attempted += runs
	s.Failures = append(s.Failures, fails...)
}

// Footer renders the "N of M traces failed" report appended to tables,
// or "" when every run succeeded.
func (s FailureSet) Footer() string {
	if len(s.Failures) == 0 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "WARNING: %d of %d trace runs failed; rows aggregate the survivors",
		len(s.Failures), s.Attempted)
	for _, f := range s.Failures {
		b.WriteString("\n  ")
		b.WriteString(f.String())
	}
	return b.String()
}

// context returns the config's context, defaulting to Background.
func (c Config) context() context.Context {
	if c.Ctx != nil {
		return c.Ctx
	}
	return context.Background()
}

// open builds the (budget-limited) source for one trace. With a replay
// cache configured the materialised stream is shared across every run of
// the same trace at the same budget; fault-injection wrappers are
// applied outside the cache, so injected faults are never materialised
// and a retry re-applies them to a fresh cursor.
func (c Config) open(spec workload.TraceSpec) trace.Source {
	var src trace.Source
	if c.ReplayCache != nil {
		// The key folds in everything that changes the limited stream.
		key := fmt.Sprintf("%s@%d", spec.Name, c.EventsPerTrace)
		src = c.ReplayCache.Open(key, func() trace.Source {
			return trace.NewLimit(spec.Open(), c.EventsPerTrace)
		})
	} else {
		src = trace.NewLimit(spec.Open(), c.EventsPerTrace)
	}
	if c.WrapSource != nil {
		src = c.WrapSource(spec.Name, src)
	}
	return src
}

// openCtx is open plus the context-aware fault wrapper: WrapSourceCtx
// sees the per-trace deadline context installed by perTrace, so an
// injected hang can block on the very deadline that is supposed to fail
// it.
func (c Config) openCtx(ctx context.Context, spec workload.TraceSpec) trace.Source {
	src := c.open(spec)
	if c.WrapSourceCtx != nil {
		src = c.WrapSourceCtx(ctx, spec.Name, src)
	}
	return src
}
