package trace

import (
	"context"
	"errors"
	"fmt"
)

// Fault-injecting Source wrappers. The resilient-harness tests (and
// capsim's -inject flag) use these to drive corrupt and hostile streams
// through the full experiment path: a production-grade harness must
// isolate a bad trace instead of crashing or silently folding garbage
// into the aggregate tables.

// ErrInjected is the default error produced by the fault wrappers.
var ErrInjected = errors.New("trace: injected fault")

// transientErr marks an error as transient: the run layer's bounded
// retry policy re-opens the trace when it sees one.
type transientErr struct{ err error }

func (t *transientErr) Error() string { return "transient: " + t.err.Error() }
func (t *transientErr) Unwrap() error { return t.err }

// Transient wraps err so that IsTransient reports true for it. A nil err
// is returned unchanged.
func Transient(err error) error {
	if err == nil {
		return nil
	}
	return &transientErr{err: err}
}

// IsTransient reports whether err (or any error it wraps) was marked
// with Transient. Context cancellation and deadline expiry are never
// transient.
func IsTransient(err error) bool {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var t *transientErr
	return errors.As(err, &t)
}

// FailAfter yields at most n events from src and then ends the stream
// with the given error — the trace-file analogue of a file truncated
// mid-event or a decoder hitting corrupt bytes. A nil err defaults to
// ErrInjected.
type FailAfter struct {
	src  Source
	blks BlockSource
	n    int64
	err  error
}

// NewFailAfter returns a Source that fails with err after n events.
func NewFailAfter(src Source, n int64, err error) *FailAfter {
	if err == nil {
		err = ErrInjected
	}
	return &FailAfter{src: src, n: n, err: err}
}

// Next implements Source.
func (f *FailAfter) Next() (Event, bool) {
	if f.n <= 0 {
		return Event{}, false
	}
	f.n--
	return f.src.Next()
}

// NextBlock implements BlockSource: the fault budget truncates blocks
// exactly as it truncates per-event delivery.
func (f *FailAfter) NextBlock(b *Block, max int) (int, bool) {
	if f.n <= 0 {
		b.Resize(0)
		return 0, false
	}
	if int64(max) > f.n {
		max = int(f.n)
	}
	if f.blks == nil {
		f.blks = AsBlocks(f.src)
	}
	n, ok := f.blks.NextBlock(b, max)
	f.n -= int64(n)
	if f.n <= 0 {
		ok = false
	}
	return n, ok
}

// Err implements Source: once the budget is exhausted the injected error
// is reported; an earlier error from the wrapped source wins.
func (f *FailAfter) Err() error {
	if err := f.src.Err(); err != nil {
		return err
	}
	if f.n <= 0 {
		return f.err
	}
	return nil
}

// Corrupt passes events through, mutating every k-th one. The default
// mutation scrambles the effective address and flips the branch outcome
// — plausible-looking damage that only failure accounting (not a crash)
// can surface.
type Corrupt struct {
	src    Source
	blks   BlockSource
	every  int64
	n      int64
	mutate func(*Event)
}

// NewCorrupt returns a Source corrupting every k-th event (k ≥ 1) with
// mutate; a nil mutate installs the default field-scrambler.
func NewCorrupt(src Source, every int64, mutate func(*Event)) *Corrupt {
	if every < 1 {
		every = 1
	}
	if mutate == nil {
		mutate = func(ev *Event) {
			ev.Addr = ^ev.Addr ^ 0xDEAD_BEEF
			ev.Taken = !ev.Taken
			ev.Offset = -ev.Offset - 1
		}
	}
	return &Corrupt{src: src, every: every, mutate: mutate}
}

// Next implements Source.
func (c *Corrupt) Next() (Event, bool) {
	ev, ok := c.src.Next()
	if !ok {
		return ev, false
	}
	c.n++
	if c.n%c.every == 0 {
		c.mutate(&ev)
	}
	return ev, true
}

// NextBlock implements BlockSource, applying the per-event every-k
// mutation schedule. Corrupted events round-trip through the AoS form
// so arbitrary mutate functions keep working; under the block column
// contract only the fields the (possibly mutated) kind carries survive
// into the columns, which is all any kind-gated consumer can observe.
func (c *Corrupt) NextBlock(b *Block, max int) (int, bool) {
	if c.blks == nil {
		c.blks = AsBlocks(c.src)
	}
	n, ok := c.blks.NextBlock(b, max)
	for i := 0; i < n; i++ {
		c.n++
		if c.n%c.every == 0 {
			// The block may be a zero-copy view into shared replay
			// storage; take ownership before scribbling on it.
			b.Own()
			ev := b.Event(i)
			c.mutate(&ev)
			b.SetEvent(i, ev)
		}
	}
	return n, ok
}

// Err implements Source.
func (c *Corrupt) Err() error { return c.src.Err() }

// ErrSource ends the stream immediately with a fixed error, standing in
// for a source whose open/handshake fails.
type ErrSource struct{ err error }

// NewErrSource returns a Source that yields nothing and reports err
// (ErrInjected when nil).
func NewErrSource(err error) *ErrSource {
	if err == nil {
		err = ErrInjected
	}
	return &ErrSource{err: err}
}

// Next implements Source.
func (e *ErrSource) Next() (Event, bool) { return Event{}, false }

// Err implements Source.
func (e *ErrSource) Err() error { return e.err }

// Hang yields events from src until after n, then blocks in Next until
// the context is cancelled, after which the stream ends with the
// context's error. It models a stalled pipe or network trace feed; only
// cancellation can unblock the consuming goroutine.
type Hang struct {
	ctx context.Context
	src Source
	n   int64
	err error
}

// NewHang returns a Source that hangs after n events until ctx is done.
func NewHang(ctx context.Context, src Source, n int64) *Hang {
	return &Hang{ctx: ctx, src: src, n: n}
}

// Next implements Source.
func (h *Hang) Next() (Event, bool) {
	if h.n > 0 {
		h.n--
		return h.src.Next()
	}
	<-h.ctx.Done()
	h.err = fmt.Errorf("trace: source hung until cancelled: %w", h.ctx.Err())
	return Event{}, false
}

// Err implements Source.
func (h *Hang) Err() error {
	if h.err != nil {
		return h.err
	}
	return h.src.Err()
}

// FlakyOpen wraps an opener so that its first `failures` opens yield a
// source failing with a transient error after `events` events; later
// opens pass through. The run layer's retry policy is tested with this.
func FlakyOpen(open func() Source, failures int, events int64) func() Source {
	remaining := failures
	return func() Source {
		if remaining > 0 {
			remaining--
			return NewFailAfter(open(), events, Transient(ErrInjected))
		}
		return open()
	}
}
