// Golden testdata pinning the joint determinism + goisolate coverage of
// a package that distributes work: lease/deadline arithmetic must run
// on an injected clock (a wall-clock read makes which worker computes a
// shard irreproducible) and a panic in a heartbeat or local-fallback
// goroutine must never crash the process. Loaded scoped as
// internal/load, which sits inside both analyzers' scopes.
package dist

import (
	"context"
	"time"
)

type coord struct {
	now   func() time.Time
	lease time.Duration
}

// expired consults the wall clock directly: flagged — lease expiry
// decided off-config-clock cannot be replayed in tests.
func (c *coord) expired(deadline time.Time) bool {
	return time.Now().After(deadline) // want `time.Now reads the wall clock`
}

// expiredInjected is the coordinator's real shape: the injected clock.
func (c *coord) expiredInjected(deadline time.Time) bool {
	return c.now().After(deadline)
}

// newCoord defaults the clock by VALUE assignment — a reference to
// time.Now, not a call — which is the sanctioned pattern and must stay
// silent.
func newCoord() *coord {
	c := &coord{lease: 10 * time.Second}
	c.now = time.Now
	return c
}

// leaseLeft does lease arithmetic through time.Until: flagged, same
// reasoning as time.Now.
func (c *coord) leaseLeft(deadline time.Time) time.Duration {
	return time.Until(deadline) // want `time.Until reads the wall clock`
}

// heartbeat spawns the lease-extension loop with no context and no
// recovery: flagged — a panic in post would take down the whole
// worker process, turning one bad shard into a dead fleet member.
func heartbeat(post func() error) {
	go func() { // want `goroutine has no panic isolation and no context`
		for {
			if err := post(); err != nil {
				return
			}
		}
	}()
}

// heartbeatManaged is the worker's real shape: the goroutine takes the
// context that revokes it. Clean.
func heartbeatManaged(ctx context.Context, period time.Duration, post func() error) {
	go func(ctx context.Context) {
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				if err := post(); err != nil {
					return
				}
			}
		}
	}(ctx)
}

// localFallback runs a shard in-process under a recovering wrapper, the
// coordinator's degraded-mode shape. Clean.
func localFallback(run func()) {
	exec := func() {
		defer func() { _ = recover() }()
		run()
	}
	go func() {
		exec()
	}()
}
