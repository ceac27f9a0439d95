// Package retry is the repo's single bounded-retry policy: a fixed
// attempt budget with no delay between attempts. The experiment
// harness uses it to re-run a trace whose source failed with a
// transient error; a re-run is a pure recomputation, so there is
// nothing to back off from.
package retry

import "context"

// Policy bounds a retry loop. The zero value runs the attempt exactly
// once — retrying is always an explicit decision.
type Policy struct {
	// Attempts is the total number of tries (first attempt included).
	// Values below 1 mean 1: the attempt always runs at least once.
	Attempts int
}

// Do runs attempt until it succeeds or the policy is exhausted: at
// most Attempts tries, stopping early when retryable reports an error
// permanent (nil retries every error) or when ctx is done. It returns
// the last attempt's error (nil on success); attempt receives the
// zero-based try number.
func (p Policy) Do(ctx context.Context, retryable func(error) bool, attempt func(try int) error) error {
	attempts := p.Attempts
	if attempts < 1 {
		attempts = 1
	}
	for try := 0; ; try++ {
		err := attempt(try)
		if err == nil || try+1 >= attempts {
			return err
		}
		if retryable != nil && !retryable(err) {
			return err
		}
		if ctx.Err() != nil {
			// The caller gave up: the attempt error is the useful one.
			return err
		}
	}
}
