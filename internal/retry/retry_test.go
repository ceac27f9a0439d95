package retry

import (
	"context"
	"errors"
	"testing"
)

func TestZeroValueRunsOnce(t *testing.T) {
	calls := 0
	err := Policy{}.Do(context.Background(), nil, func(int) error {
		calls++
		return errors.New("boom")
	})
	if calls != 1 || err == nil {
		t.Fatalf("calls=%d err=%v; want one failing attempt", calls, err)
	}
}

func TestAttemptBudgetAndTryNumbers(t *testing.T) {
	var tries []int
	err := Policy{Attempts: 3}.Do(context.Background(), nil, func(try int) error {
		tries = append(tries, try)
		return errors.New("always")
	})
	if err == nil || len(tries) != 3 {
		t.Fatalf("tries=%v err=%v; want 3 attempts then last error", tries, err)
	}
	for i, try := range tries {
		if try != i {
			t.Fatalf("attempt %d reported try=%d", i, try)
		}
	}
}

func TestSuccessStopsRetrying(t *testing.T) {
	calls := 0
	err := Policy{Attempts: 5}.Do(context.Background(), nil, func(int) error {
		calls++
		if calls < 3 {
			return errors.New("transient")
		}
		return nil
	})
	if err != nil || calls != 3 {
		t.Fatalf("calls=%d err=%v; want success on third try", calls, err)
	}
}

func TestPermanentErrorStopsImmediately(t *testing.T) {
	permanent := errors.New("permanent")
	calls := 0
	err := Policy{Attempts: 5}.Do(context.Background(),
		func(err error) bool { return !errors.Is(err, permanent) },
		func(int) error { calls++; return permanent })
	if !errors.Is(err, permanent) || calls != 1 {
		t.Fatalf("calls=%d err=%v; want one attempt, permanent error", calls, err)
	}
}

func TestCancelledContextReturnsAttemptError(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	attemptErr := errors.New("attempt failed")
	calls := 0
	err := Policy{Attempts: 5}.Do(ctx, nil, func(int) error {
		calls++
		return attemptErr
	})
	if !errors.Is(err, attemptErr) || calls != 1 {
		t.Fatalf("calls=%d err=%v; want the attempt error and no retry once ctx is done", calls, err)
	}
}
