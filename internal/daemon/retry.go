package daemon

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"tycos/internal/faultinject"
)

// retrier runs transient-failure-prone operations (journal appends) with
// jittered exponential backoff. The jitter source is a
// seeded PRNG so tests pin the exact delay sequence; jitter decorrelates
// concurrent retriers in production, where many workers may hit the same
// failing disk at once.
type retrier struct {
	attempts int           // total attempts, ≥ 1
	base     time.Duration // backoff before attempt 2; doubles each attempt

	mu  sync.Mutex
	rng *rand.Rand

	// sleep is the wait primitive, injectable so tests measure delays
	// without waiting them out.
	sleep func(ctx context.Context, d time.Duration) error
}

// newRetrier builds a retrier; attempts ≤ 0 means one attempt (no retries).
func newRetrier(attempts int, base time.Duration, seed int64) *retrier {
	if attempts < 1 {
		attempts = 1
	}
	if base <= 0 {
		base = 10 * time.Millisecond
	}
	return &retrier{
		attempts: attempts,
		base:     base,
		rng:      rand.New(rand.NewSource(seed)),
		sleep:    sleepCtx,
	}
}

// backoff returns the pre-attempt delay for retry number k (1-based count
// of retries, i.e. before attempt k+1): base·2^(k−1) plus jitter drawn
// uniformly from one more interval of the same size, so the delay lies in
// [d, 2d).
func (r *retrier) backoff(k int) time.Duration {
	d := r.base << (k - 1)
	r.mu.Lock()
	j := time.Duration(r.rng.Int63n(int64(d)))
	r.mu.Unlock()
	return d + j
}

// Do runs f until it succeeds, attempts are exhausted, or ctx is cancelled
// mid-backoff. The faultinject key lets chaos tests fail or kill the
// operation at its retry boundary; the error reports how many attempts were
// spent.
func (r *retrier) Do(ctx context.Context, key string, f func() error) error {
	var err error
	for attempt := 1; attempt <= r.attempts; attempt++ {
		if attempt > 1 {
			if serr := r.sleep(ctx, r.backoff(attempt-1)); serr != nil {
				return fmt.Errorf("daemon: %s: %w after %d attempts (last: %v)", key, serr, attempt-1, err)
			}
		}
		if err = faultinject.Fire(key); err == nil {
			err = f()
		}
		if err == nil {
			return nil
		}
	}
	return fmt.Errorf("daemon: %s: gave up after %d attempts: %w", key, r.attempts, err)
}

// sleepCtx waits for d or until ctx is done, whichever comes first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
