package store

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"github.com/oiraid/oiraid/internal/retry"
)

// RetryPolicy bounds how a RetryDevice retries transient errors: a capped
// number of attempts, exponential backoff with jitter between them, and an
// overall per-operation deadline. Permanent errors are never retried.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries per operation, including
	// the first (default 4).
	MaxAttempts int
	// BaseDelay is the backoff before the first retry (default 500µs);
	// each further retry doubles it.
	BaseDelay time.Duration
	// MaxDelay caps a single backoff (default 50ms).
	MaxDelay time.Duration
	// OpDeadline caps the total time spent on one operation, sleeps
	// included (default 0: unbounded).
	OpDeadline time.Duration
	// Seed initialises the jitter stream, making retry schedules
	// reproducible.
	Seed int64
}

// policy fills zero fields with the documented defaults and renders the
// result as the shared retry policy.
func (p RetryPolicy) policy() retry.Policy {
	pol := retry.Policy{Attempts: p.MaxAttempts, BaseDelay: p.BaseDelay, MaxDelay: p.MaxDelay, Budget: p.OpDeadline}
	if pol.Attempts <= 0 {
		pol.Attempts = 4
	}
	if pol.BaseDelay <= 0 {
		pol.BaseDelay = 500 * time.Microsecond
	}
	if pol.MaxDelay <= 0 {
		pol.MaxDelay = 50 * time.Millisecond
	}
	return pol
}

// RetryStats counts a RetryDevice's outcomes.
type RetryStats struct {
	// Ops is the number of operations admitted.
	Ops int64
	// Retries is the number of re-issued attempts.
	Retries int64
	// Absorbed is the number of operations that failed transiently at
	// least once and then succeeded — faults the caller never saw.
	Absorbed int64
	// Exhausted is the number of operations that stayed transient through
	// every allowed attempt and surfaced the error.
	Exhausted int64
}

// RetryDevice wraps a Device with the retry policy: transient errors
// (store.IsTransient) are retried with full-jitter exponential backoff up
// to the policy's attempt and deadline bounds; permanent and semantic
// errors surface immediately.
type RetryDevice struct {
	inner Device
	pol   retry.Policy
	retry *retry.Retrier

	ops, retries, absorbed, exhausted atomic.Int64
}

var _ Device = (*RetryDevice)(nil)

// NewRetryDevice wraps dev with pol (zero fields take defaults).
func NewRetryDevice(dev Device, pol RetryPolicy) *RetryDevice {
	return &RetryDevice{inner: dev, pol: pol.policy(), retry: retry.New(pol.Seed)}
}

// Strips implements Device.
func (r *RetryDevice) Strips() int64 { return r.inner.Strips() }

// StripBytes implements Device.
func (r *RetryDevice) StripBytes() int { return r.inner.StripBytes() }

// Stats returns a snapshot of the retry counters.
func (r *RetryDevice) Stats() RetryStats {
	return RetryStats{Ops: r.ops.Load(), Retries: r.retries.Load(), Absorbed: r.absorbed.Load(), Exhausted: r.exhausted.Load()}
}

// do runs op under the retry policy.
func (r *RetryDevice) do(op func() error) error {
	r.ops.Add(1)
	attempts, err := r.retry.Do(context.Background(), r.pol, nil, func(context.Context) (time.Duration, bool, error) {
		err := op()
		return 0, IsTransient(err), err
	})
	r.retries.Add(int64(attempts - 1))
	switch {
	case err == nil && attempts > 1:
		r.absorbed.Add(1)
	case IsTransient(err):
		r.exhausted.Add(1)
		return fmt.Errorf("store: %d attempt(s) exhausted: %w", attempts, err)
	}
	return err
}

// ReadStrip implements Device.
func (r *RetryDevice) ReadStrip(idx int64, p []byte) error {
	return r.do(func() error { return r.inner.ReadStrip(idx, p) })
}

// WriteStrip implements Device.
func (r *RetryDevice) WriteStrip(idx int64, p []byte) error {
	return r.do(func() error { return r.inner.WriteStrip(idx, p) })
}

// Close implements Device.
func (r *RetryDevice) Close() error { return r.inner.Close() }
