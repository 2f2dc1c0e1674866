// Package retry is the one wire edge every remote caller in the tree
// shares: a retry policy, one backoff law (full jitter, honouring a
// server-supplied retry-after), one circuit breaker, one retry loop, and
// the error catalogue whose Retryable column feeds that loop. Its two
// callers, server.Client and netdev.NodeClient, are both wire edges: only a
// fault of the wire is retried, and nothing below the array retries a
// device's own error. It imports nothing from the rest of the tree.
package retry

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"time"
)

// ErrCircuitOpen reports a call refused locally because the endpoint's
// circuit breaker is open: recent attempts failed consecutively and the
// cooldown has not elapsed, so the caller fails fast.
var ErrCircuitOpen = errors.New("retry: circuit open")

// Policy bounds one Do call.
type Policy struct {
	// Attempts is the total number of tries, the first included (values
	// below 1 mean one try).
	Attempts int
	// BaseDelay is the backoff ceiling before the first retry; each
	// further retry doubles it, capped at MaxDelay.
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// Budget caps the total time of one Do, sleeps included: a retry whose
	// backoff would cross it is not made. 0 means unbounded.
	Budget time.Duration
}

// clock is the time source of a Retrier and its breakers.
type clock interface {
	Now() time.Time
	// Sleep waits d or until ctx is done, returning ctx.Err() in that case.
	Sleep(ctx context.Context, d time.Duration) error
}

type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }

func (wallClock) Sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// Retrier owns what the retry loop shares between calls: the clock and
// the seeded jitter stream. Safe for concurrent use.
type Retrier struct {
	clk clock
	mu  sync.Mutex
	rng *rand.Rand
}

// New returns a Retrier on the wall clock whose jitter stream starts from
// seed, making retry schedules reproducible.
func New(seed int64) *Retrier { return newRetrier(seed, wallClock{}) }

func newRetrier(seed int64, clk clock) *Retrier {
	return &Retrier{clk: clk, rng: rand.New(rand.NewSource(seed))}
}

// Backoff returns the delay before retry number n (0-based) with full
// jitter: uniform in [0, BaseDelay·2ⁿ] capped at MaxDelay, so callers
// shed together decorrelate instead of retrying in lockstep. A positive
// retryAfter (the peer's Retry-After) wins, capped the same.
func (r *Retrier) Backoff(p Policy, n int, retryAfter time.Duration) time.Duration {
	if retryAfter > 0 {
		return min(retryAfter, p.MaxDelay)
	}
	d := p.BaseDelay << uint(n)
	if d > p.MaxDelay || d <= 0 {
		d = p.MaxDelay
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return time.Duration(r.rng.Int63n(int64(d) + 1))
}

// Do runs try under the policy and reports how many attempts ran. try
// returns nil, a terminal error, or a retryable one, optionally with the
// peer's retry-after hint. Retryable failures back off and go again until
// the attempts, the budget or ctx run out; the last error is returned as
// is. With a breaker, every attempt is gated by it (a refusal returns
// ErrCircuitOpen) and folded into it: a retryable failure or an abandoned
// attempt (ctx done) counts against the endpoint, anything else proves it
// answers.
func (r *Retrier) Do(ctx context.Context, p Policy, br *Breaker,
	try func(ctx context.Context) (retryAfter time.Duration, retryable bool, err error)) (attempts int, err error) {
	var start time.Time
	if p.Budget > 0 {
		start = r.clk.Now()
	}
	for attempt := 0; ; attempt++ {
		if br != nil && !br.Allow() {
			return attempt, ErrCircuitOpen
		}
		retryAfter, retryable, err := try(ctx)
		if br != nil {
			br.Record(err == nil || (!retryable && ctx.Err() == nil))
		}
		if err == nil || !retryable || attempt+1 >= p.Attempts {
			return attempt + 1, err
		}
		delay := r.Backoff(p, attempt, retryAfter)
		if p.Budget > 0 && r.clk.Now().Sub(start)+delay > p.Budget {
			return attempt + 1, err
		}
		if serr := r.clk.Sleep(ctx, delay); serr != nil {
			return attempt + 1, serr
		}
	}
}
