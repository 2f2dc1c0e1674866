package retry

import (
	"sync"
	"time"
)

// Breaker is one endpoint's circuit: closed counts consecutive failures,
// open fails fast until the cooldown elapses, half-open admits exactly
// one probe whose outcome decides between closed and open again.
type Breaker struct {
	clk       clock
	threshold int
	cooldown  time.Duration

	mu       sync.Mutex
	failures int // consecutive, while closed
	open     bool
	openedAt time.Time
	probing  bool // half-open: the one probe is in flight
}

// NewBreaker returns a closed breaker on the Retrier's clock that opens
// after threshold consecutive failures and admits a probe once cooldown
// has passed.
func (r *Retrier) NewBreaker(threshold int, cooldown time.Duration) *Breaker {
	return &Breaker{clk: r.clk, threshold: threshold, cooldown: cooldown}
}

// Allow reports whether an attempt may go out. Once an open circuit's
// cooldown has elapsed the first caller becomes the half-open probe and
// everyone else keeps being refused until its outcome is recorded.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.open {
		return true
	}
	if b.probing || b.clk.Now().Sub(b.openedAt) < b.cooldown {
		return false
	}
	b.probing = true
	return true
}

// Open reports whether the circuit is open: attempts are refused, but for
// a half-open probe once the cooldown has passed.
func (b *Breaker) Open() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.open
}

// Record folds one attempt's outcome into the breaker: a success closes
// it; a failure reopens a half-open circuit at once and opens a closed
// one at the threshold.
func (b *Breaker) Record(ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if ok {
		b.failures, b.open, b.probing = 0, false, false
		return
	}
	b.failures++
	if b.probing || b.failures >= b.threshold {
		b.failures, b.open, b.probing = 0, true, false
		b.openedAt = b.clk.Now()
	}
}
