package retry

import (
	"context"
	"errors"
	"testing"
	"time"
)

// fakeClock is virtual time: Sleep advances it instantly and records the
// wait, so the tests below never touch the wall clock.
type fakeClock struct {
	now    time.Time
	sleeps []time.Duration
}

func (c *fakeClock) Now() time.Time { return c.now }

func (c *fakeClock) Sleep(ctx context.Context, d time.Duration) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	c.now = c.now.Add(d)
	c.sleeps = append(c.sleeps, d)
	return nil
}

var errFlaky = errors.New("flaky")

// failing returns an attempt that always fails retryably after taking
// cost of virtual time, counting its calls in *n.
func failing(clk *fakeClock, cost, retryAfter time.Duration, n *int) func(context.Context) (time.Duration, bool, error) {
	return func(context.Context) (time.Duration, bool, error) {
		*n++
		clk.now = clk.now.Add(cost)
		return retryAfter, true, errFlaky
	}
}

// TestBackoffFullJitter: delays are uniform in [0, BaseDelay·2ⁿ] capped
// at MaxDelay, and Retry-After wins.
func TestBackoffFullJitter(t *testing.T) {
	r := newRetrier(3, &fakeClock{})
	p := Policy{BaseDelay: 10 * time.Millisecond, MaxDelay: 80 * time.Millisecond}
	distinct := map[time.Duration]bool{}
	for i := 0; i < 64; i++ {
		d := r.Backoff(p, 0, 0)
		if d < 0 || d > 10*time.Millisecond {
			t.Fatalf("backoff(0) = %v outside [0, 10ms]", d)
		}
		distinct[d] = true
	}
	if len(distinct) < 2 {
		t.Fatal("backoff is not jittered")
	}
	var past20 bool
	for i := 0; i < 64; i++ {
		d := r.Backoff(p, 2, 0)
		if d > 40*time.Millisecond {
			t.Fatalf("backoff(2) = %v outside [0, 40ms]", d)
		}
		past20 = past20 || d > 20*time.Millisecond
	}
	if !past20 {
		t.Fatal("backoff(2) never left backoff(1)'s range: the ceiling does not double")
	}
	for i := 0; i < 64; i++ {
		if d := r.Backoff(p, 10, 0); d > 80*time.Millisecond {
			t.Fatalf("backoff(10) = %v exceeds MaxDelay", d)
		}
		if d := r.Backoff(p, 70, 0); d > 80*time.Millisecond {
			t.Fatalf("backoff(70) = %v: shift overflow not capped", d)
		}
	}
	if d := r.Backoff(p, 0, 5*time.Second); d != 80*time.Millisecond {
		t.Fatalf("Retry-After beyond cap = %v, want MaxDelay", d)
	}
	if d := r.Backoff(p, 0, 30*time.Millisecond); d != 30*time.Millisecond {
		t.Fatalf("Retry-After = %v, want 30ms", d)
	}
}

// TestDoAttemptsAndOutcomes: success and terminal errors return at once,
// retryable ones use exactly the allowed attempts and surface the last
// error unchanged.
func TestDoAttemptsAndOutcomes(t *testing.T) {
	clk := &fakeClock{}
	r := newRetrier(1, clk)
	p := Policy{Attempts: 4, BaseDelay: time.Millisecond, MaxDelay: 8 * time.Millisecond}

	var calls int
	n, err := r.Do(context.Background(), p, nil, func(context.Context) (time.Duration, bool, error) {
		calls++
		if calls < 3 {
			return 0, true, errFlaky
		}
		return 0, false, nil
	})
	if err != nil || n != 3 || calls != 3 || len(clk.sleeps) != 2 {
		t.Fatalf("absorbed: n=%d calls=%d sleeps=%v err=%v", n, calls, clk.sleeps, err)
	}

	terminal := errors.New("terminal")
	n, err = r.Do(context.Background(), p, nil, func(context.Context) (time.Duration, bool, error) {
		return 0, false, terminal
	})
	if err != terminal || n != 1 {
		t.Fatalf("terminal: n=%d err=%v", n, err)
	}

	calls = 0
	n, err = r.Do(context.Background(), p, nil, failing(clk, 0, 0, &calls))
	if err != errFlaky || n != 4 || calls != 4 {
		t.Fatalf("exhausted: n=%d calls=%d err=%v", n, calls, err)
	}

	// A non-positive attempt count still tries once.
	calls = 0
	if n, _ = r.Do(context.Background(), Policy{}, nil, failing(clk, 0, 0, &calls)); n != 1 || calls != 1 {
		t.Fatalf("zero policy: n=%d calls=%d", n, calls)
	}
}

// TestDoBudget: the total-time budget stops a hopeless call long before
// the attempt count would, and never sleeps past it.
func TestDoBudget(t *testing.T) {
	clk := &fakeClock{}
	r := newRetrier(1, clk)
	p := Policy{Attempts: 1000, BaseDelay: 20 * time.Millisecond, MaxDelay: 20 * time.Millisecond, Budget: 80 * time.Millisecond}
	start := clk.now
	var calls int
	n, err := r.Do(context.Background(), p, nil, failing(clk, 5*time.Millisecond, 0, &calls))
	if err != errFlaky {
		t.Fatalf("want the last error, got %v", err)
	}
	if n < 2 || n > 16 {
		t.Fatalf("budget bounded attempts to %d, want a handful", n)
	}
	if spent := clk.now.Sub(start); spent > p.Budget+5*time.Millisecond {
		t.Fatalf("ran %v of virtual time against a %v budget", spent, p.Budget)
	}
}

// TestDoHonoursRetryAfterAndContext: the peer's hint replaces the jittered
// delay (capped at MaxDelay), and a done context ends the loop with its
// error instead of sleeping.
func TestDoHonoursRetryAfterAndContext(t *testing.T) {
	clk := &fakeClock{}
	r := newRetrier(1, clk)
	p := Policy{Attempts: 3, BaseDelay: time.Millisecond, MaxDelay: 50 * time.Millisecond}
	var calls int
	r.Do(context.Background(), p, nil, failing(clk, 0, 30*time.Millisecond, &calls))
	if len(clk.sleeps) != 2 || clk.sleeps[0] != 30*time.Millisecond || clk.sleeps[1] != 30*time.Millisecond {
		t.Fatalf("sleeps %v, want two of 30ms", clk.sleeps)
	}
	clk.sleeps = nil
	r.Do(context.Background(), p, nil, failing(clk, 0, time.Minute, &calls))
	if len(clk.sleeps) != 2 || clk.sleeps[0] != p.MaxDelay {
		t.Fatalf("sleeps %v, want Retry-After capped at %v", clk.sleeps, p.MaxDelay)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	calls = 0
	if n, err := r.Do(ctx, p, nil, failing(clk, 0, 0, &calls)); !errors.Is(err, context.Canceled) || n != 1 {
		t.Fatalf("cancelled: n=%d err=%v", n, err)
	}
}

// TestBreakerStateMachine: closed → open at the threshold → one half-open
// probe after the cooldown → reopened by a failed probe, closed by a
// successful one.
func TestBreakerStateMachine(t *testing.T) {
	clk := &fakeClock{}
	r := newRetrier(1, clk)
	b := r.NewBreaker(2, 100*time.Millisecond)

	b.Record(false)
	b.Record(true) // a success in between resets the consecutive count
	b.Record(false)
	if !b.Allow() {
		t.Fatal("opened below the threshold of consecutive failures")
	}
	b.Record(false)
	if b.Allow() {
		t.Fatal("two consecutive failures did not open the circuit")
	}
	clk.now = clk.now.Add(99 * time.Millisecond)
	if b.Allow() {
		t.Fatal("admitted a call before the cooldown elapsed")
	}
	clk.now = clk.now.Add(time.Millisecond)
	if !b.Allow() {
		t.Fatal("cooldown elapsed but no probe admitted")
	}
	if b.Allow() {
		t.Fatal("second caller admitted while the probe is in flight")
	}
	b.Record(false) // the probe failed: a full cooldown again, at once
	clk.now = clk.now.Add(99 * time.Millisecond)
	if b.Allow() {
		t.Fatal("failed probe did not reopen the circuit for a full cooldown")
	}
	clk.now = clk.now.Add(time.Millisecond)
	if !b.Allow() {
		t.Fatal("no second probe after the second cooldown")
	}
	b.Record(true)
	if !b.Allow() || !b.Allow() {
		t.Fatal("successful probe did not close the circuit")
	}
}

// TestDoWithBreaker: Do gates every attempt, counts retryable failures
// and abandoned attempts against the endpoint, and treats a terminal
// answer as proof the endpoint is up.
func TestDoWithBreaker(t *testing.T) {
	clk := &fakeClock{}
	r := newRetrier(1, clk)
	p := Policy{Attempts: 5, BaseDelay: time.Millisecond, MaxDelay: time.Millisecond}
	b := r.NewBreaker(3, time.Second)

	// The circuit opens mid-call: three attempts reach the peer, the
	// fourth is refused.
	var calls int
	n, err := r.Do(context.Background(), p, b, failing(clk, 0, 0, &calls))
	if !errors.Is(err, ErrCircuitOpen) || n != 3 || calls != 3 {
		t.Fatalf("n=%d calls=%d err=%v, want 3 attempts then ErrCircuitOpen", n, calls, err)
	}
	if n, err = r.Do(context.Background(), p, b, failing(clk, 0, 0, &calls)); !errors.Is(err, ErrCircuitOpen) || n != 0 {
		t.Fatalf("open circuit: n=%d err=%v", n, err)
	}

	// A terminal error from the probe closes the circuit: the peer answers.
	clk.now = clk.now.Add(time.Second)
	terminal := errors.New("no such strip")
	if _, err = r.Do(context.Background(), p, b, func(context.Context) (time.Duration, bool, error) {
		return 0, false, terminal
	}); err != terminal {
		t.Fatalf("probe: %v", err)
	}
	if !b.Allow() {
		t.Fatal("a terminal answer did not close the circuit")
	}

	// An attempt abandoned by its context counts as a failure.
	b = r.NewBreaker(1, time.Second)
	ctx, cancel := context.WithCancel(context.Background())
	r.Do(ctx, p, b, func(context.Context) (time.Duration, bool, error) {
		cancel()
		return 0, false, ctx.Err()
	})
	if b.Allow() {
		t.Fatal("abandoned attempt did not count against the endpoint")
	}
}
