package engine

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"github.com/oiraid/oiraid/internal/store"
)

// TestQoSAdmissionShed: with the admission queue full, an operation that
// cannot start within the wait budget is shed with store.ErrOverloaded,
// and the shed counter records it. Draining the queue admits again.
func TestQoSAdmissionShed(t *testing.T) {
	e := newEngine(t, 9, 2, Options{QoS: &QoSConfig{
		AdmitDepth: 1,
		AdmitWait:  5 * time.Millisecond,
	}})
	p := make([]byte, e.StripBytes())

	// Occupy the only slot directly, as a stuck in-flight op would.
	e.qos.slots <- struct{}{}
	if err := e.WriteStrip(0, p); !errors.Is(err, store.ErrOverloaded) {
		t.Fatalf("full queue: want ErrOverloaded, got %v", err)
	}
	if _, err := e.ReadStripCtx(context.Background(), 0); !errors.Is(err, store.ErrOverloaded) {
		t.Fatalf("full queue read: want ErrOverloaded, got %v", err)
	}
	if _, err := e.WriteAtCtx(context.Background(), p, 0); !errors.Is(err, store.ErrOverloaded) {
		t.Fatalf("full queue range op: want ErrOverloaded, got %v", err)
	}
	<-e.qos.slots
	if err := e.WriteStrip(0, p); err != nil {
		t.Fatalf("drained queue: %v", err)
	}
	st := e.Stats()
	if st.AdmitShed < 3 {
		t.Fatalf("AdmitShed = %d, want >= 3", st.AdmitShed)
	}
	if st.AdmitQueued < 3 {
		t.Fatalf("AdmitQueued = %d, want >= 3", st.AdmitQueued)
	}
	if st.AdmitInflight != 0 {
		t.Fatalf("AdmitInflight = %d after ops completed", st.AdmitInflight)
	}
}

// TestQoSAdmitCtxCancel: a context cancelled while queued for admission
// surfaces the context error, not ErrOverloaded — the caller gave up, the
// engine did not shed.
func TestQoSAdmitCtxCancel(t *testing.T) {
	e := newEngine(t, 9, 2, Options{QoS: &QoSConfig{
		AdmitDepth: 1,
		AdmitWait:  5 * time.Second,
	}})
	e.qos.slots <- struct{}{}
	defer func() { <-e.qos.slots }()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	if _, err := e.ReadStripCtx(ctx, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// TestQoSDeadlinePropagation: expired deadlines stop work before admission
// and between the strips of a range op.
func TestQoSDeadlinePropagation(t *testing.T) {
	e := newEngine(t, 9, 2, Options{})
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := e.ReadStripCtx(ctx, 0); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("strip read: want DeadlineExceeded, got %v", err)
	}
	if err := e.WriteStripCtx(ctx, 0, make([]byte, e.StripBytes())); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("strip write: want DeadlineExceeded, got %v", err)
	}
	if _, err := e.ReadAtCtx(ctx, make([]byte, 3*e.StripBytes()), 0); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("range read: want DeadlineExceeded, got %v", err)
	}
	// An unexpired context is unaffected.
	if _, err := e.ReadAtCtx(context.Background(), make([]byte, e.StripBytes()), 0); err != nil {
		t.Fatalf("live context: %v", err)
	}
}

// TestPacerAdapts is a deterministic unit test of the adaptive rate: feed
// the EWMA directly and check the derived rate at each operating point.
func TestPacerAdapts(t *testing.T) {
	q := newQoS(QoSConfig{
		RebuildRate:   100,
		LatencyTarget: time.Millisecond,
	})
	// No samples yet: full rate.
	if r := q.effectiveRate(false); r != 100 {
		t.Fatalf("no-sample rate = %g, want 100", r)
	}
	// Latency at 10× target: rate scales to base/10 (also the default
	// floor).
	for i := 0; i < 200; i++ {
		q.observe(10 * time.Millisecond)
	}
	if r := q.effectiveRate(false); r < 9 || r > 12 {
		t.Fatalf("overloaded rate = %g, want ~10", r)
	}
	// Idle overrides the EWMA: full rate while no foreground traffic.
	if r := q.effectiveRate(true); r != 100 {
		t.Fatalf("idle rate = %g, want 100", r)
	}
	// Extreme latency clamps at the floor, never zero.
	for i := 0; i < 200; i++ {
		q.observe(time.Second)
	}
	if r := q.effectiveRate(false); r != 10 {
		t.Fatalf("floored rate = %g, want 10 (base/10)", r)
	}
	// An explicit floor wins over the default.
	q.minRate.Store(25)
	if r := q.effectiveRate(false); r != 25 {
		t.Fatalf("explicit floor rate = %g, want 25", r)
	}
	// Latency back under target: full rate again.
	for i := 0; i < 200; i++ {
		q.observe(100 * time.Microsecond)
	}
	if r := q.effectiveRate(false); r != 100 {
		t.Fatalf("recovered rate = %g, want 100", r)
	}
}

// TestPacerStop: a closed stop channel aborts grant() both while blocked
// waiting for a token and on the unpaced fast path.
func TestPacerStop(t *testing.T) {
	q := newQoS(QoSConfig{RebuildRate: 0.1}) // 10s per token: grant must block
	stop := make(chan struct{})
	q.grant(passRebuild, stop) // consumes the initial token
	done := make(chan bool)
	go func() { done <- q.grant(passRebuild, stop) }()
	select {
	case <-done:
		t.Fatal("grant returned while bucket empty and stop open")
	case <-time.After(50 * time.Millisecond):
	}
	close(stop)
	select {
	case ok := <-done:
		if ok {
			t.Fatal("grant = true after stop")
		}
	case <-time.After(time.Second):
		t.Fatal("grant did not observe stop")
	}
	unpaced := newQoS(QoSConfig{})
	if ok := unpaced.grant(passRebuild, stop); ok {
		t.Fatal("unpaced grant = true with stop closed")
	}
}

// TestQoSPacedRebuildThrottles: a paced rebuild takes at least the time
// the token bucket dictates and accounts the wait in RebuildThrottleNs,
// while foreground reads issued mid-rebuild complete without waiting for
// the pass to finish.
func TestQoSPacedRebuildThrottles(t *testing.T) {
	const rate = 20.0 // 4 cycles at batch 1 → >= ~150ms of pacing
	e := newEngine(t, 9, 4, Options{QoS: &QoSConfig{RebuildRate: rate}})
	p := make([]byte, e.StripBytes())
	rand.New(rand.NewSource(11)).Read(p)
	for addr := int64(0); addr < e.Strips(); addr += 5 {
		if err := e.WriteStrip(addr, p); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.FailDisk(2); err != nil {
		t.Fatal(err)
	}
	begin := time.Now()
	if err := e.StartRebuild(1); err != nil {
		t.Fatal(err)
	}
	// Foreground reads during the paced rebuild return promptly — they
	// never queue behind the whole pass, which has >= 150ms left.
	for i := 0; i < 5; i++ {
		fgStart := time.Now()
		if _, err := e.ReadStrip(0); err != nil {
			t.Fatal(err)
		}
		if d := time.Since(fgStart); d > 100*time.Millisecond {
			t.Fatalf("foreground read blocked %v behind paced rebuild", d)
		}
	}
	if err := e.RebuildWait(); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(begin)
	// 4 batches after the initial token: >= 3 refills at 50ms each. Keep
	// a wide margin for race-detector scheduling noise.
	if elapsed < 100*time.Millisecond {
		t.Fatalf("paced rebuild finished in %v, want >= 100ms at %g batches/s", elapsed, rate)
	}
	st := e.Stats()
	if st.RebuildThrottleNs <= 0 {
		t.Fatalf("RebuildThrottleNs = %d, want > 0", st.RebuildThrottleNs)
	}
	if st.EffectiveRebuildRate != rate {
		t.Fatalf("EffectiveRebuildRate = %g, want %g while idle", st.EffectiveRebuildRate, rate)
	}
}

// TestQoSRebuildAbortsOnClose: Close aborts a paced rebuild at its next
// batch boundary; the outcome surfaces as ErrClosed through RebuildWait
// and Status.LastRebuildError.
func TestQoSRebuildAbortsOnClose(t *testing.T) {
	e := newEngine(t, 9, 8, Options{QoS: &QoSConfig{RebuildRate: 0.2}})
	if err := e.FailDisk(1); err != nil {
		t.Fatal(err)
	}
	if err := e.StartRebuild(1); err != nil {
		t.Fatal(err)
	}
	closed := make(chan error, 1)
	go func() { closed <- e.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close blocked behind paced rebuild")
	}
	if err := e.RebuildWait(); !errors.Is(err, ErrClosed) {
		t.Fatalf("aborted rebuild error = %v, want ErrClosed", err)
	}
	if st := e.Status(); st.LastRebuildError == "" {
		t.Fatal("Status.LastRebuildError empty after aborted rebuild")
	}
}

// TestQoSBackgroundScrub: the scrub loop slices through passes on its own,
// and SetQoS enables it live on an engine built without QoS.
func TestQoSBackgroundScrub(t *testing.T) {
	e := newEngine(t, 9, 2, Options{QoS: &QoSConfig{
		ScrubRate: (1 << 20) / 0.002, // ScrubBatch / ScrubInterval
	}})
	waitPasses := func(want int64) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			if e.Stats().ScrubPasses >= want {
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
		t.Fatalf("scrub passes = %d, want >= %d", e.Stats().ScrubPasses, want)
	}
	waitPasses(2)
	if st := e.Status(); st.ScrubCycles != 2 {
		t.Fatalf("Status.ScrubCycles = %d, want 2", st.ScrubCycles)
	}

	// Live enablement: a zero-QoS engine starts scrubbing after SetQoS.
	e2 := newEngine(t, 9, 2, Options{})
	if e2.Stats().ScrubBatches != 0 {
		t.Fatal("scrubber ran while disabled")
	}
	scrubRate := (1 << 20) / 0.002
	if _, err := e2.SetQoS(QoSUpdate{ScrubRate: &scrubRate}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) && e2.Stats().ScrubPasses == 0 {
		time.Sleep(5 * time.Millisecond)
	}
	if e2.Stats().ScrubPasses == 0 {
		t.Fatal("scrubber did not start after SetQoS")
	}

	// A latent sector error is what the scrubber exists to find: it heals
	// the strip and completes the pass instead of wedging on it.
	e3, faults := newChaosEngine(t, 9, 2, Options{})
	for addr := int64(0); addr < e3.Strips(); addr++ {
		if err := e3.WriteStrip(addr, chaosPattern(testStrip, addr, 0)); err != nil {
			t.Fatal(err)
		}
	}
	raw := make([]byte, testStrip)
	if err := faults[4].Inner().ReadStrip(1, raw); err != nil {
		t.Fatal(err)
	}
	raw[0] ^= 0xFF
	if err := faults[4].Inner().WriteStrip(1, raw); err != nil {
		t.Fatal(err)
	}
	if _, err := e3.SetQoS(QoSUpdate{ScrubRate: &scrubRate}); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) && e3.Stats().ScrubPasses == 0 {
		time.Sleep(5 * time.Millisecond)
	}
	if st := e3.Array().Stats(); e3.Stats().ScrubPasses == 0 || st.ReadRepairs != 1 {
		t.Fatalf("scrubber over a corrupt strip: %d passes, %+v", e3.Stats().ScrubPasses, st)
	}
}

// TestQoSScrubPass: the synchronous pass completes cleanly, honours its
// context, and skips nothing on a healthy array.
func TestQoSScrubPass(t *testing.T) {
	e := newEngine(t, 9, 2, Options{})
	if bad, err := e.ScrubPass(context.Background()); err != nil || bad != 0 {
		t.Fatalf("ScrubPass = %d, %v", bad, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.ScrubPass(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled ScrubPass: want context.Canceled, got %v", err)
	}
}

// TestSetQoSValidation: negative knob values are rejected; valid updates
// land atomically and read back through QoS().
func TestSetQoSValidation(t *testing.T) {
	e := newEngine(t, 9, 2, Options{})
	bad := -1.0
	if _, err := e.SetQoS(QoSUpdate{RebuildRate: &bad}); !errors.Is(err, store.ErrBadGeometry) {
		t.Fatalf("negative rate: want ErrBadGeometry, got %v", err)
	}
	badScrub := -1.0
	if _, err := e.SetQoS(QoSUpdate{ScrubRate: &badScrub}); !errors.Is(err, store.ErrBadGeometry) {
		t.Fatalf("negative scrub rate: want ErrBadGeometry, got %v", err)
	}
	rate, target := 42.0, 3*time.Millisecond
	st, err := e.SetQoS(QoSUpdate{RebuildRate: &rate, LatencyTarget: &target})
	if err != nil {
		t.Fatal(err)
	}
	if st.RebuildRate != 42 || st.LatencyTarget != target {
		t.Fatalf("SetQoS state = %+v", st)
	}
	if got := e.QoS(); got.RebuildRate != 42 {
		t.Fatalf("QoS() did not observe update: %+v", got)
	}
}
