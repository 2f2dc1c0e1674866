// Recovery QoS and overload protection. Three mechanisms share one goal —
// the array stays responsive under pressure and recovery still always
// progresses:
//
//   - Admission control: a counting-semaphore queue in front of every
//     foreground operation. An op that cannot start within the wait
//     budget is shed with store.ErrOverloaded (HTTP 429 + Retry-After)
//     instead of queuing unboundedly.
//   - Deadline propagation: the ...Ctx operation variants observe
//     cancellation and deadlines at admission and between per-strip
//     batches, so a caller's budget bounds engine work end to end.
//   - One background scheduler: every background pass — rebuild, a
//     migration's copy, an operator's fsck or scrub, the background
//     scrub — asks grant for each batch it walks. Grants go in that
//     priority order, and the rates adapt to a foreground-latency EWMA:
//     full rate while the array is idle or meeting its latency target,
//     throttled proportionally under load, never below a floor so
//     recovery cannot starve.
package engine

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/oiraid/oiraid/internal/store"
)

// QoSConfig tunes the engine's quality-of-service layer. The zero value
// disables every mechanism (no admission control, unpaced rebuild, no
// background scrubbing) — the engine behaves exactly as without QoS.
type QoSConfig struct {
	// AdmitDepth bounds concurrent foreground operations (in flight plus
	// queued). 0 disables admission control.
	AdmitDepth int
	// AdmitWait is how long an operation may wait for admission before it
	// is shed with store.ErrOverloaded (default 50ms when AdmitDepth > 0).
	AdmitWait time.Duration
	// RebuildRate caps the grants of rebuild, migration copy and operator
	// passes at this many batches per second when the array is idle. 0
	// leaves them unpaced.
	RebuildRate float64
	// MinRebuildRate is the pacing floor under foreground load (default
	// RebuildRate/10), guaranteeing recovery always progresses.
	MinRebuildRate float64
	// RebuildBatch is the number of layout cycles a rebuild walks per
	// grant when StartRebuild is given none: POST /v1/rebuild and the
	// self-healing loop's rebuilds (default 1).
	RebuildBatch int64
	// ScrubRate is the background scrubber's pace in layout cycles per
	// second when idle. 0 disables the background scrubber.
	ScrubRate float64
	// LatencyTarget is the foreground-latency EWMA target driving
	// adaptation. 0 disables adaptation: rebuild runs at RebuildRate and
	// scrub at ScrubRate regardless of load.
	LatencyTarget time.Duration
}

// QoSState is the live QoS snapshot served by GET /v1/qos: the current
// knob values plus the derived pacing state.
type QoSState struct {
	AdmitDepth     int           `json:"admit_depth"`
	AdmitWait      time.Duration `json:"admit_wait_ns"`
	RebuildRate    float64       `json:"rebuild_rate"`
	MinRebuildRate float64       `json:"min_rebuild_rate"`
	ScrubRate      float64       `json:"scrub_rate"`
	LatencyTarget  time.Duration `json:"latency_target_ns"`
	// EffectiveRebuildRate is the rate the pacer is currently granting,
	// after adaptation (0 when unpaced).
	EffectiveRebuildRate float64 `json:"effective_rebuild_rate"`
	// ForegroundEWMAUs is the foreground-latency EWMA in microseconds.
	ForegroundEWMAUs float64 `json:"foreground_ewma_us"`
	// Inflight is the number of currently admitted foreground operations.
	Inflight int64 `json:"inflight"`
	// Queued counts operations that had to wait for admission.
	Queued int64 `json:"queued_total"`
	// Shed counts operations rejected with store.ErrOverloaded.
	Shed int64 `json:"shed_total"`
	// Grants counts the batches the scheduler has granted, per pass.
	Grants PassGrants `json:"grants"`
}

// PassGrants counts scheduler grants per background pass, in priority
// order.
type PassGrants struct {
	Rebuild  int64 `json:"rebuild"`
	Copy     int64 `json:"copy"`
	Operator int64 `json:"operator"`
	Scrub    int64 `json:"scrub"`
}

// QoSUpdate is a partial, live update of the pacing knobs (POST /v1/qos).
// Nil fields keep their current value. AdmitDepth is fixed at engine
// construction — resizing the queue under load would strand waiters — so
// it has no update field.
type QoSUpdate struct {
	AdmitWait      *time.Duration `json:"admit_wait_ns,omitempty"`
	RebuildRate    *float64       `json:"rebuild_rate,omitempty"`
	MinRebuildRate *float64       `json:"min_rebuild_rate,omitempty"`
	ScrubRate      *float64       `json:"scrub_rate,omitempty"`
	LatencyTarget  *time.Duration `json:"latency_target_ns,omitempty"`
}

// ewmaAlpha weights new foreground-latency samples; ~15 samples reach
// steady state, fast enough to react within one rebuild batch of load.
const ewmaAlpha = 0.2

// pass is a class of background work, in grant priority order: no pass
// is granted a batch while a pass of an earlier class is active.
type pass int

const (
	passRebuild  pass = iota
	passCopy          // a migration's copy (PaceBackground)
	passOperator      // Fsck and ScrubPass
	passScrub         // the background scrubber
	nPasses
)

// qos is the engine's QoS state. Knobs are atomics so SetQoS tunes a
// running engine without pausing I/O; the scheduler is the only
// mutex-guarded piece, contended only by background passes.
type qos struct {
	// Live-tunable knobs.
	admitWait     atomic.Int64 // ns
	rebuildRate   atomicFloat  // batches/sec; <= 0: unpaced
	minRate       atomicFloat  // floor; <= 0: rebuildRate/10
	scrubRate     atomicFloat  // cycles/sec; <= 0: scrubber off
	latencyTarget atomic.Int64 // ns; <= 0: no adaptation
	rebuildBatch  int64

	// Admission semaphore; nil when AdmitDepth == 0.
	slots    chan struct{}
	inflight atomic.Int64
	queued   atomic.Int64
	shed     atomic.Int64

	// Foreground-latency EWMA (ns) and op counter for idle detection.
	ewmaNs atomicFloat
	fgOps  atomic.Int64
	// idle: no foreground ops between the last two grant decisions.
	idle atomic.Bool

	// The scheduler: one mutex, one wake channel, one token bucket of
	// burst 1 (background work never bunches up), each pass refilling it
	// at its own rate. active counts the passes held per class, grants
	// the batches granted.
	mu         sync.Mutex
	active     [nPasses]int
	grants     [nPasses]int64
	tokens     float64
	lastRefill time.Time
	lastFgOps  int64 // fgOps at the previous grant decision; equal → idle
	failed     bool  // a disk is failed: no scrub grants
	// wake is closed and replaced by every signal.
	wake chan struct{}

	// throttleNs accumulates time background work spent waiting for the
	// shared bucket — the direct measure of how much recovery yielded to
	// foreground load.
	throttleNs atomic.Int64
}

func newQoS(cfg QoSConfig) *qos {
	q := &qos{wake: make(chan struct{}), rebuildBatch: max(cfg.RebuildBatch, 1)}
	if cfg.AdmitDepth > 0 {
		q.slots = make(chan struct{}, cfg.AdmitDepth)
		if cfg.AdmitWait <= 0 {
			cfg.AdmitWait = 50 * time.Millisecond
		}
	}
	q.admitWait.Store(int64(cfg.AdmitWait))
	q.rebuildRate.Store(cfg.RebuildRate)
	q.minRate.Store(cfg.MinRebuildRate)
	q.scrubRate.Store(cfg.ScrubRate)
	q.latencyTarget.Store(int64(cfg.LatencyTarget))
	q.lastRefill = time.Now()
	q.idle.Store(true)
	q.tokens = 1 // first background batch starts immediately, then paces
	return q
}

// admit acquires an admission slot, waiting up to the wait budget. The
// returned release must be called when the operation completes. With
// admission disabled it is a no-op. A context that expires while queued
// surfaces the context error (the caller's deadline, not overload).
func (q *qos) admit(ctx context.Context) (release func(), err error) {
	if q.slots == nil {
		return func() {}, nil
	}
	select {
	case q.slots <- struct{}{}:
	default:
		q.queued.Add(1)
		t := time.NewTimer(time.Duration(q.admitWait.Load()))
		select {
		case q.slots <- struct{}{}:
			t.Stop()
		case <-t.C:
			q.shed.Add(1)
			return nil, store.ErrOverloaded
		case <-ctx.Done():
			t.Stop()
			return nil, ctx.Err()
		}
	}
	return q.admitted(), nil
}

// admitted accounts an operation that holds a slot and returns its release.
func (q *qos) admitted() (release func()) {
	q.inflight.Add(1)
	return func() {
		q.inflight.Add(-1)
		<-q.slots
	}
}

// tryAdmit claims an admission slot without waiting. Hedge branches use
// it so hedge amplification stays inside the same budget foreground work
// admits through: a saturated queue refuses the hedge (ok=false) instead
// of queuing it behind the very load that made hedging attractive.
func (q *qos) tryAdmit() (release func(), ok bool) {
	if q.slots == nil {
		return func() {}, true
	}
	select {
	case q.slots <- struct{}{}:
		return q.admitted(), true
	default:
		return nil, false
	}
}

// observe feeds one foreground-operation latency into the EWMA.
func (q *qos) observe(dur time.Duration) {
	q.fgOps.Add(1)
	q.ewmaNs.ewma(float64(dur), ewmaAlpha, true)
}

// load is the one verdict background pacing reads: the foreground EWMA
// over the latency target while the array is busy and over target, else
// exactly 1 (no pressure: idle, no target, or target met).
func (q *qos) load(idle bool) float64 {
	target := float64(q.latencyTarget.Load())
	ewma := q.ewmaNs.Load()
	if idle || target <= 0 || ewma <= target {
		return 1
	}
	return ewma / target
}

// effectiveRate derives the current rebuild pacing rate: the configured
// ceiling without load, divided by the load factor under it, floored at
// MinRebuildRate. idle is sampled by grant; callers outside it get the
// last decision's verdict.
func (q *qos) effectiveRate(idle bool) float64 {
	base := q.rebuildRate.Load()
	if base <= 0 {
		return 0
	}
	l := q.load(idle)
	if l == 1 {
		return base
	}
	floor := q.minRate.Load()
	if floor <= 0 {
		floor = base / 10
	}
	return max(base/l, floor)
}

// hold registers (n = 1) or ends (n = -1) a pass of class p: while any
// pass of p is held, no later class is granted a batch.
func (q *qos) hold(p pass, n int) {
	q.mu.Lock()
	if q.active[p] += n; q.active[p] == 0 {
		q.signalLocked()
	}
	q.mu.Unlock()
}

// setFailed tells the scheduler whether a disk is failed: the scrubber is
// granted nothing then, because the array is the rebuild's.
func (q *qos) setFailed(failed bool) {
	q.mu.Lock()
	if q.failed != failed {
		q.failed = failed
		q.signalLocked()
	}
	q.mu.Unlock()
}

// signalLocked wakes every pass parked in grant to decide again. Caller
// holds mu.
func (q *qos) signalLocked() {
	close(q.wake)
	q.wake = make(chan struct{})
}

// grant blocks until pass p may walk its next batch, or stop closes
// (false). Every signal — SetQoS, a held pass ending, the failure set
// changing — ends every wait, so a raised rate takes effect at once.
func (q *qos) grant(p pass, stop <-chan struct{}) bool {
	for {
		select {
		case <-stop:
			return false
		default:
		}
		q.mu.Lock()
		wait, ok := q.decideLocked(p)
		wake := q.wake
		q.mu.Unlock()
		if ok {
			runtime.Gosched()
			return true
		}
		if wait == 0 {
			select {
			case <-stop:
			case <-wake:
			}
			continue
		}
		start := time.Now()
		t := time.NewTimer(wait)
		select {
		case <-stop:
		case <-wake:
		case <-t.C:
		}
		t.Stop()
		if p != passScrub {
			q.throttleNs.Add(int64(time.Since(start)))
		}
	}
}

// decideLocked grants pass p one batch (ok), or says how long until its
// token is due — 0: until a signal. Nothing is granted while a pass of an
// earlier class is held. Rebuild, copy and operator passes refill at the
// adaptive rate; with no rate set they are unpaced, and a grant is a check
// of stop plus a yield, with no timer. The scrubber refills at ScrubRate
// stretched by the same load factor (capped at 10×), and waits for a
// signal while ScrubRate is 0 or a disk is failed. Caller holds mu.
func (q *qos) decideLocked(p pass) (wait time.Duration, ok bool) {
	for earlier := range p {
		if q.active[earlier] > 0 {
			return 0, false
		}
	}
	now := time.Now()
	ops := q.fgOps.Load()
	idle := ops == q.lastFgOps
	q.idle.Store(idle)
	q.lastFgOps = ops
	rate := q.effectiveRate(idle)
	if p == passScrub {
		rate = q.scrubRate.Load() / min(q.load(idle), 10)
		if q.failed || rate <= 0 {
			return 0, false
		}
	}
	if rate <= 0 {
		q.tokens, q.lastRefill = 0, now
	} else {
		q.tokens = min(q.tokens+now.Sub(q.lastRefill).Seconds()*rate, 1)
		q.lastRefill = now
		if q.tokens < 1 {
			// At least 1ns: a wait of 0 would mean "until a signal".
			return max(time.Duration((1-q.tokens)/rate*float64(time.Second)), 1), false
		}
		q.tokens--
	}
	q.grants[p]++
	return 0, true
}

// snapshot builds the QoSState for Stats and GET /v1/qos.
func (q *qos) snapshot() QoSState {
	q.mu.Lock()
	g := q.grants
	q.mu.Unlock()
	return QoSState{
		AdmitDepth:           cap(q.slots),
		AdmitWait:            time.Duration(q.admitWait.Load()),
		RebuildRate:          q.rebuildRate.Load(),
		MinRebuildRate:       q.minRate.Load(),
		ScrubRate:            q.scrubRate.Load(),
		LatencyTarget:        time.Duration(q.latencyTarget.Load()),
		EffectiveRebuildRate: q.effectiveRate(q.idle.Load()),
		ForegroundEWMAUs:     q.ewmaNs.Load() / 1e3,
		Inflight:             q.inflight.Load(),
		Queued:               q.queued.Load(),
		Shed:                 q.shed.Load(),
		Grants: PassGrants{
			Rebuild:  g[passRebuild],
			Copy:     g[passCopy],
			Operator: g[passOperator],
			Scrub:    g[passScrub],
		},
	}
}

// QoS returns the live QoS snapshot.
func (e *Engine) QoS() QoSState { return e.qos.snapshot() }

// SetQoS applies a partial update of the pacing knobs to a running
// engine and returns the resulting state. Negative rates or durations are
// rejected with store.ErrBadGeometry (they would encode "off" ambiguously
// — use 0 to disable a mechanism). Every pass waiting for a grant decides
// again under the new knobs.
func (e *Engine) SetQoS(u QoSUpdate) (QoSState, error) {
	if (u.RebuildRate != nil && *u.RebuildRate < 0) ||
		(u.MinRebuildRate != nil && *u.MinRebuildRate < 0) ||
		(u.ScrubRate != nil && *u.ScrubRate < 0) ||
		(u.LatencyTarget != nil && *u.LatencyTarget < 0) ||
		(u.AdmitWait != nil && *u.AdmitWait < 0) {
		return e.qos.snapshot(), fmt.Errorf("%w: QoS knobs must be >= 0", store.ErrBadGeometry)
	}
	q := e.qos
	if u.AdmitWait != nil {
		q.admitWait.Store(int64(*u.AdmitWait))
	}
	if u.RebuildRate != nil {
		q.rebuildRate.Store(*u.RebuildRate)
	}
	if u.MinRebuildRate != nil {
		q.minRate.Store(*u.MinRebuildRate)
	}
	if u.ScrubRate != nil {
		q.scrubRate.Store(*u.ScrubRate)
	}
	if u.LatencyTarget != nil {
		q.latencyTarget.Store(int64(*u.LatencyTarget))
	}
	q.mu.Lock()
	q.signalLocked()
	q.mu.Unlock()
	return q.snapshot(), nil
}

// scrubLoop is the background scrubber: one cycle per scrub grant. The
// scheduler holds it back while any other pass is held — scrub verifies
// parity, which a rebuild is busy rewriting — while a disk is failed, and
// while ScrubRate is 0.
func (e *Engine) scrubLoop() {
	for e.qos.grant(passScrub, e.stop) {
		// An error means the array degraded mid-cycle; the next grant
		// (post-heal) resumes.
		_, _, _ = e.scrubStep()
	}
}

// scrubStep walks one cycle of the scrub and records it: the cycle, the
// inconsistent stripes it found, and the pass it completed.
func (e *Engine) scrubStep() (done bool, bad int, err error) {
	done, err = e.walkCycles(1, e.arr.ScrubProgress, func(cycle int64) (bool, error) {
		done, n, err := e.arr.ScrubCycle(cycle)
		bad += n
		return done, err
	})
	if err == nil {
		e.stats.scrubBatches.Add(1)
		e.stats.scrubBad.Add(int64(bad))
		if done {
			e.stats.scrubPasses.Add(1)
		}
	}
	return done, bad, err
}

// ScrubPass drives an incremental scrub to pass completion as an operator
// pass and returns the number of inconsistent stripes found from the
// current cursor to the end of the pass. It is the engine-level backend
// of POST /v1/scrub and oiraidctl scrub -remote.
func (e *Engine) ScrubPass(ctx context.Context) (bad int, err error) {
	err = e.operatorPass(ctx, func() (bool, error) {
		done, n, err := e.scrubStep()
		bad += n
		return done, err
	})
	return bad, err
}

// operatorPass runs step, one cycle per operator grant, until it reports
// the pass done or fails: it waits for a running rebuild or migration
// copy, paces like them, and ends with ctx.Err() once ctx is done.
func (e *Engine) operatorPass(ctx context.Context, step func() (done bool, err error)) error {
	if e.closed.Load() {
		return ErrClosed
	}
	e.qos.hold(passOperator, 1)
	defer e.qos.hold(passOperator, -1)
	for {
		if !e.qos.grant(passOperator, ctx.Done()) {
			return ctx.Err()
		}
		if done, err := step(); err != nil || done {
			return err
		}
	}
}
