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
//   - Adaptive pacing: rebuild batches and scrub slices pass through a
//     token bucket whose rate adapts to a foreground-latency EWMA —
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
	// RebuildRate caps background rebuild at this many batches per second
	// when the array is idle. 0 leaves the rebuild unpaced.
	RebuildRate float64
	// MinRebuildRate is the pacing floor under foreground load (default
	// RebuildRate/10), guaranteeing recovery always progresses.
	MinRebuildRate float64
	// ScrubInterval is the idle pause between background scrub slices.
	// 0 disables the background scrubber.
	ScrubInterval time.Duration
	// ScrubBatch is the number of layout cycles per scrub slice (default 1).
	ScrubBatch int64
	// LatencyTarget is the foreground-latency EWMA target driving
	// adaptation. 0 disables adaptation: rebuild runs at RebuildRate and
	// scrub at ScrubInterval regardless of load.
	LatencyTarget time.Duration
}

// QoSState is the live QoS snapshot served by GET /v1/qos: the current
// knob values plus the derived pacing state.
type QoSState struct {
	AdmitDepth     int           `json:"admit_depth"`
	AdmitWait      time.Duration `json:"admit_wait_ns"`
	RebuildRate    float64       `json:"rebuild_rate"`
	MinRebuildRate float64       `json:"min_rebuild_rate"`
	ScrubInterval  time.Duration `json:"scrub_interval_ns"`
	ScrubBatch     int64         `json:"scrub_batch"`
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
}

// QoSUpdate is a partial, live update of the pacing knobs (POST /v1/qos).
// Nil fields keep their current value. AdmitDepth is fixed at engine
// construction — resizing the queue under load would strand waiters — so
// it has no update field.
type QoSUpdate struct {
	AdmitWait      *time.Duration `json:"admit_wait_ns,omitempty"`
	RebuildRate    *float64       `json:"rebuild_rate,omitempty"`
	MinRebuildRate *float64       `json:"min_rebuild_rate,omitempty"`
	ScrubInterval  *time.Duration `json:"scrub_interval_ns,omitempty"`
	ScrubBatch     *int64         `json:"scrub_batch,omitempty"`
	LatencyTarget  *time.Duration `json:"latency_target_ns,omitempty"`
}

// ewmaAlpha weights new foreground-latency samples; ~15 samples reach
// steady state, fast enough to react within one rebuild batch of load.
const ewmaAlpha = 0.2

// qos is the engine's QoS state. Knobs are atomics so SetQoS tunes a
// running engine without pausing I/O; the token bucket is the only
// mutex-guarded piece, contended only by the two background loops.
type qos struct {
	// Live-tunable knobs.
	admitWait     atomic.Int64 // ns
	rebuildRate   atomicFloat  // batches/sec; <= 0: unpaced
	minRate       atomicFloat  // floor; <= 0: rebuildRate/10
	scrubInterval atomic.Int64 // ns; <= 0: scrubber idle
	scrubBatch    atomic.Int64
	latencyTarget atomic.Int64 // ns; <= 0: no adaptation

	// Admission semaphore; nil when AdmitDepth == 0.
	slots    chan struct{}
	inflight atomic.Int64
	queued   atomic.Int64
	shed     atomic.Int64

	// Foreground-latency EWMA (ns) and op counter for idle detection.
	ewmaNs atomicFloat
	fgOps  atomic.Int64
	// idle: no foreground ops during the last refill interval.
	idle atomic.Bool

	// Token bucket shared by the rebuild and scrub loops.
	mu         sync.Mutex
	tokens     float64
	lastRefill time.Time
	lastFgOps  int64 // fgOps at the previous refill; equal → idle interval

	// throttleNs accumulates time background work spent blocked in the
	// pacer — the direct measure of how much recovery yielded to
	// foreground load.
	throttleNs atomic.Int64

	// scrubKick wakes the scrubber early after a SetQoS (buffered 1).
	scrubKick chan struct{}
}

func newQoS(cfg QoSConfig) *qos {
	q := &qos{scrubKick: make(chan struct{}, 1)}
	if cfg.AdmitDepth > 0 {
		q.slots = make(chan struct{}, cfg.AdmitDepth)
		if cfg.AdmitWait <= 0 {
			cfg.AdmitWait = 50 * time.Millisecond
		}
	}
	q.admitWait.Store(int64(cfg.AdmitWait))
	q.rebuildRate.Store(cfg.RebuildRate)
	q.minRate.Store(cfg.MinRebuildRate)
	q.scrubInterval.Store(int64(cfg.ScrubInterval))
	q.scrubBatch.Store(max(cfg.ScrubBatch, 1))
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
// MinRebuildRate. idle is sampled by the bucket refill; callers outside
// the refill path get the last interval's verdict.
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

// pace blocks until the token bucket grants one background batch, or stop
// closes (returns false). With no rate configured it degrades to a
// cooperative scheduling point: a non-blocking check of stop plus a
// yield, so an unpaced rebuild still cannot monopolise the scheduler or
// outlive Close.
func (q *qos) pace(stop <-chan struct{}) bool {
	for {
		q.mu.Lock()
		now := time.Now()
		ops := q.fgOps.Load()
		idle := ops == q.lastFgOps
		q.idle.Store(idle)
		q.lastFgOps = ops
		rate := q.effectiveRate(idle)
		if rate <= 0 {
			q.tokens = 0
			q.lastRefill = now
			q.mu.Unlock()
			select {
			case <-stop:
				return false
			default:
				runtime.Gosched()
				return true
			}
		}
		// Burst 1: background work never bunches up.
		q.tokens = min(q.tokens+now.Sub(q.lastRefill).Seconds()*rate, 1)
		q.lastRefill = now
		if q.tokens >= 1 {
			q.tokens--
			q.mu.Unlock()
			return true
		}
		wait := time.Duration((1 - q.tokens) / rate * float64(time.Second))
		q.mu.Unlock()
		t := time.NewTimer(wait)
		start := now
		select {
		case <-stop:
			t.Stop()
			return false
		case <-t.C:
			q.throttleNs.Add(int64(time.Since(start)))
		}
	}
}

// scrubPause derives the current pause before the next scrub slice: the
// configured interval, stretched by the load factor (capped at 10×).
// <= 0 means the scrubber is disabled.
func (q *qos) scrubPause() time.Duration {
	iv := time.Duration(q.scrubInterval.Load())
	if iv <= 0 {
		return 0
	}
	return time.Duration(float64(iv) * min(q.load(q.idle.Load()), 10))
}

// snapshot builds the QoSState for Stats and GET /v1/qos.
func (q *qos) snapshot() QoSState {
	return QoSState{
		AdmitDepth:           cap(q.slots),
		AdmitWait:            time.Duration(q.admitWait.Load()),
		RebuildRate:          q.rebuildRate.Load(),
		MinRebuildRate:       q.minRate.Load(),
		ScrubInterval:        time.Duration(q.scrubInterval.Load()),
		ScrubBatch:           q.scrubBatch.Load(),
		LatencyTarget:        time.Duration(q.latencyTarget.Load()),
		EffectiveRebuildRate: q.effectiveRate(q.idle.Load()),
		ForegroundEWMAUs:     q.ewmaNs.Load() / 1e3,
		Inflight:             q.inflight.Load(),
		Queued:               q.queued.Load(),
		Shed:                 q.shed.Load(),
	}
}

// QoS returns the live QoS snapshot.
func (e *Engine) QoS() QoSState { return e.qos.snapshot() }

// SetQoS applies a partial update of the pacing knobs to a running
// engine and returns the resulting state. Negative rates, intervals, or
// batch sizes are rejected with store.ErrBadGeometry (they would encode
// "off" ambiguously — use 0 to disable a mechanism).
func (e *Engine) SetQoS(u QoSUpdate) (QoSState, error) {
	if (u.RebuildRate != nil && *u.RebuildRate < 0) ||
		(u.MinRebuildRate != nil && *u.MinRebuildRate < 0) ||
		(u.ScrubInterval != nil && *u.ScrubInterval < 0) ||
		(u.ScrubBatch != nil && *u.ScrubBatch < 0) ||
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
	if u.ScrubInterval != nil {
		q.scrubInterval.Store(int64(*u.ScrubInterval))
	}
	if u.ScrubBatch != nil {
		q.scrubBatch.Store(max(*u.ScrubBatch, 1))
	}
	if u.LatencyTarget != nil {
		q.latencyTarget.Store(int64(*u.LatencyTarget))
	}
	// Wake the scrubber so a newly set interval takes effect now, not
	// after the previous (possibly long) pause.
	select {
	case q.scrubKick <- struct{}{}:
	default:
	}
	return q.snapshot(), nil
}

// scrubLoop is the background scrubber: every ScrubInterval (stretched
// under load) it verifies ScrubBatch cycles, skipping slices while the
// array is degraded or rebuilding — scrub verifies parity, which a rebuild
// is busy rewriting. Disabled intervals poll lazily so the scrubber can be
// turned on later via SetQoS.
func (e *Engine) scrubLoop() {
	const idlePoll = 500 * time.Millisecond
	for {
		pause := e.qos.scrubPause()
		enabled := pause > 0
		if !enabled {
			pause = idlePoll
		}
		t := time.NewTimer(pause)
		select {
		case <-e.stop:
			t.Stop()
			return
		case <-e.qos.scrubKick:
			t.Stop()
			continue
		case <-t.C:
		}
		if !enabled || e.Rebuilding() || len(e.arr.FailedDisks()) > 0 {
			continue
		}
		// An error means the array degraded mid-slice; the next slice
		// (post-heal) resumes.
		_, _, _ = e.scrubStep()
	}
}

// scrubStep walks one slice of up to ScrubBatch cycles and records it: the
// slice, the inconsistent stripes it found, and the pass it completed.
func (e *Engine) scrubStep() (done bool, bad int, err error) {
	done, err = e.walkCycles(e.qos.scrubBatch.Load(), e.arr.ScrubProgress, func(cycle int64) (bool, error) {
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

// ScrubPass drives an incremental scrub to pass completion, honoring ctx
// between slices, and returns the number of inconsistent stripes found
// from the current cursor to the end of the pass. It is the engine-level
// backend of POST /v1/scrub and oiraidctl scrub -remote.
func (e *Engine) ScrubPass(ctx context.Context) (bad int, err error) {
	if e.closed.Load() {
		return 0, ErrClosed
	}
	for {
		if err := ctx.Err(); err != nil {
			return bad, err
		}
		done, n, err := e.scrubStep()
		bad += n
		if err != nil || done {
			return bad, err
		}
	}
}
