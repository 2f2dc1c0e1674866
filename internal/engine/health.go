// Health monitoring and self-healing: the monitor is the array's observer
// (store.Array.SetObserver), so every device op of every disk reaches it
// with its latency and outcome, which it classifies; a threshold policy
// auto-evicts a persistently failing disk (FailDisk), adopts a device from
// the hot-spare pool, and drives a background rebuild — no operator in the
// loop. The monitor is always on (its cost is two clock reads and a few
// atomics per device op); eviction and auto-rebuild activate only when
// Options.Health is set.
package engine

import (
	"errors"
	"slices"
	"sync/atomic"
	"time"

	"github.com/oiraid/oiraid/internal/store"
)

// HealthPolicy tunes auto-eviction, auto-rebuild, and the tail-tolerance
// layer (hedged reads and slow-disk quarantine).
type HealthPolicy struct {
	// EvictAfter is the count of hard device errors (permanent errors, or
	// transient errors that survived the retry policy) at which the disk
	// is auto-evicted (default 3).
	EvictAfter int64 `json:"evict_after"`
	// SlowOp, when positive, counts operations at least this slow toward
	// the per-disk slow-op counter. It is also the slowness criterion the
	// quarantine state machine classifies by, so quarantine needs it set.
	SlowOp time.Duration `json:"slow_op_ns"`

	// HedgeMultiple, when positive, enables hedged reads: every strip
	// read arms a timer at HedgeMultiple × the target disk's streaming
	// p99 latency estimate (clamped to [HedgeFloor, HedgeCeiling]) and,
	// on expiry, races a parity reconstruction from the survivors against
	// the straggling direct read — first result wins.
	HedgeMultiple float64 `json:"hedge_multiple"`
	// HedgeFloor bounds the hedge timer below (default 1ms) so a cold or
	// very fast latency estimate cannot hedge every read.
	HedgeFloor time.Duration `json:"hedge_floor_ns"`
	// HedgeCeiling bounds the hedge timer above (default 50ms) so a disk
	// whose own p99 has degraded still gets hedged against.
	HedgeCeiling time.Duration `json:"hedge_ceiling_ns"`

	// QuarantineSlowFrac, when positive, enables slow-disk quarantine: a
	// disk whose slow-op fraction EWMA crosses the threshold (after at
	// least QuarantineMinOps operations) stops serving reads — they are
	// reconstructed from redundancy instead — while writes continue to
	// land on it, so leaving quarantine needs no rebuild.
	QuarantineSlowFrac float64 `json:"quarantine_slow_frac"`
	// QuarantineMinOps is the operation count before the slow fraction is
	// trusted (default 8).
	QuarantineMinOps int64 `json:"quarantine_min_ops"`
	// QuarantineProbe is the interval between recovery probe reads of a
	// quarantined disk (default 250ms).
	QuarantineProbe time.Duration `json:"quarantine_probe_ns"`
	// QuarantineProbeOK is the count of consecutive fast probe reads that
	// releases a quarantined disk back to service (default 3).
	QuarantineProbeOK int64 `json:"quarantine_probe_ok"`
	// QuarantineEscalate is the number of completed quarantine cycles
	// after which the next quarantine trigger escalates to auto-eviction
	// (fail → spare → rebuild) instead of another quarantine (default 3;
	// 0 keeps the default).
	QuarantineEscalate int64 `json:"quarantine_escalate"`
}

func (p HealthPolicy) withDefaults() HealthPolicy {
	if p.EvictAfter <= 0 {
		p.EvictAfter = 3
	}
	if p.HedgeFloor <= 0 {
		p.HedgeFloor = time.Millisecond
	}
	if p.HedgeCeiling < p.HedgeFloor {
		p.HedgeCeiling = max(50*time.Millisecond, p.HedgeFloor)
	}
	if p.QuarantineMinOps <= 0 {
		p.QuarantineMinOps = 8
	}
	if p.QuarantineProbe <= 0 {
		p.QuarantineProbe = 250 * time.Millisecond
	}
	if p.QuarantineProbeOK <= 0 {
		p.QuarantineProbeOK = 3
	}
	if p.QuarantineEscalate <= 0 {
		p.QuarantineEscalate = 3
	}
	return p
}

// DiskHealth is one disk's health snapshot.
type DiskHealth struct {
	Disk int `json:"disk"`
	// State is, by precedence, "evicted" (auto-evicted, awaiting heal),
	// "failed" (awaiting or undergoing rebuild), "down" (its path, e.g. its
	// storage node, is unreachable), "quarantined" (too slow to serve
	// reads; writes still land on it), or "healthy".
	State string `json:"state"`
	// Ops counts device operations (reads + writes) admitted to the disk.
	Ops int64 `json:"ops"`
	// Errors counts hard errors: permanent errors plus transient errors
	// that exhausted the retry policy.
	Errors int64 `json:"errors"`
	// TransientErrors counts the subset of Errors that were transient.
	TransientErrors int64 `json:"transient_errors"`
	// UnreachableErrors counts operations that failed because the path to
	// the device (a storage node, a network link) was down. They do not
	// count toward Errors or eviction — the device is presumed healthy.
	UnreachableErrors int64 `json:"unreachable_errors"`
	// RetriesAbsorbed counts transient faults the retry policy hid from
	// the array (zero when no retry policy is configured).
	RetriesAbsorbed int64 `json:"retries_absorbed"`
	// CorruptReads counts checksum failures (healed by read repair).
	CorruptReads int64 `json:"corrupt_reads"`
	// SlowOps counts operations slower than the policy's SlowOp bound.
	SlowOps int64 `json:"slow_ops"`
	// MeanLatencyUs is the mean device-op latency in microseconds.
	MeanLatencyUs float64 `json:"mean_latency_us"`
	// EWMALatencyUs is the exponentially weighted latency average in
	// microseconds (α=1/8), more reactive than the lifetime mean.
	EWMALatencyUs float64 `json:"ewma_latency_us"`
	// P99LatencyUs is the streaming p99 latency estimate in microseconds
	// (the quantity hedge timers are armed from).
	P99LatencyUs float64 `json:"p99_latency_us"`
	// Quarantines counts quarantine cycles entered on the current device.
	Quarantines int64 `json:"quarantines"`
}

// HealthReport is the full health snapshot served by GET /v1/health.
type HealthReport struct {
	Disks []DiskHealth `json:"disks"`
	// Spares is the number of hot spares available in the pool.
	Spares int `json:"spares"`
	// SparesUsed counts spares adopted by rebuilds.
	SparesUsed int64 `json:"spares_used"`
	// Evictions counts disks auto-evicted by the health policy.
	Evictions int64 `json:"evictions"`
	// AutoRebuilds counts rebuilds launched by the healer.
	AutoRebuilds int64 `json:"auto_rebuilds"`
	// Quarantines counts slow-disk quarantine entries across all disks.
	Quarantines int64 `json:"quarantines"`
	// QuarantineReleases counts quarantines lifted by recovery probes.
	QuarantineReleases int64 `json:"quarantine_releases"`
	// QuarantineEscalations counts quarantines escalated to eviction.
	QuarantineEscalations int64 `json:"quarantine_escalations"`
	// AutoHeal reports whether the eviction/auto-rebuild policy is active.
	AutoHeal bool `json:"auto_heal"`
	// Policy echoes the active policy when AutoHeal is true.
	Policy *HealthPolicy `json:"policy,omitempty"`
}

// diskCounters is one disk's lock-free accumulator. No op in flight against
// an evicted device can count against the fresh one that replaces it: the
// array observes an op before its hold on the array lock ends, and attaches
// a device only under the exclusive lock (store.Array.SetObserver).
type diskCounters struct {
	ops, errors, transient, corrupt, slow atomic.Int64
	unreachable                           atomic.Int64
	latencyNs                             atomic.Int64
	evicted                               atomic.Bool

	// Tail-tolerance estimators, updated by CAS so observe stays lock-free.
	// latEwma is a latency EWMA (ns, α=1/8); p99Ns is a streaming
	// high-quantile estimate: it steps up 1/8 of the gap on samples above
	// it and decays 1/512 of the gap on samples below, so it settles near
	// the envelope of the latency distribution — cheap enough to run per
	// op, accurate enough to arm a hedge timer.
	latEwma  atomicFloat
	p99Ns    atomic.Int64
	slowFrac atomicFloat // slow-op fraction EWMA

	down atomic.Bool // path unreachable (SetDiskDown); written under e.mode

	quarantined atomic.Bool
	quarantines atomic.Int64 // completed/entered quarantine cycles on this device
	fastProbes  atomic.Int64 // consecutive fast recovery probes while quarantined
	quarBase    atomic.Int64 // ops count at the last release; re-arms MinOps
}

// observeLatency feeds one op latency into the disk's EWMA and streaming
// p99 estimators.
func (c *diskCounters) observeLatency(dur time.Duration) {
	ns := int64(dur)
	c.latEwma.ewma(float64(ns), 1.0/8, false)
	for {
		cur := c.p99Ns.Load()
		next := cur - (cur-ns)/512
		if ns > cur {
			next = cur + (ns-cur)/8 + 1
		}
		if c.p99Ns.CompareAndSwap(cur, next) {
			return
		}
	}
}

// monitor aggregates per-disk health and feeds the healer.
type monitor struct {
	pol     HealthPolicy
	autoMon bool // eviction enabled (Options.Health set)
	disks   []diskCounters

	evictions    atomic.Int64
	sparesUsed   atomic.Int64
	autoRebuilds atomic.Int64

	quarantines atomic.Int64 // quarantine entries across all disks
	releases    atomic.Int64 // quarantines released by recovery probes
	escalations atomic.Int64 // quarantines escalated to eviction

	// evictCh carries at most one pending eviction per disk (the evicted
	// flag gates re-sends), so a buffer of len(disks) never blocks.
	evictCh chan int
	// quarCh carries quarantine triggers to the engine's tail loop; the
	// quarantined flag gates re-sends the same way evicted gates evictCh.
	quarCh chan int
}

func newMonitor(disks int, pol HealthPolicy, auto bool) *monitor {
	return &monitor{
		pol:     pol.withDefaults(),
		autoMon: auto,
		disks:   make([]diskCounters, disks),
		evictCh: make(chan int, disks),
		quarCh:  make(chan int, disks),
	}
}

// observe classifies one device-op outcome; it is the array's observer. An
// op that travelled in a batch is charged the batch's duration: how long its
// caller waited. Caller bugs (range, buffer size) and shutdown artifacts do
// not count against the disk.
func (m *monitor) observe(disk int, dur time.Duration, err error) {
	c := &m.disks[disk]
	ops := c.ops.Add(1)
	c.latencyNs.Add(int64(dur))
	c.observeLatency(dur)
	if m.pol.SlowOp > 0 {
		sample := 0.0
		if dur >= m.pol.SlowOp {
			c.slow.Add(1)
			sample = 1
		}
		frac := c.slowFrac.ewma(sample, 1.0/8, false)
		if m.autoMon && m.pol.QuarantineSlowFrac > 0 &&
			frac >= m.pol.QuarantineSlowFrac &&
			ops >= c.quarBase.Load()+m.pol.QuarantineMinOps &&
			!c.evicted.Load() && !c.quarantined.Swap(true) {
			m.quarCh <- disk
		}
	}
	if err == nil {
		return
	}
	switch {
	case errors.Is(err, store.ErrClosed),
		errors.Is(err, store.ErrStripOutOfRange),
		errors.Is(err, store.ErrShortBuffer):
		return
	case errors.Is(err, store.ErrStaleEpoch):
		// The write was fenced off by a newer coordinator epoch: this
		// coordinator has been deposed. The disk is healthy — evicting it
		// here would have the dying leader shred its (correct) view of
		// the array on the way out.
		return
	case errors.Is(err, store.ErrCorrupt):
		// Latent sector error: the array's read repair heals it; scrub
		// and the corrupt counter give it visibility.
		c.corrupt.Add(1)
		return
	case errors.Is(err, store.ErrUnreachable):
		// The path to the device is down, not the device itself. Count it
		// for visibility, but never toward eviction: evicting (and then
		// rebuilding) a healthy disk because of a network blip would turn
		// a transient partition into a multi-hour heal. The network layer
		// escalates to ErrPermanent itself once its grace window elapses,
		// and that error lands in the eviction branch below like any other.
		c.unreachable.Add(1)
		return
	case store.IsTransient(err):
		c.transient.Add(1)
	}
	// A permanent error on a down path is the path's loss itself (the
	// network layer turns unreachable into permanent once the node's grace
	// window elapses): there is nothing left to count toward.
	lost := c.down.Load() && errors.Is(err, store.ErrPermanent)
	if (c.errors.Add(1) >= m.pol.EvictAfter || lost) && m.autoMon {
		m.evict(disk)
	}
}

// readMark is how the array's reads treat the disk: never read while its
// path is down, read last while it is quarantined as too slow.
func (c *diskCounters) readMark() store.ReadAvoid {
	switch {
	case c.down.Load():
		return store.ReadDown
	case c.quarantined.Load():
		return store.ReadSlow
	}
	return store.ReadDirect
}

// evict hands disk d to the healer and counts the eviction, once per
// device (the evicted flag gates the send).
func (m *monitor) evict(disk int) {
	if !m.disks[disk].evicted.Swap(true) {
		m.evictions.Add(1)
		m.evictCh <- disk
	}
}

// adopt clears a disk's error state when a replacement device is attached:
// the fresh device starts with a clean slate, and may be evicted again later.
func (m *monitor) adopt(disk int) {
	c := &m.disks[disk]
	c.errors.Store(0)
	c.transient.Store(0)
	c.unreachable.Store(0)
	c.evicted.Store(false)
	// The fresh device starts with clean tail state too: latency history,
	// slow fraction, and the quarantine escalation count all belonged to
	// the hardware that was just replaced.
	c.latEwma.Store(0)
	c.p99Ns.Store(0)
	c.slowFrac.Store(0)
	c.quarantined.Store(false)
	c.quarantines.Store(0)
	c.fastProbes.Store(0)
	c.quarBase.Store(0)
}

// SpareProvider materialises a hot-spare device for the given failed
// disk. Providers registered with AddSpare are consumed in FIFO order.
type SpareProvider func(disk int) (store.Device, error)

// AddSpare registers a hot spare with the pool. The provider is invoked
// at adoption time with the disk id being replaced, so file-backed
// deployments can place the spare image where a restart expects it.
func (e *Engine) AddSpare(p SpareProvider) {
	e.spareMu.Lock()
	defer e.spareMu.Unlock()
	e.spares = append(e.spares, p)
}

// AddSpareDevice registers a concrete device as a hot spare. The device
// must match the array geometry when adopted.
func (e *Engine) AddSpareDevice(dev store.Device) {
	e.AddSpare(func(int) (store.Device, error) { return dev, nil })
}

// AddSpares registers n hot spares backed by the engine's replacement
// provisioner (Options.Replace, or the in-memory default) — the form used
// by POST /v1/spares, where the caller cannot hand over a device.
func (e *Engine) AddSpares(n int) {
	for i := 0; i < n; i++ {
		e.AddSpare(SpareProvider(e.replace))
	}
}

// SpareCount returns the number of unconsumed spares in the pool.
func (e *Engine) SpareCount() int {
	e.spareMu.Lock()
	defer e.spareMu.Unlock()
	return len(e.spares)
}

// takeSpare pops the oldest spare provider, if any.
func (e *Engine) takeSpare() (SpareProvider, bool) {
	e.spareMu.Lock()
	defer e.spareMu.Unlock()
	if len(e.spares) == 0 {
		return nil, false
	}
	p := e.spares[0]
	e.spares = e.spares[1:]
	return p, true
}

// wrapDevice layers the configured retry policy, if any, around a backing
// device for disk d. Every device the engine attaches — the originals, pool
// spares, auto-provisioned replacements, migration destinations — goes
// through it; the monitor needs no wrapper, it observes every disk's ops
// through the array.
func (e *Engine) wrapDevice(d int, dev store.Device) store.Device {
	if e.retryPol == nil {
		return dev
	}
	rd := store.NewRetryDevice(dev, *e.retryPol)
	e.retryMu.Lock()
	e.retryDevs[d] = rd
	e.retryMu.Unlock()
	return rd
}

// Health returns the engine's health snapshot.
func (e *Engine) Health() HealthReport {
	failed := e.arr.FailedDisks()
	rep := HealthReport{
		Disks:        make([]DiskHealth, len(e.mon.disks)),
		Spares:       e.SpareCount(),
		SparesUsed:   e.mon.sparesUsed.Load(),
		Evictions:    e.mon.evictions.Load(),
		AutoRebuilds: e.mon.autoRebuilds.Load(),
		AutoHeal:     e.mon.autoMon,

		Quarantines:           e.mon.quarantines.Load(),
		QuarantineReleases:    e.mon.releases.Load(),
		QuarantineEscalations: e.mon.escalations.Load(),
	}
	if e.mon.autoMon {
		pol := e.mon.pol
		rep.Policy = &pol
	}
	retries, _ := e.retriesAbsorbed()
	for d := range rep.Disks {
		c := &e.mon.disks[d]
		h := DiskHealth{
			Disk:              d,
			State:             "healthy",
			Ops:               c.ops.Load(),
			Errors:            c.errors.Load(),
			TransientErrors:   c.transient.Load(),
			UnreachableErrors: c.unreachable.Load(),
			RetriesAbsorbed:   retries[d],
			CorruptReads:      c.corrupt.Load(),
			SlowOps:           c.slow.Load(),
			Quarantines:       c.quarantines.Load(),
		}
		if h.Ops > 0 {
			h.MeanLatencyUs = float64(c.latencyNs.Load()) / float64(h.Ops) / 1e3
		}
		h.EWMALatencyUs = c.latEwma.Load() / 1e3
		h.P99LatencyUs = float64(c.p99Ns.Load()) / 1e3
		switch {
		case slices.Contains(failed, d) && c.evicted.Load():
			h.State = "evicted"
		case slices.Contains(failed, d):
			h.State = "failed"
		case c.down.Load():
			h.State = "down"
		case c.quarantined.Load():
			h.State = "quarantined"
		}
		rep.Disks[d] = h
	}
	return rep
}

// retriesAbsorbed returns, per disk and in total, the transient faults
// the retry policy hid from the array (all zero without a policy).
func (e *Engine) retriesAbsorbed() (perDisk []int64, total int64) {
	e.retryMu.Lock()
	defer e.retryMu.Unlock()
	perDisk = make([]int64, len(e.retryDevs))
	for d, rd := range e.retryDevs {
		if rd != nil {
			perDisk[d] = rd.Stats().Absorbed
			total += perDisk[d]
		}
	}
	return perDisk, total
}

// healLoop is the self-healing goroutine: it consumes eviction requests
// from the monitor, fails the disk, adopts a spare (or auto-provisions a
// replacement), and drives a background rebuild to completion — then
// closes the write hole left by any aborted in-flight writes.
func (e *Engine) healLoop() {
	for {
		select {
		case <-e.stop:
			return
		case d := <-e.mon.evictCh:
			e.heal(d)
		}
	}
}

// heal runs one evict→adopt→rebuild→resync pass. It retries a few times
// with backoff so a transiently wedged rebuild start does not strand the
// array degraded, then gives up and leaves the state visible in Health.
func (e *Engine) heal(d int) {
	if err := e.FailDisk(d); err != nil {
		return // engine closing
	}
	// Beyond tolerance a rebuild cannot complete: FailDisk already demoted
	// the serving mode, so leave the array fenced rather than burning
	// rebuild attempts that are guaranteed to fail. A later SetDiskDown
	// promotion or replacement re-kicks the rebuild.
	if !e.an.Recoverable(e.arr.FailedDisks()) {
		return
	}
	for attempt := 0; attempt < 5 && !e.closed.Load(); attempt++ {
		if err := e.autoRebuild(); err != nil && !errors.Is(err, ErrRebuildRunning) {
			// Provisioning failed (no spare and Replace errored); back off
			// and retry rather than spinning.
			time.Sleep(time.Duration(attempt+1) * 10 * time.Millisecond)
			continue
		}
		e.RebuildWait()
		if len(e.arr.FailedDisks()) == 0 {
			// Healed: the evicted disks run on fresh devices (adopt cleared
			// their error state at attach time). Replay the redo records of
			// in-flight writes that device errors aborted; a record whose
			// replay fails stays pending for the next heal, rebuild step
			// or restart.
			_, _ = e.arr.RecoverIntent()
			return
		}
	}
}
