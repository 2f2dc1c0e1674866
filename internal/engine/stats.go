package engine

import (
	"math"
	"sync/atomic"
	"time"
)

// start anchors the monotonic clock used for lock-wait accounting.
var start = time.Now()

func nowNano() int64 { return int64(time.Since(start)) }

// atomicFloat is a float64 stored as uint64 bits.
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) Load() float64   { return math.Float64frombits(f.bits.Load()) }
func (f *atomicFloat) Store(v float64) { f.bits.Store(math.Float64bits(v)) }

// ewma folds sample into the average with weight alpha and returns the
// result: the engine's one estimator update. From zero it ramps, unless
// seed makes the first sample the average (QoS); the monitor ramps so one
// slow op cannot spike a slow-op fraction to 1.0.
func (f *atomicFloat) ewma(sample, alpha float64, seed bool) float64 {
	for {
		old := f.bits.Load()
		cur := math.Float64frombits(old)
		next := cur + alpha*(sample-cur)
		if seed && cur == 0 {
			next = sample
		}
		if f.bits.CompareAndSwap(old, math.Float64bits(next)) {
			return next
		}
	}
}

// counters is the lock-free accumulator behind Stats.
type counters struct {
	reads, writes atomic.Int64
	lockWaitNs    atomic.Int64
	scrubBatches  atomic.Int64
	scrubPasses   atomic.Int64
	scrubBad      atomic.Int64
	fsckRuns      atomic.Int64

	hedgeFired  atomic.Int64
	hedgeWon    atomic.Int64
	hedgeWasted atomic.Int64
	hedgeShed   atomic.Int64

	writesFenced atomic.Int64
	modeChanges  atomic.Int64
}

// Stats is a snapshot of the engine's counters, merged with the wrapped
// array's device-level counters. Served by GET /v1/metrics.
type Stats struct {
	// Reads/Writes count engine-level strip operations completed.
	Reads, Writes int64
	// DegradedReads counts array reads served by reconstruction.
	DegradedReads int64
	// ReadRepairs counts strips healed in place after checksum failures.
	ReadRepairs int64
	// CorruptStrips counts checksum mismatches observed on the read path
	// (latent sector errors surfaced by the durable checksums).
	CorruptStrips int64
	// FsckRuns counts completed Fsck passes.
	FsckRuns int64
	// DeviceReads/DeviceWrites count strip-granularity device accesses.
	DeviceReads, DeviceWrites int64
	// RebuildBatches counts the scheduler grants the rebuild goroutine
	// walked, each up to StartRebuild's batch of layout cycles.
	RebuildBatches int64
	// LockWaitNs is the cumulative time operations spent blocked acquiring
	// engine locks (cycle and striped locks plus deep-degraded escalation),
	// each wait counted from its operation's start.
	LockWaitNs int64
	// RetriesAbsorbed counts transient device faults hidden by the retry
	// policy across all disks.
	RetriesAbsorbed int64
	// Evictions counts disks auto-evicted by the health policy.
	Evictions int64
	// AutoRebuilds counts rebuilds launched by the self-healing loop.
	AutoRebuilds int64
	// SparesAvailable/SparesUsed describe the hot-spare pool.
	SparesAvailable int64
	SparesUsed      int64
	// AdmitShed counts requests rejected by admission control;
	// AdmitQueued counts requests that waited for a slot before
	// admission; AdmitInflight is the current number of admitted
	// operations.
	AdmitShed     int64
	AdmitQueued   int64
	AdmitInflight int64
	// ForegroundEWMAUs is the exponentially weighted moving average of
	// foreground strip-op latency, in microseconds.
	ForegroundEWMAUs float64
	// EffectiveRebuildRate is the pacer's current batches/sec budget
	// (0 when pacing is off); RebuildThrottleNs is the cumulative time
	// the rebuild loop spent blocked in the pacer.
	EffectiveRebuildRate float64
	RebuildThrottleNs    int64
	// ScrubBatches/ScrubPasses/ScrubBadStripes describe background-scrub
	// activity: cycles walked (one per grant), full passes completed, and
	// inconsistent stripes found — counted, not repaired (a strip that
	// fails its checksum on the way is healed, but parity is left for
	// Fsck(true)).
	ScrubBatches    int64
	ScrubPasses     int64
	ScrubBadStripes int64
	// HedgeFired counts reads whose hedge timer expired and launched a
	// reconstruction branch; HedgeWon is the subset the reconstruction
	// won, HedgeWasted the subset the straggling direct read still won.
	// HedgeShed counts hedges refused because admission was saturated.
	HedgeFired  int64
	HedgeWon    int64
	HedgeWasted int64
	HedgeShed   int64
	// WritesFenced counts writes refused with store.ErrReadOnly while the
	// serving mode was read-only or partial-read; ModeChanges counts
	// serving-mode transitions since the engine started.
	WritesFenced int64
	ModeChanges  int64
	// QuarantinedReads counts reads the array served by reconstructing
	// around a quarantined (read-avoided) disk.
	QuarantinedReads int64
	// Quarantines/QuarantineReleases/QuarantineEscalations describe the
	// slow-disk quarantine state machine.
	Quarantines           int64
	QuarantineReleases    int64
	QuarantineEscalations int64
}

// Stats returns a snapshot of the engine and array counters.
func (e *Engine) Stats() Stats {
	io := e.arr.Stats()
	_, absorbed := e.retriesAbsorbed()
	q := e.qos.snapshot()
	return Stats{
		Reads:           e.stats.reads.Load(),
		Writes:          e.stats.writes.Load(),
		DegradedReads:   io.DegradedReads,
		ReadRepairs:     io.ReadRepairs,
		CorruptStrips:   io.CorruptStrips,
		FsckRuns:        e.stats.fsckRuns.Load(),
		DeviceReads:     io.ReadOps,
		DeviceWrites:    io.WriteOps,
		RebuildBatches:  q.Grants.Rebuild,
		LockWaitNs:      e.stats.lockWaitNs.Load(),
		RetriesAbsorbed: absorbed,
		Evictions:       e.mon.evictions.Load(),
		AutoRebuilds:    e.mon.autoRebuilds.Load(),
		SparesAvailable: int64(e.SpareCount()),
		SparesUsed:      e.mon.sparesUsed.Load(),

		AdmitShed:            q.Shed,
		AdmitQueued:          q.Queued,
		AdmitInflight:        q.Inflight,
		ForegroundEWMAUs:     q.ForegroundEWMAUs,
		EffectiveRebuildRate: q.EffectiveRebuildRate,
		RebuildThrottleNs:    e.qos.throttleNs.Load(),
		ScrubBatches:         e.stats.scrubBatches.Load(),
		ScrubPasses:          e.stats.scrubPasses.Load(),
		ScrubBadStripes:      e.stats.scrubBad.Load(),

		HedgeFired:            e.stats.hedgeFired.Load(),
		HedgeWon:              e.stats.hedgeWon.Load(),
		HedgeWasted:           e.stats.hedgeWasted.Load(),
		HedgeShed:             e.stats.hedgeShed.Load(),
		WritesFenced:          e.stats.writesFenced.Load(),
		ModeChanges:           e.stats.modeChanges.Load(),
		QuarantinedReads:      io.AvoidedReads,
		Quarantines:           e.mon.quarantines.Load(),
		QuarantineReleases:    e.mon.releases.Load(),
		QuarantineEscalations: e.mon.escalations.Load(),
	}
}
