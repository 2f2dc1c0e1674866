// Tail tolerance: the two mechanisms that bound read latency under a
// brown-out disk (slow, not failed).
//
//   - Hedged reconstruct-reads: a strip read arms a timer at a multiple
//     of the target disk's streaming p99 latency; if the direct read has
//     not returned by then, a parity reconstruction from the inner RAID5
//     group's survivors races it and the first result wins. The loser is
//     discarded when it eventually returns — a device read cannot be
//     interrupted, but nothing waits on it and the cleanup goroutine
//     reaps it, so hedging never leaks goroutines past Close.
//   - Slow-disk quarantine: a disk whose slow-op fraction crosses the
//     policy threshold stops serving reads — the array reconstructs
//     around it (store.Array read-avoid) — while writes continue to land
//     on it, so parity stays current and leaving quarantine needs no
//     rebuild. A probe loop reads the quarantined disk periodically and
//     releases it after enough consecutive fast probes; a disk that keeps
//     re-entering quarantine escalates to the auto-eviction path.
//
// Both mechanisms exploit the OI-RAID property that reconstruction load
// spreads across all surviving disks (BIBD declustering), so reading
// around one slow disk costs a little parallel work everywhere instead
// of a lot of serial work somewhere.
package engine

import (
	"sync"
	"time"

	"github.com/oiraid/oiraid/internal/store"
)

// hedging reports whether the hedged read path is active.
func (e *Engine) hedging() bool {
	return e.mon.autoMon && e.mon.pol.HedgeMultiple > 0
}

// hedgeDelay derives the hedge timer for a read landing on disk d from
// the disk's streaming p99 estimate, clamped to the policy bounds.
func (e *Engine) hedgeDelay(d int) time.Duration {
	pol := &e.mon.pol
	delay := time.Duration(float64(e.mon.disks[d].p99Ns.Load()) * pol.HedgeMultiple)
	return min(max(delay, pol.HedgeFloor), pol.HedgeCeiling)
}

// hedgeResult is one branch's outcome in the hedge race.
type hedgeResult struct {
	buf   []byte
	err   error
	hedge bool // true for the reconstruction branch
}

// readStripHedged reads data strip addr with a hedge: the direct device
// read starts immediately; if it is still in flight when the adaptive
// timer expires, a reconstruction from the strip's redundancy races it.
//
// Locking: the race runs under the same mode.RLock + striped read locks
// as a plain read (the reconstruction branch may trigger read repair,
// which must stay inside the read protocol). The winner returns
// immediately; lock release is handed to a cleanup goroutine that waits
// for the losing branch, because both branches touch the array. Close
// waits for all such cleanups via hedgeWg.
func (e *Engine) readStripHedged(addr int64) ([]byte, error) {
	d := e.arr.DataStripDisk(addr)
	// With a disk failed the read may already be a reconstruction (and the
	// deep-degraded path can cross stripes); with the primary read-avoided
	// (down or quarantined) the array reconstructs around it anyway.
	// Hedging would only add a second reconstruction of the same strip —
	// skip it.
	if e.state().anyFailed() || e.mon.disks[d].readMark() != store.ReadDirect {
		p := make([]byte, e.stripBytes)
		return p, e.readChunk(addr, 0, p)
	}

	t := nowNano()
	defer func() { e.qos.observe(time.Duration(nowNano() - t)) }()
	e.mode.RLock()
	cycle := addr / int64(e.perCycle)
	pos := int(addr % int64(e.perCycle))
	held := e.lockStripes(make([]int, 0, len(e.readSets[pos])), cycle, e.readSets[pos], false, t)

	resCh := make(chan hedgeResult, 2) // buffered: the loser never blocks
	var branches sync.WaitGroup
	branches.Add(1)
	go func() {
		defer branches.Done()
		p := make([]byte, e.stripBytes)
		_, err := e.arr.ReadAt(p, addr*int64(e.stripBytes))
		resCh <- hedgeResult{buf: p, err: err}
	}()

	launched := 1
	timer := time.NewTimer(e.hedgeDelay(d))
	var res hedgeResult
	select {
	case res = <-resCh:
		timer.Stop()
	case <-timer.C:
		// Hedge branches claim a QoS admission slot non-blockingly so
		// hedge amplification is bounded by the same queue foreground
		// work admits through; a saturated queue sheds the hedge, not
		// the read.
		if release, ok := e.qos.tryAdmit(); ok {
			e.stats.hedgeFired.Add(1)
			launched = 2
			branches.Add(1)
			go func() {
				defer branches.Done()
				defer release()
				p := make([]byte, e.stripBytes)
				err := e.arr.ReconstructDataStrip(addr, p)
				resCh <- hedgeResult{buf: p, err: err, hedge: true}
			}()
		} else {
			e.stats.hedgeShed.Add(1)
		}
		res = <-resCh
	}
	// An errored winner concedes to a pending branch that might succeed:
	// a hedge exists precisely so one bad path does not decide the read.
	if res.err != nil && launched == 2 {
		if second := <-resCh; second.err == nil {
			res = second
		}
	}
	if launched == 2 {
		if res.hedge {
			e.stats.hedgeWon.Add(1)
		} else {
			e.stats.hedgeWasted.Add(1)
		}
	}
	if res.err == nil {
		e.stats.reads.Add(1)
	}

	// Hand lock release to the reaper: the losing branch still holds
	// array state, so the read protocol stays held until it drains.
	e.hedgeWg.Add(1)
	go func() {
		branches.Wait()
		e.unlockStripes(held, cycle, false)
		e.mode.RUnlock()
		e.hedgeWg.Done()
	}()
	return res.buf, res.err
}

// QuarantineDisk manually quarantines disk d: reads reconstruct around
// it while writes continue to land on it. With Options.Health set the
// probe loop will release it once it answers fast again; otherwise it
// stays quarantined until ReleaseDisk.
func (e *Engine) QuarantineDisk(d int) error {
	err := e.checkDisk(d)
	if err == nil && !e.mon.disks[d].quarantined.Swap(true) {
		e.enterQuarantine(d)
	}
	return err
}

// ReleaseDisk lifts a quarantine: disk d serves reads again (unless its
// path is down) and its slow-op history resets. Releasing a disk that is
// not quarantined is a no-op.
func (e *Engine) ReleaseDisk(d int) error {
	err := e.checkDisk(d)
	if err == nil && e.mon.disks[d].quarantined.Load() {
		e.release(d)
	}
	return err
}

// enterQuarantine is the one quarantine entry, for the monitor's trigger
// and the operator alike: the caller has set the quarantined flag; this
// counts the cycle, restarts the probe streak and read-avoids the disk.
func (e *Engine) enterQuarantine(d int) {
	c := &e.mon.disks[d]
	c.quarantines.Add(1)
	c.fastProbes.Store(0)
	e.mon.quarantines.Add(1)
	e.syncAvoid(d)
}

// release lifts the slowness verdict and resets the disk's slow history:
// the slow-op fraction starts fresh, and the ops baseline (quarBase)
// makes the quarantine trigger wait for QuarantineMinOps new samples
// before trusting the fresh fraction. A down disk stays read-avoided.
func (e *Engine) release(d int) {
	c := &e.mon.disks[d]
	c.slowFrac.Store(0)
	c.quarBase.Store(c.ops.Load())
	c.fastProbes.Store(0)
	c.quarantined.Store(false)
	e.syncAvoid(d)
	e.mon.releases.Add(1)
}

// tailLoop is the quarantine manager goroutine (running iff
// Options.Health is set): it consumes quarantine triggers from the
// monitor and periodically probes quarantined disks for recovery.
func (e *Engine) tailLoop() {
	ticker := time.NewTicker(e.mon.pol.QuarantineProbe)
	defer ticker.Stop()
	for {
		select {
		case <-e.stop:
			return
		case d := <-e.mon.quarCh:
			e.quarantine(d)
		case <-ticker.C:
			e.probeQuarantined()
		}
	}
}

// quarantine handles one monitor trigger for disk d: enter quarantine,
// or — once the device has already been through QuarantineEscalate
// cycles — escalate to the eviction path (fail → spare → rebuild), the
// judgment that a disk which keeps browning out is on its way to dying.
func (e *Engine) quarantine(d int) {
	c := &e.mon.disks[d]
	switch {
	case c.evicted.Load():
		c.quarantined.Store(false)
	case c.quarantines.Load() >= e.mon.pol.QuarantineEscalate:
		c.quarantined.Store(false)
		e.mon.escalations.Add(1)
		e.mon.evict(d)
	default:
		e.enterQuarantine(d)
	}
}

// probeQuarantined sends one recovery probe read to every quarantined
// disk whose path is up (a down path is the node client's to probe). The
// probe goes through the disk's normal retry/probe stack, so its latency
// also feeds the monitor's estimators. Enough consecutive fast probes
// release the disk.
func (e *Engine) probeQuarantined() {
	for d := range e.mon.disks {
		c := &e.mon.disks[d]
		if !c.quarantined.Load() || c.evicted.Load() || c.down.Load() {
			continue
		}
		strips := e.arr.Cycles() * int64(e.an.SlotsPerDisk())
		idx := e.probeCursor.Add(1) % strips
		buf := make([]byte, e.stripBytes)
		t := time.Now()
		err := e.arr.ProbeDiskStrip(d, idx, buf)
		dur := time.Since(t)
		if err == nil && (e.mon.pol.SlowOp <= 0 || dur < e.mon.pol.SlowOp) {
			if c.fastProbes.Add(1) >= e.mon.pol.QuarantineProbeOK {
				e.release(d)
			}
		} else {
			c.fastProbes.Store(0)
		}
	}
}
