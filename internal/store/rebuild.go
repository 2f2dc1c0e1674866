package store

import (
	"errors"
	"fmt"
	"slices"

	"github.com/oiraid/oiraid/internal/core"
	"github.com/oiraid/oiraid/internal/layout"
)

// ReplaceDisk attaches a fresh device onto which failed disk d will be
// rebuilt. The device must match the array geometry. On an array with a
// durable metadata plane the adoption is committed — with a fresh disk
// identity — before it is acknowledged; the disk stays in the failed set
// until its rebuild completes.
func (a *Array) ReplaceDisk(d int, dev Device) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if d < 0 || d >= len(a.devs) {
		return fmt.Errorf("%w: %d", ErrNoSuchDisk, d)
	}
	if !a.failed[d] {
		return fmt.Errorf("%w: disk %d", ErrNotFailed, d)
	}
	if dev.StripBytes() != a.stripBytes || dev.Strips() < a.cycles*int64(a.an.SlotsPerDisk()) {
		return fmt.Errorf("%w: replacement for disk %d", ErrBadGeometry, d)
	}
	a.replaced[d] = dev
	a.noteDevices()
	// A fresh device is not the disk that earned the quarantine: clear
	// any read-avoid mark left from before the eviction so reads use the
	// replacement directly once its cycles rebuild.
	if a.readAvoid != nil {
		a.readAvoid[d] = ReadDirect
	}
	if a.meta != nil {
		return a.meta.commitAdopt(d, a.failedListLocked())
	}
	return nil
}

// NeedsReplacement lists the failed disks that have no replacement device
// attached yet — the set a rebuild driver must provision before
// RebuildCycle can make progress.
func (a *Array) NeedsReplacement() []int {
	a.mu.RLock()
	defer a.mu.RUnlock()
	var out []int
	for d, f := range a.failed {
		if f && a.replaced[d] == nil {
			out = append(out, d)
		}
	}
	return out
}

// Rebuild reconstructs every failed disk onto its replacement device,
// following the multi-phase plan from the analyzer (inner-layer repairs
// first, outer-layer repairs where groups lost several disks). On success
// the replacements become live and the failure flags clear.
//
// Rebuild is RebuildCycle from the cursor on; use RebuildCycle directly
// for online rebuilds that interleave with foreground I/O.
func (a *Array) Rebuild() (err error) {
	for done := false; !done && err == nil; {
		done, err = a.RebuildCycle(a.rebuiltCycles.Load())
	}
	return err
}

// RebuildProgress reports the rebuild cursor and the total in layout cycles.
func (a *Array) RebuildProgress() (rebuilt, total int64) {
	return a.rebuiltCycles.Load(), a.cycles
}

// RebuildCycle rebuilds the cycle at the cursor onto the replacement
// devices, which serve it from then on, and advances the cursor; any other
// cycle is refused. It holds the array lock shared and
// the caller keeps writers off the cycle, so reads and every other cycle's
// I/O go on beside it. After the last cycle the array lock is taken
// exclusively for the flip: the replacements become live and done is true.
func (a *Array) RebuildCycle(cycle int64) (done bool, err error) {
	last, err := a.rebuildCycleShared(cycle)
	if err != nil || !last {
		return false, err
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	failed := a.failedListLocked()
	if a.rebuiltCycles.Load() < a.cycles {
		// Healthy; or a disk failed since the last cycle was rebuilt, and
		// the rebuild starts over under the new plan.
		return len(failed) == 0, nil
	}
	for _, d := range failed {
		a.devs[d] = a.replaced[d]
		a.replaced[d] = nil
		a.failed[d] = false
	}
	a.noteDevices()
	a.rebuiltCycles.Store(0)
	if a.meta != nil {
		// Completion is acknowledged only once the cleared failed set is
		// on media; the transition fsync also flushes the checksums of
		// every strip the rebuild wrote. After a crash short of this
		// point the disks are still failed on media and the next mount
		// rebuilds them again from cycle 0, which is safe (writes served
		// from rebuilt cycles live on in parity on the live disks).
		if err := a.meta.commitRebuildDone(failed, a.failedListLocked()); err != nil {
			return false, err
		}
	}
	return true, nil
}

// rebuildCycleShared is RebuildCycle up to the flip; last: nothing is left.
func (a *Array) rebuildCycleShared(cycle int64) (last bool, err error) {
	a.mu.RLock()
	defer a.mu.RUnlock()
	failed := a.failedListLocked()
	if len(failed) == 0 {
		return true, nil
	}
	for _, d := range failed {
		if a.replaced[d] == nil {
			return false, fmt.Errorf("%w: disk %d", ErrNoReplacement, d)
		}
	}
	if cur := a.rebuiltCycles.Load(); cycle != cur || cycle >= a.cycles {
		return false, fmt.Errorf("store: rebuild of cycle %d refused: the cursor is at %d", cycle, cur)
	}
	// Close the write hole under the same hold as the decode: a commit
	// that failed partway (a node down mid-write) leaves some strips new and
	// some old, and decoding through such a stripe would fabricate content.
	// Replaying the cycle's pending redo records, with no writer on it, makes
	// its stripes consistent first. A replay write that fails (its node
	// still unreachable) aborts with ErrIntentReplay and the rebuild loop
	// retries; once the node is evicted its strips are skipped.
	if _, err := a.replayClosures(cycle); err != nil {
		return false, err
	}
	plan := a.recoveryPlan(ReadDirect)
	if !plan.Complete {
		return false, fmt.Errorf("%w: rebuild impossible: %s", ErrTooManyFailures, a.an.Availability(failed).Describe())
	}
	if err := a.rebuildCycle(cycle, plan); err != nil {
		return false, err
	}
	a.rebuiltCycles.Store(cycle + 1)
	return cycle+1 == a.cycles, nil
}

// rebuildCycle executes the plan's tasks for one cycle, a window of
// same-phase tasks at a time: gather the window's sources as one batch,
// decode each task, scatter the rebuilt strips to the replacements as one
// batch. A phase's tasks are independent of one another and read only what
// survived or what an earlier phase rebuilt, and Tasks is in phase order — so
// by the time a phase gathers, everything it reads from a replacement has
// been written there.
func (a *Array) rebuildCycle(cycle int64, plan *core.Plan) error {
	base := cycle * int64(a.an.SlotsPerDisk())
	stripes := a.sch.Stripes()
	sc := a.getScratch()
	defer a.putScratch(sc)
	limit := a.windowStrips(0) // nothing to coalesce: one task per window
	for lo := 0; lo < len(plan.Tasks); {
		hi, strips := lo, 0
		for hi < len(plan.Tasks) && plan.Tasks[hi].Phase == plan.Tasks[lo].Phase {
			width := len(stripes[plan.Tasks[hi].Via].Strips)
			if hi > lo && strips+width > limit {
				break
			}
			strips += width
			hi++
		}
		window, bufs, ops := plan.Tasks[lo:hi], sc.strips(strips), sc.opList(strips)
		lo = hi

		for _, task := range window {
			stripe := stripes[task.Via]
			for pos, read := range task.Present {
				if read {
					st := stripe.Strips[pos]
					// A survivor's device, or the replacement of a failed disk.
					ops = append(ops, batchOp{dev: a.device(st.Disk), disk: st.Disk, idx: base + int64(st.Slot), buf: bufs[pos]})
				}
			}
			bufs = bufs[len(stripe.Strips):]
		}
		if err := a.readStrips(unbounded, sc, ops, 0); err != nil {
			return err
		}

		bufs, ops = sc.strips(strips), ops[:0]
		for _, task := range window {
			stripe := stripes[task.Via]
			shards := bufs[:len(stripe.Strips):len(stripe.Strips)]
			bufs = bufs[len(stripe.Strips):]
			if err := a.codes[[2]int{stripe.Data, stripe.Parity()}].Reconstruct(shards, task.Present); err != nil {
				return fmt.Errorf("store: reconstruct stripe %d of cycle %d: %w", task.Via, cycle, err)
			}
			for _, pos := range task.TargetPos {
				st := stripe.Strips[pos]
				ops = append(ops, batchOp{dev: a.replaced[st.Disk], disk: st.Disk, idx: base + int64(st.Slot), buf: shards[pos]})
			}
		}
		if err := a.writeStrips(sc, ops, nil); err != nil {
			return err
		}
	}
	return nil
}

// Scrub verifies every stripe of every cycle against its parity and
// returns the number of inconsistent stripes. The array must be healthy
// (no failed disks). Scrub is ScrubCycle over a whole fresh pass; use
// ScrubCycle directly for scrubbing that interleaves with foreground I/O.
func (a *Array) Scrub() (bad int, err error) {
	a.mu.Lock()
	a.scrubCursor.Store(0)
	a.mu.Unlock()
	for done := false; !done && err == nil; {
		var n int
		done, n, err = a.ScrubCycle(a.scrubCursor.Load())
		bad += n
	}
	return bad, err
}

// ScrubCycle verifies the cycle at the scrub cursor, under the same contract
// as RebuildCycle, and advances the cursor; bad counts the inconsistent
// stripes. It is the check fsck runs (walkStripes), healing a strip that
// fails its checksum (a latent sector error) in place but leaving parity
// alone. A strip no stripe can heal fails the cycle with ErrCorrupt. After
// the last cycle the pass is complete: done is true and the cursor wraps to
// 0. A cycle attempted while a disk is failed returns ErrDiskFaulty and
// leaves the cursor, so scrubbing resumes after the rebuild.
func (a *Array) ScrubCycle(cycle int64) (done bool, bad int, err error) {
	a.mu.RLock()
	defer a.mu.RUnlock()
	if slices.Contains(a.failed, true) {
		return false, 0, ErrDiskFaulty
	}
	if cur := a.scrubCursor.Load(); cycle != cur {
		return false, 0, fmt.Errorf("store: scrub of cycle %d refused: the cursor is at %d", cycle, cur)
	}
	var rep FsckReport
	err = a.walkStripes(cycle, true, false, &rep)
	if n := rep.ChecksumErrors - rep.Repaired; err == nil && n > 0 {
		err = fmt.Errorf("%w: %d strips of cycle %d unhealable", ErrCorrupt, n, cycle)
	}
	if err != nil {
		return false, rep.ParityErrors, err
	}
	a.scrubCursor.Store((cycle + 1) % a.cycles)
	return cycle+1 == a.cycles, rep.ParityErrors, nil
}

// ScrubProgress reports the scrub cursor and the pass length in cycles.
func (a *Array) ScrubProgress() (scanned, total int64) {
	return a.scrubCursor.Load(), a.cycles
}

// walkStripes is the one check of a cycle, scrub's and fsck's: for every
// stripe of the cycle it reads the members as one batch, verifies the stripe
// against its parity, and adds what it finds to rep. A member that fails its
// checksum is reported once, even when it sits in two stripes; with heal it
// is healed in place (healStrip), otherwise the stripe is verified over the
// bytes as read. With fix an inconsistent stripe gets its parity recomputed
// from data. Outer-layer stripes come first: outer parity strips are data
// members of inner stripes, so a fix of outer parity may dirty inner parity,
// which the inner stripes' turn then sees. Caller holds mu, shared if no
// writer is on the cycle.
func (a *Array) walkStripes(cycle int64, heal, fix bool, rep *FsckReport) error {
	base := cycle * int64(a.an.SlotsPerDisk())
	sc := a.getScratch()
	defer a.putScratch(sc)
	var corrupt []layout.Strip // reported this cycle
	for _, outer := range []bool{true, false} {
		for si, stripe := range a.sch.Stripes() {
			if outer != (stripe.Layer == layout.LayerOuter) {
				continue
			}
			shards, ops := sc.strips(len(stripe.Strips)), sc.opList(len(stripe.Strips))
			for mi, st := range stripe.Strips {
				ops = append(ops, batchOp{dev: a.device(st.Disk), disk: st.Disk, idx: base + int64(st.Slot), buf: shards[mi]})
			}
			a.exec(unbounded, sc, ops, false, nil)
			for mi := range ops {
				op, st := &ops[mi], stripe.Strips[mi]
				a.countRead(op.disk)
				if op.err == nil || errors.Is(op.err, ErrCorrupt) && slices.Contains(corrupt, st) {
					continue
				}
				if !errors.Is(op.err, ErrCorrupt) {
					return op.err
				}
				corrupt = append(corrupt, st)
				a.stats.corruptStrips.Add(1)
				is := FsckIssue{Kind: "checksum", Cycle: cycle, Disk: st.Disk, Slot: st.Slot}
				if heal {
					herr := a.healStrip(unbounded, op.dev, op.disk, op.idx, op.buf, 0, op.err)
					if herr != nil && !errors.Is(herr, ErrCorrupt) {
						return herr // the write-back failed
					}
					is.Repaired = herr == nil
				}
				rep.add(is)
			}
			code := a.codes[[2]int{stripe.Data, stripe.Parity()}]
			ok, err := code.Verify(shards)
			if err != nil {
				return fmt.Errorf("store: verify stripe %d of cycle %d: %w", si, cycle, err)
			}
			if ok {
				continue
			}
			is := FsckIssue{Kind: "parity", Cycle: cycle, Stripe: si, Layer: stripe.Layer.String()}
			if fix {
				if err := code.Encode(shards); err != nil {
					return err
				}
				ops = ops[:0]
				for mi := stripe.Data; mi < len(stripe.Strips); mi++ {
					st := stripe.Strips[mi]
					ops = append(ops, batchOp{dev: a.device(st.Disk), disk: st.Disk, idx: base + int64(st.Slot), buf: shards[mi]})
				}
				if err := a.writeStrips(sc, ops, nil); err != nil {
					return err
				}
				is.Repaired = true
			}
			rep.add(is)
		}
	}
	return nil
}

// NewMemArray is a convenience constructor: an array of in-memory devices
// holding the given number of layout cycles.
func NewMemArray(an *core.Analyzer, cycles int64, stripBytes int) (*Array, error) {
	if cycles < 1 {
		return nil, fmt.Errorf("store: cycles %d < 1", cycles)
	}
	devs := make([]Device, an.Disks())
	for i := range devs {
		dev, err := NewMemDevice(cycles*int64(an.SlotsPerDisk()), stripBytes)
		if err != nil {
			return nil, err
		}
		devs[i] = dev
	}
	return NewArray(an, devs)
}
