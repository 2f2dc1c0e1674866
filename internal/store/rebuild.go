package store

import (
	"fmt"

	"github.com/oiraid/oiraid/internal/core"
	"github.com/oiraid/oiraid/internal/erasure"
	"github.com/oiraid/oiraid/internal/layout"
)

// ReplaceDisk attaches a fresh device onto which failed disk d will be
// rebuilt. The device must match the array geometry. On an array with a
// durable metadata plane the replacement is wrapped in a journal-backed
// ChecksummedDevice (unless the caller already did) and the adoption is
// committed — with a fresh disk identity — before it is acknowledged; the
// disk stays in the failed set until its rebuild completes.
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
	if a.meta != nil && checksummedOf(dev) == nil {
		dev = NewDurableChecksummedDevice(dev, d, nil, a.meta.Journal())
	}
	a.replaced[d] = dev
	// A fresh device is not the disk that earned the quarantine: clear
	// any read-avoid mark left from before the eviction so reads use the
	// replacement directly once its cycles rebuild.
	if a.readAvoid != nil {
		a.readAvoid[d] = false
	}
	if a.meta != nil {
		return a.meta.commitAdopt(d, a.failedListLocked())
	}
	return nil
}

// NeedsReplacement lists the failed disks that have no replacement device
// attached yet — the set a rebuild driver must provision before
// RebuildStep can make progress.
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
// Rebuild is RebuildStep run to completion; use RebuildStep directly for
// online rebuilds that interleave with foreground I/O.
func (a *Array) Rebuild() error {
	for {
		done, err := a.RebuildStep(1 << 20)
		if err != nil || done {
			return err
		}
	}
}

// RebuildProgress reports incremental-rebuild progress in layout cycles.
func (a *Array) RebuildProgress() (rebuilt, total int64) {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return a.rebuiltCycles, a.cycles
}

// RebuildStep advances an incremental rebuild by up to batch layout
// cycles, then releases the array for foreground I/O. Reads and writes
// for already-rebuilt cycles are served from the replacement devices, so
// the array stays fully coherent while the rebuild is in flight. When the
// last cycle completes the replacements become live, the failure flags
// clear, and done is true.
func (a *Array) RebuildStep(batch int64) (done bool, err error) {
	if batch < 1 {
		return false, fmt.Errorf("store: rebuild batch %d < 1", batch)
	}
	a.mu.Lock()
	defer a.mu.Unlock()

	var failed []int
	for d, f := range a.failed {
		if f {
			failed = append(failed, d)
		}
	}
	if len(failed) == 0 {
		return true, nil
	}
	for _, d := range failed {
		if a.replaced[d] == nil {
			return false, fmt.Errorf("%w: disk %d", ErrNoReplacement, d)
		}
	}
	// Close the write hole under the same lock as the reconstruction: a
	// foreground commit that failed partway (a node down mid-write) leaves
	// some strips new and some old, and decoding a failed disk through
	// such a stripe would fabricate content. The pending redo records
	// carry the full consistent closure; replaying them here — atomically
	// with the batch, so no new half-commit can slip between replay and
	// decode — makes every live stripe self-consistent first. A replay
	// write that itself fails (its node still unreachable) aborts the
	// batch with ErrIntentReplay and the rebuild loop retries; once the
	// node is evicted its strips are skipped and the batch proceeds.
	if _, err := a.replayClosures(); err != nil {
		return false, err
	}
	if a.rebuildPlan == nil {
		plan := a.an.Plan(failed, core.PlanOptions{})
		if !plan.Complete {
			return false, fmt.Errorf("%w: rebuild impossible: %s", ErrTooManyFailures, a.an.Availability(failed).Describe())
		}
		a.rebuildPlan = plan
		a.rebuiltCycles = 0
	}

	slots := int64(a.an.SlotsPerDisk())
	end := a.rebuiltCycles + batch
	if end > a.cycles {
		end = a.cycles
	}
	for cycle := a.rebuiltCycles; cycle < end; cycle++ {
		if err := a.rebuildCycle(cycle, slots); err != nil {
			return false, err
		}
		a.rebuiltCycles = cycle + 1
	}
	if a.rebuiltCycles < a.cycles {
		return false, nil
	}
	for _, d := range failed {
		a.devs[d] = a.replaced[d]
		a.replaced[d] = nil
		a.failed[d] = false
	}
	a.rebuildPlan = nil
	a.rebuiltCycles = 0
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

// rebuildCycle executes the active plan's tasks for one cycle.
func (a *Array) rebuildCycle(cycle, slots int64) error {
	rebuilt := make(map[[2]int64]bool) // (disk, devStrip) written this cycle
	readSrc := func(disk int, devStrip int64, p []byte) error {
		a.stats.readOps.Add(1)
		if a.failed[disk] {
			if !rebuilt[[2]int64{int64(disk), devStrip}] {
				return fmt.Errorf("store: internal: phase read of unrebuilt strip (%d,%d)", disk, devStrip)
			}
			return a.replaced[disk].ReadStrip(devStrip, p)
		}
		return a.device(disk).ReadStrip(devStrip, p)
	}

	for _, task := range a.rebuildPlan.Tasks {
		stripe := a.sch.Stripes()[task.Via]
		code := a.codes[[2]int{stripe.Data, stripe.Parity()}]
		shards := erasure.AllocShards(stripe.Data, stripe.Parity(), a.stripBytes)
		present := make([]bool, len(stripe.Strips))

		// Map each planned source onto its member position.
		for _, src := range task.Reads {
			pos := -1
			for mi, st := range stripe.Strips {
				if st == src {
					pos = mi
					break
				}
			}
			if pos < 0 {
				return fmt.Errorf("store: internal: source %v not in stripe %d", src, task.Via)
			}
			if err := readSrc(src.Disk, cycle*slots+int64(src.Slot), shards[pos]); err != nil {
				return err
			}
			present[pos] = true
		}
		if err := code.Reconstruct(shards, present); err != nil {
			return fmt.Errorf("store: rebuild stripe %d: %w", task.Via, err)
		}
		for _, tgt := range task.Targets {
			pos := -1
			for mi, st := range stripe.Strips {
				if st == tgt {
					pos = mi
					break
				}
			}
			if pos < 0 {
				return fmt.Errorf("store: internal: target %v not in stripe %d", tgt, task.Via)
			}
			devStrip := cycle*slots + int64(tgt.Slot)
			a.stats.writeOps.Add(1)
			if err := a.replaced[tgt.Disk].WriteStrip(devStrip, shards[pos]); err != nil {
				return err
			}
			rebuilt[[2]int64{int64(tgt.Disk), devStrip}] = true
		}
	}
	return nil
}

// Scrub verifies every stripe of every cycle against its parity and
// returns the number of inconsistent stripes. The array must be healthy
// (no failed disks). The whole pass runs under one lock acquisition; use
// ScrubStep for incremental scrubbing that interleaves with foreground
// I/O.
func (a *Array) Scrub() (bad int, err error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, f := range a.failed {
		if f {
			return 0, ErrDiskFaulty
		}
	}
	a.scrubCursor = 0
	slots := int64(a.an.SlotsPerDisk())
	for cycle := int64(0); cycle < a.cycles; cycle++ {
		n, err := a.scrubCycle(cycle, slots)
		bad += n
		if err != nil {
			return bad, err
		}
	}
	return bad, nil
}

// ScrubStep advances an incremental scrub by up to batch layout cycles
// from the scrub cursor, then releases the array for foreground I/O. bad
// counts the inconsistent stripes found in this slice. When the cursor
// reaches the last cycle the pass is complete: done is true and the
// cursor wraps to 0 for the next pass. Like Scrub, it requires a healthy
// array; a slice attempted while a disk is failed returns ErrDiskFaulty
// and leaves the cursor where it was, so scrubbing resumes after the
// rebuild.
func (a *Array) ScrubStep(batch int64) (done bool, bad int, err error) {
	if batch < 1 {
		return false, 0, fmt.Errorf("store: scrub batch %d < 1", batch)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, f := range a.failed {
		if f {
			return false, 0, ErrDiskFaulty
		}
	}
	slots := int64(a.an.SlotsPerDisk())
	end := a.scrubCursor + batch
	if end > a.cycles {
		end = a.cycles
	}
	for cycle := a.scrubCursor; cycle < end; cycle++ {
		n, err := a.scrubCycle(cycle, slots)
		bad += n
		if err != nil {
			return false, bad, err
		}
		a.scrubCursor = cycle + 1
	}
	if a.scrubCursor < a.cycles {
		return false, bad, nil
	}
	a.scrubCursor = 0
	return true, bad, nil
}

// ScrubProgress reports the incremental-scrub cursor in layout cycles:
// cycles verified in the current pass and the pass length.
func (a *Array) ScrubProgress() (scanned, total int64) {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return a.scrubCursor, a.cycles
}

// scrubCycle verifies one cycle's stripes, returning the inconsistent
// count. Caller holds mu.
func (a *Array) scrubCycle(cycle, slots int64) (bad int, err error) {
	for si, stripe := range a.sch.Stripes() {
		code := a.codes[[2]int{stripe.Data, stripe.Parity()}]
		shards := erasure.AllocShards(stripe.Data, stripe.Parity(), a.stripBytes)
		for mi, st := range stripe.Strips {
			a.stats.readOps.Add(1)
			if err := a.device(st.Disk).ReadStrip(cycle*slots+int64(st.Slot), shards[mi]); err != nil {
				return bad, err
			}
		}
		ok, err := code.Verify(shards)
		if err != nil {
			return bad, fmt.Errorf("store: scrub stripe %d: %w", si, err)
		}
		if !ok {
			bad++
		}
	}
	return bad, nil
}

// Repair scrubs every stripe and recomputes the parity strips of
// inconsistent ones from their data members (silent-corruption recovery,
// assuming data strips are authoritative). It returns the number of
// stripes repaired. The array must be healthy.
//
// Stripes are processed outer-layer first: outer parity strips are data
// members of inner stripes, so fixing them may dirty inner parity, which
// the inner pass then recomputes.
func (a *Array) Repair() (repaired int, err error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, f := range a.failed {
		if f {
			return 0, ErrDiskFaulty
		}
	}
	slots := int64(a.an.SlotsPerDisk())
	for cycle := int64(0); cycle < a.cycles; cycle++ {
		for _, pass := range []layout.Layer{layout.LayerOuter, layout.LayerInner} {
			n, err := a.repairCycleLayerCount(cycle, slots, pass)
			repaired += n
			if err != nil {
				return repaired, err
			}
		}
	}
	return repaired, nil
}

// repairCycleLayerCount re-synchronises one cycle's stripes of the given
// layer (LayerInner matches every non-outer stripe).
func (a *Array) repairCycleLayerCount(cycle, slots int64, pass layout.Layer) (repaired int, err error) {
	for si, stripe := range a.sch.Stripes() {
		if (pass == layout.LayerOuter) != (stripe.Layer == layout.LayerOuter) {
			continue
		}
		code := a.codes[[2]int{stripe.Data, stripe.Parity()}]
		shards := erasure.AllocShards(stripe.Data, stripe.Parity(), a.stripBytes)
		for mi, st := range stripe.Strips {
			a.stats.readOps.Add(1)
			if err := a.device(st.Disk).ReadStrip(cycle*slots+int64(st.Slot), shards[mi]); err != nil {
				return repaired, err
			}
		}
		ok, err := code.Verify(shards)
		if err != nil {
			return repaired, fmt.Errorf("store: repair stripe %d: %w", si, err)
		}
		if ok {
			continue
		}
		if err := code.Encode(shards); err != nil {
			return repaired, err
		}
		for mi := stripe.Data; mi < len(stripe.Strips); mi++ {
			st := stripe.Strips[mi]
			a.stats.writeOps.Add(1)
			if err := a.device(st.Disk).WriteStrip(cycle*slots+int64(st.Slot), shards[mi]); err != nil {
				return repaired, err
			}
		}
		repaired++
	}
	return repaired, nil
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
