package store

import "fmt"

// SetJournal attaches the metadata journal as the array's write-hole
// mechanism: every read-modify-write makes a redo record of its full new
// parity closure durable before touching devices and clears it after the
// commit; RecoverIntent replays the records a crash or a failed commit
// left pending. FormatArray and MountArray attach the array's durable
// journal; a volatile array may attach one over MemBlobs, or none. The
// journal is bound to the array's disk count first (MetaJournal.Bind), and
// one of another geometry is refused and left unattached.
func (a *Array) SetJournal(j *MetaJournal) error {
	if err := j.Bind(a.an.Disks()); err != nil {
		return err
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.journal = j
	return nil
}

// RecoverIntent closes the write hole after a crash and returns the
// number of cycles re-synchronised; without a journal it is a no-op.
//
// Recovery replays the pending redo records: each carries the full
// consistent content of its parity closure, computed before the
// interrupted commit started, so rewriting the live strips restores
// consistency regardless of which subset of the original writes reached
// the media — and it is sound even while disks are failed (strips on dead
// disks are simply skipped; the rebuild reconstructs them from the
// now-consistent stripes). Replay can never rewind an acknowledged write:
// a read-modify-write refuses to commit while a record from a different
// write overlaps its closure (ErrIntentConflict), so any record still
// pending has had no overlapping commit acknowledged after it was
// recorded.
func (a *Array) RecoverIntent() (cycles int, err error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.replayClosures(-1)
}

// replayClosures redoes the pending closures of cycle (of all when cycle < 0)
// onto the live devices. Caller holds mu, shared if no writer is on the cycle.
func (a *Array) replayClosures(cycle int64) (int, error) {
	if a.journal == nil {
		return 0, nil
	}
	pending, err := a.journal.PendingClosures()
	if err != nil {
		return 0, err
	}
	replayed := make(map[int64]bool)
	for _, pc := range pending {
		if cycle >= 0 && pc.Cycle != cycle {
			continue
		}
		if err := a.replayClosure(pc); err != nil {
			return len(replayed), fmt.Errorf("%w: %v", ErrIntentReplay, err)
		}
		replayed[pc.Cycle] = true
	}
	return len(replayed), a.journal.compactIfDue()
}

// replayClosure rewrites one record's strips onto their live devices, as one
// batch, and clears the record with their checksums once every write landed.
// A strip on a failed disk is skipped — the live stripes carry its content
// and the rebuild reconstructs it — and so is a stale record from a
// different geometry. A write error names the cycle. Caller holds mu (or the
// striped locks covering the closure).
func (a *Array) replayClosure(pc PendingClosure) error {
	slots := int64(a.an.SlotsPerDisk())
	sc := a.getScratch()
	defer a.putScratch(sc)
	ops := sc.opList(len(pc.Strips))
	for _, su := range pc.Strips {
		if su.Disk < 0 || su.Disk >= len(a.devs) ||
			su.Slot < 0 || int64(su.Slot) >= slots ||
			pc.Cycle < 0 || pc.Cycle >= a.cycles ||
			len(su.Data) != a.stripBytes {
			continue
		}
		devStrip := pc.Cycle*slots + int64(su.Slot)
		if dev := a.liveDevice(su.Disk, devStrip); dev != nil {
			ops = append(ops, batchOp{dev: dev, disk: su.Disk, idx: devStrip, buf: su.Data})
		}
	}
	if err := a.writeStrips(sc, ops, &pc); err != nil {
		return fmt.Errorf("cycle %d: %w", pc.Cycle, err)
	}
	return nil
}
