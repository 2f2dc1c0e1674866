package store

import (
	"fmt"
	"slices"
	"sync"
)

// mirror is the state of a migrating disk: the destination its strips move to
// and the strips whose copy there is stale. Every write of the disk's strips
// is repeated at the destination (writeStrips); reads stay on the source,
// whose content is complete, so foreground latency never waits on the
// destination. A repeat that fails, or whose source write did, does not fail
// the foreground operation: its strip is marked dirty, and the migration
// re-copies the dirty strips before it flips placement. The destination's ops
// run none of the disk's steps — its errors must not count toward the
// source's health, and the sums of its content are the source writes'.
type mirror struct {
	dst Device

	mu    sync.Mutex
	dirty map[int64]struct{}
}

func (m *mirror) markDirty(idx int64) {
	m.mu.Lock()
	m.dirty[idx] = struct{}{}
	m.mu.Unlock()
}

// dirtyStrips returns, ascending, the strips whose destination copy is stale.
func (m *mirror) dirtyStrips() []int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]int64, 0, len(m.dirty))
	for idx := range m.dirty {
		out = append(out, idx)
	}
	slices.Sort(out)
	return out
}

// CloneSuperblock writes disk's current superblock image into b, runs
// commit, and rebinds the disk's superblock slot to b only once commit
// succeeds. Unlike RebindSuperblock (the heal path, where the old copy is
// dead anyway), the clone keeps the old blob valid at the same epoch, and
// no superblock commit can land between clone and rebind: during a
// migration flip both placements hold a mountable superblock, so a crash
// on either side of the manifest commit mounts a healthy array — from the
// source if the commit did not land, from the destination if it did — and
// a failed commit leaves the slot on the source. commit runs under the
// metadata lock, which is what keeps superblock commits out of that
// window, so it must not call back into m.
func (m *ArrayMeta) CloneSuperblock(disk int, b Blob, commit func() error) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if disk < 0 || disk >= len(m.sbs) {
		return fmt.Errorf("%w: disk %d of %d", ErrNoSuchDisk, disk, len(m.sbs))
	}
	if b == nil {
		return fmt.Errorf("%w: nil superblock blob for disk %d", ErrBadGeometry, disk)
	}
	if err := b.Truncate(0); err != nil {
		return err
	}
	sb := m.sb
	sb.DiskIndex = disk
	sb.DiskUUID = m.diskUUIDs[disk]
	sb.Generation = m.sb.Epoch
	if err := WriteSuperblock(b, &sb); err != nil {
		return err
	}
	if err := commit(); err != nil {
		return err
	}
	m.sbs[disk] = b
	return nil
}

// StartMirror installs a migration mirror on healthy disk d: from now on
// every write to the disk lands on dst too, while reads stay on the
// current device. The installation takes the exclusive array lock, so no
// in-flight operation can slip a write past the mirror.
func (a *Array) StartMirror(d int, dst Device) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if d < 0 || d >= len(a.devs) {
		return fmt.Errorf("%w: %d", ErrNoSuchDisk, d)
	}
	if a.failed[d] {
		// A failed disk's data moves via rebuild, not migration.
		return fmt.Errorf("%w: disk %d", ErrDiskFaulty, d)
	}
	if a.mirrors[d] != nil {
		return fmt.Errorf("store: disk %d already migrating", d)
	}
	if dst.StripBytes() != a.stripBytes || dst.Strips() < a.cycles*int64(a.an.SlotsPerDisk()) {
		return fmt.Errorf("%w: migration destination for disk %d", ErrBadGeometry, d)
	}
	a.mirrors[d] = &mirror{dst: dst, dirty: map[int64]struct{}{}}
	a.noteDevices()
	return nil
}

// CopyMirrorCycle is the bulk copy of a disk migration (DESIGN.md §15): it
// copies the strips of one layout cycle of disk d from its device to the
// mirror's destination. The caller excludes foreground I/O on the cycle for
// the call, which makes the copy a consistent snapshot.
func (a *Array) CopyMirrorCycle(d int, cycle int64) error {
	a.mu.RLock()
	defer a.mu.RUnlock()
	m, err := a.mirror(d)
	if err != nil {
		return err
	}
	if cycle < 0 || cycle >= a.cycles {
		return fmt.Errorf("%w: cycle %d of %d", ErrStripOutOfRange, cycle, a.cycles)
	}
	idxs := make([]int64, a.an.SlotsPerDisk())
	for slot := range idxs {
		idxs[slot] = cycle*int64(len(idxs)) + int64(slot)
	}
	return a.copyMirror(m, d, idxs)
}

// DrainMirror re-copies the strips of disk d whose mirrored write did not
// reach the destination. The caller excludes all foreground I/O, so that the
// dirty set is final; SwapDisk wants it empty.
func (a *Array) DrainMirror(d int) error {
	a.mu.RLock()
	defer a.mu.RUnlock()
	m, err := a.mirror(d)
	if err != nil {
		return err
	}
	return a.copyMirror(m, d, m.dirtyStrips())
}

// mirror returns the migration mirror of disk d. Caller holds mu.
func (a *Array) mirror(d int) (*mirror, error) {
	if d < 0 || d >= len(a.devs) {
		return nil, fmt.Errorf("%w: %d", ErrNoSuchDisk, d)
	}
	if a.failed[d] {
		// The heal path owns a failed disk: its strips move by rebuild.
		return nil, fmt.Errorf("%w: disk %d", ErrDiskFaulty, d)
	}
	if a.mirrors[d] == nil {
		return nil, fmt.Errorf("store: disk %d has no migration in flight", d)
	}
	return a.mirrors[d], nil
}

// copyMirror copies strips idxs of disk d from its device to m's destination
// through the batch executor, a window at a time: gather from the disk —
// counted, a checksum failure healed in place, as any read of the data plane —
// and scatter to the destination. A strip whose copy landed is clean, one
// whose copy failed dirty; the copy stops after the first window with a
// failure, the device's error unchanged. Caller holds mu and keeps writers off
// idxs.
func (a *Array) copyMirror(m *mirror, d int, idxs []int64) error {
	sc := a.getScratch()
	defer a.putScratch(sc)
	for window := a.windowStrips(1); len(idxs) > 0; {
		n := min(window, len(idxs))
		bufs, ops := sc.strips(n), sc.opList(n)
		for i, idx := range idxs[:n] {
			ops = append(ops, batchOp{dev: a.devs[d], disk: d, idx: idx, buf: bufs[i]})
		}
		if err := a.readStrips(sc, ops, 0); err != nil {
			return err
		}
		for i := range ops {
			ops[i].dev, ops[i].err, ops[i].mirror = m.dst, nil, true
		}
		a.writeStrips(sc, ops, nil)
		var err error
		m.mu.Lock()
		for _, op := range ops {
			if op.err == nil {
				delete(m.dirty, op.idx)
			} else if err == nil {
				err = op.err
			}
		}
		m.mu.Unlock()
		if err != nil {
			return err
		}
		idxs = idxs[n:]
	}
	return nil
}

// DropMirror uninstalls disk d's migration mirror — the abort path when a
// migration cannot finish.
func (a *Array) DropMirror(d int) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if d < 0 || d >= len(a.devs) {
		return fmt.Errorf("%w: %d", ErrNoSuchDisk, d)
	}
	a.mirrors[d] = nil
	a.noteDevices()
	return nil
}

// SwapDisk atomically replaces disk d's device with dev — the flip at
// the end of a migration. It requires the mirror to be installed and
// clean (every mirrored write landed or was re-copied): the caller must
// have quiesced writes, drained the dirty set, and committed the new
// placement before calling, because after SwapDisk returns the source
// receives nothing. The strips' checksums stay where they are, in the
// journal's table: dev holds the same bytes.
func (a *Array) SwapDisk(d int, dev Device) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	m, err := a.mirror(d)
	if err != nil {
		return err
	}
	if n := len(m.dirtyStrips()); n != 0 {
		return fmt.Errorf("store: disk %d migration has %d dirty strips", d, n)
	}
	if dev.StripBytes() != a.stripBytes || dev.Strips() < a.cycles*int64(a.an.SlotsPerDisk()) {
		return fmt.Errorf("%w: migration destination for disk %d", ErrBadGeometry, d)
	}
	a.devs[d], a.mirrors[d] = dev, nil
	a.noteDevices()
	return nil
}
