package store

import (
	"fmt"
	"slices"
	"sync"
)

// MirrorDevice duplicates writes onto a second device while a healthy
// disk's strips are being migrated to a new home. Reads are served by
// the source (the destination is incomplete until the copy finishes), so
// foreground latency never depends on the destination; a destination
// write failure is absorbed into the dirty set instead of failing the
// foreground operation, and the migration re-copies those strips before
// it flips placement.
//
// The mirror is installed outermost over the source's existing wrapper
// chain (checksums, retries, health probes), so source semantics — sum
// recording, eviction accounting — are exactly what they were without
// the mirror. The destination is written raw: its errors must not count
// toward the source disk's health, and its checksums are already durable
// in the journal from the source-side writes of identical bytes.
type MirrorDevice struct {
	src, dst Device

	mu    sync.Mutex
	dirty map[int64]struct{}
}

var _ Device = (*MirrorDevice)(nil)

// NewMirrorDevice builds a mirror over src that forwards writes to dst.
func NewMirrorDevice(src, dst Device) *MirrorDevice {
	return &MirrorDevice{src: src, dst: dst, dirty: map[int64]struct{}{}}
}

// Strips implements Device.
func (m *MirrorDevice) Strips() int64 { return m.src.Strips() }

// StripBytes implements Device.
func (m *MirrorDevice) StripBytes() int { return m.src.StripBytes() }

// ReadStrip implements Device: reads come from the source only.
func (m *MirrorDevice) ReadStrip(idx int64, p []byte) error {
	return m.src.ReadStrip(idx, p)
}

// WriteStrip implements Device: the source write decides the outcome
// (foreground semantics unchanged); the destination write is best-effort
// with failures recorded as dirty strips for the migration to re-copy.
func (m *MirrorDevice) WriteStrip(idx int64, p []byte) error {
	if err := m.src.WriteStrip(idx, p); err != nil {
		// The source state is unknown (the write may have half-landed on
		// retry paths): whatever the caller does next, make sure the
		// migration re-reads this strip before trusting the destination.
		m.markDirty(idx)
		return err
	}
	if err := m.dst.WriteStrip(idx, p); err != nil {
		m.markDirty(idx)
	}
	return nil
}

// Close implements Device, closing the source side only — the
// destination's lifecycle belongs to the migration that created it.
func (m *MirrorDevice) Close() error { return m.src.Close() }

// Inner implements the wrapper-chain walk (fsck, checksummedOf): the
// mirror is transparent, the source chain is the device that counts.
func (m *MirrorDevice) Inner() Device { return m.src }

func (m *MirrorDevice) markDirty(idx int64) {
	m.mu.Lock()
	m.dirty[idx] = struct{}{}
	m.mu.Unlock()
}

// settle records the outcome of copying idxs to the destination: a strip
// whose copy landed is clean, every strip of a window that did not land
// whole is dirty.
func (m *MirrorDevice) settle(idxs []int64, landed bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, idx := range idxs {
		if landed {
			delete(m.dirty, idx)
		} else {
			m.dirty[idx] = struct{}{}
		}
	}
}

// dirtyStrips returns, ascending, the strips whose destination copy is stale
// (a mirrored write did not land).
func (m *MirrorDevice) dirtyStrips() []int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]int64, 0, len(m.dirty))
	for idx := range m.dirty {
		out = append(out, idx)
	}
	slices.Sort(out)
	return out
}

// DirtyCount returns the number of stale destination strips.
func (m *MirrorDevice) DirtyCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.dirty)
}

// CloneSuperblock writes disk's current superblock image into b and
// rebinds the disk's superblock slot to it. Unlike RebindSuperblock
// (the heal path, where the old copy is dead anyway), the clone keeps
// the old blob valid at the same epoch: during a migration flip both
// placements hold a mountable superblock, so a crash on either side of
// the manifest commit mounts a healthy array — from the source if the
// commit did not land, from the destination if it did.
func (m *ArrayMeta) CloneSuperblock(disk int, b Blob) error {
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
	m.sbs[disk] = b
	return nil
}

// StartMirror installs a migration mirror on healthy disk d: from now on
// every write to the disk lands on dst too, while reads stay on the
// current device. The installation takes the exclusive array lock, so no
// in-flight operation can slip a write past the mirror.
func (a *Array) StartMirror(d int, dst Device) (*MirrorDevice, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if d < 0 || d >= len(a.devs) {
		return nil, fmt.Errorf("%w: %d", ErrNoSuchDisk, d)
	}
	if a.failed[d] {
		// A failed disk's data moves via rebuild, not migration.
		return nil, fmt.Errorf("%w: disk %d", ErrDiskFaulty, d)
	}
	if _, ok := a.devs[d].(*MirrorDevice); ok {
		return nil, fmt.Errorf("store: disk %d already migrating", d)
	}
	if dst.StripBytes() != a.stripBytes || dst.Strips() < a.cycles*int64(a.an.SlotsPerDisk()) {
		return nil, fmt.Errorf("%w: migration destination for disk %d", ErrBadGeometry, d)
	}
	m := NewMirrorDevice(a.devs[d], dst)
	a.devs[d] = m
	a.noteDevices()
	return m, nil
}

// CopyMirrorCycle is the bulk copy of a disk migration (DESIGN.md §15): it
// copies the strips of one layout cycle of disk d from the mirror's source to
// its destination. The caller excludes foreground I/O on the cycle for the
// call, which makes the copy a consistent snapshot.
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
func (a *Array) mirror(d int) (*MirrorDevice, error) {
	if d < 0 || d >= len(a.devs) {
		return nil, fmt.Errorf("%w: %d", ErrNoSuchDisk, d)
	}
	m, ok := a.devs[d].(*MirrorDevice)
	if !ok {
		return nil, fmt.Errorf("store: disk %d has no migration in flight", d)
	}
	if a.failed[d] {
		// The heal path owns a failed disk: its strips move by rebuild.
		return nil, fmt.Errorf("%w: disk %d", ErrDiskFaulty, d)
	}
	return m, nil
}

// copyMirror copies strips idxs of disk d from m's source to its destination
// through the batch executor, a window at a time: gather from the source's
// stack — counted, a checksum failure healed in place, as any read of the
// data plane — and scatter to the raw destination. It stops at the first
// window that fails, the device's error unchanged; that window's strips are
// dirty, every strip before it clean. Caller holds mu and keeps writers off
// idxs.
func (a *Array) copyMirror(m *MirrorDevice, d int, idxs []int64) error {
	sc := a.getScratch()
	defer a.putScratch(sc)
	for window := a.windowStrips(1); len(idxs) > 0; {
		n := min(window, len(idxs))
		bufs, ops := sc.strips(n), sc.opList(n)
		for i, idx := range idxs[:n] {
			ops = append(ops, batchOp{dev: m.src, disk: d, idx: idx, buf: bufs[i]})
		}
		if err := a.readStrips(sc, ops, false, 0, nil); err != nil {
			return err
		}
		for i := range ops {
			ops[i].dev, ops[i].err = m.dst, nil
		}
		failed := a.writeStrips(sc, ops, false)
		m.settle(idxs[:n], failed == nil)
		if failed != nil {
			return failed.err
		}
		idxs = idxs[n:]
	}
	return nil
}

// DropMirror uninstalls disk d's migration mirror, restoring the source
// device — the abort path when a migration cannot finish.
func (a *Array) DropMirror(d int) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if d < 0 || d >= len(a.devs) {
		return fmt.Errorf("%w: %d", ErrNoSuchDisk, d)
	}
	m, ok := a.devs[d].(*MirrorDevice)
	if !ok {
		return nil
	}
	a.devs[d] = m.src
	a.noteDevices()
	return nil
}

// SwapDisk atomically replaces disk d's device with dev — the flip at
// the end of a migration. It requires the mirror to be installed and
// clean (every mirrored write landed or was re-copied): the caller must
// have quiesced writes, drained the dirty set, and committed the new
// placement before calling, because after SwapDisk returns the source
// receives nothing.
func (a *Array) SwapDisk(d int, dev Device) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if d < 0 || d >= len(a.devs) {
		return fmt.Errorf("%w: %d", ErrNoSuchDisk, d)
	}
	m, ok := a.devs[d].(*MirrorDevice)
	if !ok {
		return fmt.Errorf("store: disk %d has no migration in flight", d)
	}
	if n := m.DirtyCount(); n != 0 {
		return fmt.Errorf("store: disk %d migration has %d dirty strips", d, n)
	}
	if dev.StripBytes() != a.stripBytes || dev.Strips() < a.cycles*int64(a.an.SlotsPerDisk()) {
		return fmt.Errorf("%w: migration destination for disk %d", ErrBadGeometry, d)
	}
	if a.meta != nil && checksummedOf(dev) == nil {
		// Seed with the journal's sums for the disk: the destination holds
		// byte-identical content, so reads verify from the first strip.
		dev = NewDurableChecksummedDevice(dev, d, a.meta.Journal().Sums(d), a.meta.Journal())
	}
	a.devs[d] = dev
	a.noteDevices()
	return nil
}
