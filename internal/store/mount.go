package store

import (
	"fmt"
	"sort"
	"sync"

	"github.com/oiraid/oiraid/internal/core"
)

// ArrayMeta is the array's durable metadata plane: one superblock blob
// per disk plus the metadata journal. Every state transition commits a
// new superblock epoch across the live disks (skipping failed ones, whose
// copies age out as stale) before the transition is acknowledged.
type ArrayMeta struct {
	mu        sync.Mutex
	sbs       []Blob
	journal   *MetaJournal
	sb        Superblock // array-wide template (per-disk fields filled at write)
	diskUUIDs [][16]byte
}

// Epoch returns the current committed epoch.
func (m *ArrayMeta) Epoch() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.sb.Epoch
}

// ArrayUUID returns the array identity.
func (m *ArrayMeta) ArrayUUID() [16]byte {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.sb.ArrayUUID
}

// UUIDString formats the array identity.
func (m *ArrayMeta) UUIDString() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.sb.UUIDString()
}

// Journal returns the metadata journal.
func (m *ArrayMeta) Journal() *MetaJournal { return m.journal }

// RebindSuperblock points disk's superblock slot at a new blob. A
// cluster replacement needs this: when a storage node is lost for good,
// the replacement devices for its disks live on surviving nodes, and the
// per-disk superblock copy must move with the data or the next commit
// would keep writing metadata into the dead node. The new blob receives
// its first superblock at the next commit; until then the mount-time
// consensus treats it like any other missing copy.
func (m *ArrayMeta) RebindSuperblock(disk int, b Blob) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if disk < 0 || disk >= len(m.sbs) {
		return fmt.Errorf("%w: disk %d of %d", ErrNoSuchDisk, disk, len(m.sbs))
	}
	if b == nil {
		return fmt.Errorf("%w: nil superblock blob for disk %d", ErrBadGeometry, disk)
	}
	// Truncate so a previous tenant's higher-epoch superblock cannot
	// shadow the copy the next commit writes.
	if err := b.Truncate(0); err != nil {
		return err
	}
	m.sbs[disk] = b
	return nil
}

// Superblock returns a copy of the array-wide superblock template.
func (m *ArrayMeta) Superblock() Superblock {
	m.mu.Lock()
	defer m.mu.Unlock()
	sb := m.sb
	sb.Failed = append([]int(nil), m.sb.Failed...)
	return sb
}

// commit bumps the epoch and writes the per-disk superblocks of every
// live disk (plus adopt, the disk being adopted, which re-enters the
// array while still in the failed set). mutate, when non-nil, edits the
// template before the bump. The first write error is returned; disks
// whose copy could not be written simply age out as stale at the next
// mount, which is the safe direction.
func (m *ArrayMeta) commit(failed []int, adopt int, mutate func(*Superblock)) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sb.Failed = append([]int(nil), failed...)
	if mutate != nil {
		mutate(&m.sb)
	}
	m.sb.Epoch++
	failedSet := make(map[int]bool, len(failed))
	for _, d := range failed {
		failedSet[d] = true
	}
	var firstErr error
	for i, b := range m.sbs {
		if failedSet[i] && i != adopt {
			continue
		}
		sb := m.sb
		sb.DiskIndex = i
		sb.DiskUUID = m.diskUUIDs[i]
		sb.Generation = m.sb.Epoch
		if err := WriteSuperblock(b, &sb); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// commitFail journals the eviction and commits the new failed set.
func (m *ArrayMeta) commitFail(disk int, failed []int) error {
	if err := m.journal.RecordTransition(TransEvict, disk, m.Epoch()+1); err != nil {
		return err
	}
	return m.commit(failed, -1, nil)
}

// commitAdopt gives the adopted disk a fresh identity and commits; the
// disk stays in the failed set until its rebuild completes.
func (m *ArrayMeta) commitAdopt(disk int, failed []int) error {
	if err := m.journal.RecordTransition(TransAdopt, disk, m.Epoch()+1); err != nil {
		return err
	}
	m.mu.Lock()
	m.diskUUIDs[disk] = NewUUID()
	m.mu.Unlock()
	return m.commit(failed, disk, nil)
}

// commitRebuildDone journals completion for each recovered disk and
// commits the cleared failed set. The transition fsync also flushes the
// checksum records of every rebuild write that preceded it.
func (m *ArrayMeta) commitRebuildDone(recovered, failed []int) error {
	for _, d := range recovered {
		if err := m.journal.RecordTransition(TransRebuildDone, d, m.Epoch()+1); err != nil {
			return err
		}
	}
	return m.commit(failed, -1, func(sb *Superblock) { sb.RebuiltCycles = 0 })
}

// commitMount persists mount-time state: newly detected failures and the
// cleared Clean flag (set again only by a graceful Seal).
func (m *ArrayMeta) commitMount(failed []int) error {
	return m.commit(failed, -1, func(sb *Superblock) { sb.Clean = false })
}

// commitSeal records a graceful shutdown with the final cursors.
func (m *ArrayMeta) commitSeal(failed []int, rebuiltCycles, scrubCursor int64) error {
	return m.commit(failed, -1, func(sb *Superblock) {
		sb.RebuiltCycles = rebuiltCycles
		sb.ScrubCursor = scrubCursor
		sb.Clean = true
	})
}

// setMeta attaches the metadata plane; mount and format call it after
// assembly so transitions during assembly do not trigger commits.
func (a *Array) setMeta(m *ArrayMeta) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.meta = m
}

// Meta returns the attached metadata plane, or nil for a volatile array.
func (a *Array) Meta() *ArrayMeta {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return a.meta
}

// SealMeta commits a clean-shutdown superblock (Clean flag plus the
// current recovery cursors). Call it after draining I/O; a mount that
// finds the flag knows the previous run shut down gracefully.
func (a *Array) SealMeta() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.meta == nil {
		return nil
	}
	return a.meta.commitSeal(a.failedListLocked(), a.rebuiltCycles.Load(), a.scrubCursor.Load())
}

// Mount is the result of assembling an array from media.
type Mount struct {
	Array *Array
	Meta  *ArrayMeta
	// Super is the consensus superblock the mount was driven by (its
	// Failed set is the committed one; see Failed for the effective set).
	Super Superblock
	// Failed is the effective failed set: committed ∪ detected.
	Failed []int
	// Detected lists disks newly failed by mount-time detection
	// (missing, foreign, misplaced, or stale superblock).
	Detected []int
	// Replayed counts redo closures replayed from the journal.
	Replayed int
	// WasClean reports whether the previous run sealed the array.
	WasClean bool
	// Availability is the per-strip classification of the mounted
	// failure pattern; nil when no disk is failed.
	Availability *core.Availability
	// ReadOnly reports that the pattern is beyond tolerance and the
	// array was mounted write-fenced under a non-refuse DegradedPolicy.
	ReadOnly bool
	// Blank lists disks whose image MountDir found missing or mis-sized
	// and replaced by a blank device.
	Blank []int
	// Replace creates the replacement device for a failed disk on the
	// mount's own media; FormatDir and MountDir set it, FormatArray and
	// MountArray (whose caller owns the media) leave it nil.
	Replace func(disk int) (Device, error)
}

// FormatOption customises FormatArray.
type FormatOption func(*Superblock)

// WithDegradedPolicy sets the format-time degradation policy persisted
// in every superblock copy.
func WithDegradedPolicy(p DegradedPolicy) FormatOption {
	return func(sb *Superblock) { sb.Degraded = p }
}

// MountOption customises MountArray.
type MountOption func(*mountConfig)

type mountConfig struct {
	policy *DegradedPolicy
}

// WithMountDegradedPolicy overrides the superblock's degradation policy
// for this mount only — the operator's "mount it read-only anyway"
// escape hatch, and the cluster manifest's policy wiring for arrays
// formatted before the policy byte existed.
func WithMountDegradedPolicy(p DegradedPolicy) MountOption {
	return func(c *mountConfig) { c.policy = &p }
}

// FormatArray initialises the durable metadata plane for a new array:
// fresh journal, fresh identities, superblocks on every disk. Device
// content is left untouched (strips carry no checksums until written),
// but any previous metadata in the blobs is destroyed. The returned mount
// is ready to serve.
func FormatArray(an *core.Analyzer, devs []Device, sbs []Blob, j0, j1 Blob, opts ...FormatOption) (*Mount, error) {
	if len(devs) != an.Disks() || len(sbs) != an.Disks() {
		return nil, fmt.Errorf("%w: %d devices, %d superblocks for %d disks",
			ErrBadGeometry, len(devs), len(sbs), an.Disks())
	}
	for _, b := range []Blob{j0, j1} {
		if err := b.Truncate(0); err != nil {
			return nil, err
		}
	}
	journal, err := OpenMetaJournal(j0, j1)
	if err != nil {
		return nil, err
	}
	arr, err := NewArray(an, devs)
	if err != nil {
		return nil, err
	}
	meta := &ArrayMeta{
		sbs:     sbs,
		journal: journal,
		sb: Superblock{
			ArrayUUID:    NewUUID(),
			Disks:        an.Disks(),
			SlotsPerDisk: an.SlotsPerDisk(),
			Cycles:       arr.Cycles(),
			StripBytes:   arr.StripBytes(),
		},
		diskUUIDs: make([][16]byte, len(devs)),
	}
	for _, opt := range opts {
		opt(&meta.sb)
	}
	for i := range meta.diskUUIDs {
		meta.diskUUIDs[i] = NewUUID()
	}
	// Truncate any stale superblocks before the first commit, so a
	// re-format cannot leave a higher-epoch ghost in the unused slot.
	for _, b := range sbs {
		if err := b.Truncate(0); err != nil {
			return nil, err
		}
	}
	if err := meta.commit(nil, -1, nil); err != nil {
		return nil, err
	}
	if err := arr.SetJournal(journal); err != nil {
		return nil, err
	}
	arr.setMeta(meta)
	return &Mount{Array: arr, Meta: meta, Super: meta.Superblock()}, nil
}

// MountArray assembles an array from its on-media metadata. It loads
// every superblock, derives the consensus (majority array UUID, highest
// epoch), fails disks whose copy is missing, foreign, misplaced, or
// stale (epoch more than one behind — one behind is a crash mid-commit
// and accepted), verifies geometry, replays the metadata journal (redo
// closures are replayed even degraded), and commits a mount epoch. It
// consults the DegradedPolicy — superblock state, overridable per mount —
// when the effective failure set exceeds the layout's recovery
// capability: refuse fails with ErrTooManyFailures (naming the failed
// disks and the violating inner groups), read-only and partial mount the
// array write-fenced and serve the decodable strips. It returns
// ErrJournalCorrupt when the journal header region is undecodable, and
// ErrBadGeometry when its records name a disk the array does not have.
func MountArray(an *core.Analyzer, devs []Device, sbs []Blob, j0, j1 Blob, opts ...MountOption) (*Mount, error) {
	journal, err := OpenMetaJournal(j0, j1)
	if err != nil {
		return nil, err
	}
	return MountWithJournal(an, devs, sbs, journal, opts...)
}

// MountWithJournal is MountArray over a journal its caller has already
// opened: a cluster coordinator reads its manifest — where the devices
// and superblocks live — from the journal before it can mount.
func MountWithJournal(an *core.Analyzer, devs []Device, sbs []Blob, journal *MetaJournal, opts ...MountOption) (*Mount, error) {
	var cfg mountConfig
	for _, opt := range opts {
		opt(&cfg)
	}
	if len(devs) != an.Disks() || len(sbs) != an.Disks() {
		return nil, fmt.Errorf("%w: %d devices, %d superblocks for %d disks",
			ErrBadGeometry, len(devs), len(sbs), an.Disks())
	}
	loaded := make([]*Superblock, len(sbs))
	valid := 0
	for i, b := range sbs {
		sb, err := LoadSuperblock(b)
		if err != nil {
			continue
		}
		loaded[i] = sb
		valid++
	}
	if valid == 0 {
		return nil, fmt.Errorf("%w: no disk carries one", ErrNoSuperblock)
	}

	// Consensus identity: majority UUID, ties broken by highest epoch.
	type camp struct {
		count int
		best  *Superblock
	}
	camps := make(map[[16]byte]*camp)
	for _, sb := range loaded {
		if sb == nil {
			continue
		}
		c := camps[sb.ArrayUUID]
		if c == nil {
			c = &camp{}
			camps[sb.ArrayUUID] = c
		}
		c.count++
		if c.best == nil || sb.Epoch > c.best.Epoch {
			c.best = sb
		}
	}
	var cons *Superblock
	consCount := 0
	for _, c := range camps {
		if c.count > consCount || (c.count == consCount && cons != nil && c.best.Epoch > cons.Epoch) {
			cons, consCount = c.best, c.count
		}
	}

	// Geometry must match the analyzer and the attached devices.
	if cons.Disks != an.Disks() || cons.SlotsPerDisk != an.SlotsPerDisk() {
		return nil, fmt.Errorf("%w: superblock %d disks × %d slots, analyzer %d × %d",
			ErrSuperblockMismatch, cons.Disks, cons.SlotsPerDisk, an.Disks(), an.SlotsPerDisk())
	}
	slots := int64(an.SlotsPerDisk())
	minStrips := devs[0].Strips()
	for _, dev := range devs {
		if dev.StripBytes() != cons.StripBytes {
			return nil, fmt.Errorf("%w: device strip %d, superblock %d",
				ErrSuperblockMismatch, dev.StripBytes(), cons.StripBytes)
		}
		if dev.Strips() < minStrips {
			minStrips = dev.Strips()
		}
	}
	if minStrips/slots != cons.Cycles {
		return nil, fmt.Errorf("%w: devices hold %d cycles, superblock %d",
			ErrSuperblockMismatch, minStrips/slots, cons.Cycles)
	}

	// Per-disk validation against the consensus.
	committed := make(map[int]bool, len(cons.Failed))
	for _, d := range cons.Failed {
		committed[d] = true
	}
	failedSet := make(map[int]bool, len(cons.Failed))
	for _, d := range cons.Failed {
		failedSet[d] = true
	}
	var detected []int
	fail := func(d int) {
		if !failedSet[d] {
			failedSet[d] = true
			detected = append(detected, d)
		}
	}
	for i, sb := range loaded {
		if committed[i] {
			continue // already failed; its copy is allowed to lag
		}
		switch {
		case sb == nil:
			fail(i) // missing or corrupt superblock
		case sb.ArrayUUID != cons.ArrayUUID:
			fail(i) // foreign disk
		case sb.DiskIndex != i:
			fail(i) // misplaced disk
		case sb.Epoch+1 < cons.Epoch:
			fail(i) // stale: missed at least one committed transition
		}
	}
	failed := make([]int, 0, len(failedSet))
	for d := range failedSet {
		failed = append(failed, d)
	}
	sort.Ints(failed)

	// Classify the failure pattern per strip. A recoverable pattern
	// serves degraded-rw as before; a beyond-tolerance pattern consults
	// the DegradedPolicy instead of refusing on the flat count.
	var av *core.Availability
	degraded := false
	if len(failed) > 0 {
		av = an.Availability(failed)
		if !av.Recoverable {
			policy := cons.Degraded
			if cfg.policy != nil {
				policy = *cfg.policy
			}
			switch {
			case policy == DegradedRefuse:
				return nil, fmt.Errorf("%w at mount: %s; policy %q refuses beyond-tolerance service",
					ErrTooManyFailures, av.Describe(), policy)
			case policy == DegradedReadOnly && !av.DataComplete:
				return nil, fmt.Errorf("%w at mount: %s; policy %q needs every data strip decodable (policy %q would serve the readable subset)",
					ErrTooManyFailures, av.Describe(), policy, DegradedPartial)
			}
			degraded = true
		}
	}

	arr, err := NewArray(an, devs)
	if err != nil {
		return nil, err
	}
	for _, d := range failed {
		if err := arr.FailDisk(d); err != nil { // meta not attached: no commit
			return nil, err
		}
	}
	if err := arr.SetJournal(journal); err != nil {
		return nil, err
	}
	replayed, err := arr.RecoverIntent()
	if err != nil {
		return nil, fmt.Errorf("store: mount replay: %w", err)
	}
	if degraded {
		arr.SetReadOnly(true)
	}
	if cons.ScrubCursor < arr.cycles {
		arr.scrubCursor.Store(cons.ScrubCursor)
	}

	meta := &ArrayMeta{
		sbs:       sbs,
		journal:   journal,
		sb:        *cons,
		diskUUIDs: make([][16]byte, len(devs)),
	}
	meta.sb.Failed = append([]int(nil), failed...)
	for i, sb := range loaded {
		if sb != nil && sb.ArrayUUID == cons.ArrayUUID && sb.DiskIndex == i {
			meta.diskUUIDs[i] = sb.DiskUUID
		}
	}
	arr.setMeta(meta)
	// Commit the mount: newly detected failures become durable and the
	// Clean flag clears until the next graceful seal.
	if err := meta.commitMount(failed); err != nil {
		return nil, err
	}
	return &Mount{
		Array:        arr,
		Meta:         meta,
		Super:        *cons,
		Failed:       failed,
		Detected:     detected,
		Replayed:     replayed,
		WasClean:     cons.Clean,
		Availability: av,
		ReadOnly:     degraded,
	}, nil
}
