package store

import (
	"errors"
	"strings"
	"testing"
)

// mountRig is an in-memory durable array: raw devices plus the metadata
// blobs (per-disk superblocks and the two journal regions), so tests can
// "power off", tamper with media, and remount.
type mountRig struct {
	v    int
	devs []*MemDevice
	sbs  []Blob
	j0   Blob
	j1   Blob
}

func newMountRig(t testing.TB, v int, cycles int64) *mountRig {
	t.Helper()
	an := oiAnalyzer(t, v)
	r := &mountRig{v: v, j0: NewMemBlob(), j1: NewMemBlob()}
	for i := 0; i < an.Disks(); i++ {
		dev, err := NewMemDevice(cycles*int64(an.SlotsPerDisk()), testStrip)
		if err != nil {
			t.Fatal(err)
		}
		r.devs = append(r.devs, dev)
		r.sbs = append(r.sbs, NewMemBlob())
	}
	return r
}

func (r *mountRig) devices() []Device {
	devs := make([]Device, len(r.devs))
	for i, d := range r.devs {
		devs[i] = d
	}
	return devs
}

func (r *mountRig) format(t testing.TB) *Mount {
	t.Helper()
	m, err := FormatArray(oiAnalyzer(t, r.v), r.devices(), r.sbs, r.j0, r.j1)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func (r *mountRig) mount(t testing.TB) *Mount {
	t.Helper()
	m, err := MountArray(oiAnalyzer(t, r.v), r.devices(), r.sbs, r.j0, r.j1)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestFormatMountRoundTrip(t *testing.T) {
	r := newMountRig(t, 9, 2)
	m := r.format(t)
	want := fillArray(t, m.Array, 7)
	if err := m.Array.SealMeta(); err != nil {
		t.Fatal(err)
	}

	m2 := r.mount(t)
	if !m2.WasClean {
		t.Error("sealed array mounted as not clean")
	}
	if len(m2.Failed) != 0 || m2.Replayed != 0 {
		t.Fatalf("clean mount: failed %v, replayed %d", m2.Failed, m2.Replayed)
	}
	if m2.Meta.ArrayUUID() != m.Meta.ArrayUUID() {
		t.Error("array identity changed across remount")
	}
	if got := hashArray(t, m2.Array); got != want {
		t.Fatal("content hash changed across remount")
	}
	// Mount (un-clean) then seal bump epochs monotonically.
	if m2.Meta.Epoch() <= m.Meta.Epoch() {
		t.Fatalf("epoch did not advance: %d then %d", m.Meta.Epoch(), m2.Meta.Epoch())
	}
	// A crash now (no seal) mounts as not clean.
	m3 := r.mount(t)
	if m3.WasClean {
		t.Error("unsealed array mounted as clean")
	}
}

// TestMountDetectsOfflineCorruption is the acceptance scenario: a strip
// corrupted while the array was powered off is caught by the durable
// checksum on first read and healed from parity.
func TestMountDetectsOfflineCorruption(t *testing.T) {
	r := newMountRig(t, 9, 2)
	m := r.format(t)
	want := fillArray(t, m.Array, 11)
	if err := m.Array.SealMeta(); err != nil {
		t.Fatal(err)
	}

	// Power off; flip bits in the strip holding data index 0 behind the
	// array's back.
	disk, devStrip := m.Array.locate(0)
	flipStrip(t, r.devs[disk], devStrip, 0xa5)

	m2 := r.mount(t)
	if len(m2.Failed) != 0 {
		t.Fatalf("corruption must not fail the disk at mount: %v", m2.Failed)
	}
	if got := hashArray(t, m2.Array); got != want {
		t.Fatal("offline corruption served to the reader")
	}
	st := m2.Array.Stats()
	if st.CorruptStrips == 0 || st.ReadRepairs == 0 {
		t.Fatalf("corruption not observed/healed: %+v", st)
	}
	// The heal rewrote the strip: a second full read is silent.
	m2.Array.ResetStats()
	if got := hashArray(t, m2.Array); got != want {
		t.Fatal("content wrong after heal")
	}
	if st := m2.Array.Stats(); st.CorruptStrips != 0 {
		t.Fatalf("strip not healed in place: %+v", st)
	}
}

func TestMountForeignDiskDetected(t *testing.T) {
	r := newMountRig(t, 9, 2)
	m := r.format(t)
	want := fillArray(t, m.Array, 3)
	if err := m.Array.SealMeta(); err != nil {
		t.Fatal(err)
	}
	// A disk from a different array lands in slot 4.
	other := newMountRig(t, 9, 2)
	other.format(t)
	r.sbs[4] = other.sbs[4]
	r.devs[4] = other.devs[4]

	m2 := r.mount(t)
	if len(m2.Detected) != 1 || m2.Detected[0] != 4 {
		t.Fatalf("detected %v, want [4]", m2.Detected)
	}
	if got := hashArray(t, m2.Array); got != want {
		t.Fatal("degraded content wrong with foreign disk failed")
	}
}

func TestMountStaleDiskDetected(t *testing.T) {
	r := newMountRig(t, 9, 2)
	m := r.format(t)
	fillArray(t, m.Array, 5)
	// Snapshot disk 5's superblock, advance the array two epochs, then
	// put the old copy back — the disk "missed" committed transitions.
	old := append([]byte(nil), r.sbs[5].(*MemBlob).Bytes()...)
	for i := 0; i < 2; i++ {
		if err := m.Array.SealMeta(); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.sbs[5].Truncate(0); err != nil {
		t.Fatal(err)
	}
	if _, err := r.sbs[5].WriteAt(old, 0); err != nil {
		t.Fatal(err)
	}

	m2 := r.mount(t)
	if len(m2.Detected) != 1 || m2.Detected[0] != 5 {
		t.Fatalf("detected %v, want stale disk [5]", m2.Detected)
	}
}

// TestMountEpochMarginAccepted pins the crash-mid-commit tolerance: a
// disk exactly one epoch behind the consensus is healthy.
func TestMountEpochMarginAccepted(t *testing.T) {
	r := newMountRig(t, 9, 2)
	m := r.format(t)
	old := append([]byte(nil), r.sbs[5].(*MemBlob).Bytes()...)
	if err := m.Array.SealMeta(); err != nil { // one epoch ahead
		t.Fatal(err)
	}
	if err := r.sbs[5].Truncate(0); err != nil {
		t.Fatal(err)
	}
	if _, err := r.sbs[5].WriteAt(old, 0); err != nil {
		t.Fatal(err)
	}
	m2 := r.mount(t)
	if len(m2.Detected) != 0 {
		t.Fatalf("disk one epoch behind failed: %v", m2.Detected)
	}
}

func TestMountMissingSuperblockDetected(t *testing.T) {
	r := newMountRig(t, 9, 2)
	m := r.format(t)
	want := fillArray(t, m.Array, 9)
	if err := m.Array.SealMeta(); err != nil {
		t.Fatal(err)
	}
	if err := r.sbs[0].Truncate(0); err != nil {
		t.Fatal(err)
	}
	m2 := r.mount(t)
	if len(m2.Detected) != 1 || m2.Detected[0] != 0 {
		t.Fatalf("detected %v, want [0]", m2.Detected)
	}
	if got := hashArray(t, m2.Array); got != want {
		t.Fatal("degraded content wrong with superblock-less disk failed")
	}
}

func TestMountRefusesTooManyFailures(t *testing.T) {
	r := newMountRig(t, 9, 2)
	m := r.format(t)
	if err := m.Array.SealMeta(); err != nil {
		t.Fatal(err)
	}
	for d := 0; d < 6; d++ {
		if err := r.sbs[d].Truncate(0); err != nil {
			t.Fatal(err)
		}
	}
	_, err := MountArray(oiAnalyzer(t, r.v), r.devices(), r.sbs, r.j0, r.j1)
	if !errors.Is(err, ErrTooManyFailures) {
		t.Fatalf("err %v, want ErrTooManyFailures", err)
	}
}

func TestMountNoSuperblocks(t *testing.T) {
	r := newMountRig(t, 9, 2)
	_, err := MountArray(oiAnalyzer(t, r.v), r.devices(), r.sbs, r.j0, r.j1)
	if !errors.Is(err, ErrNoSuperblock) {
		t.Fatalf("err %v, want ErrNoSuperblock", err)
	}
}

// TestMountTransitionsCommit walks the full fail → adopt → rebuild chain
// and checks each transition survives a remount.
func TestMountTransitionsCommit(t *testing.T) {
	r := newMountRig(t, 9, 2)
	m := r.format(t)
	want := fillArray(t, m.Array, 13)
	if err := m.Array.FailDisk(3); err != nil {
		t.Fatal(err)
	}

	// Crash here: the eviction is already durable.
	m2 := r.mount(t)
	if len(m2.Failed) != 1 || m2.Failed[0] != 3 {
		t.Fatalf("failed %v after evict+remount, want [3]", m2.Failed)
	}
	if len(m2.Detected) != 0 {
		t.Fatalf("committed failure re-detected: %v", m2.Detected)
	}

	// Physically swap in a blank disk and rebuild.
	repl, err := NewMemDevice(r.devs[3].Strips(), testStrip)
	if err != nil {
		t.Fatal(err)
	}
	r.devs[3] = repl
	if err := m2.Array.ReplaceDisk(3, repl); err != nil {
		t.Fatal(err)
	}
	if err := m2.Array.Rebuild(); err != nil {
		t.Fatal(err)
	}
	if err := m2.Array.SealMeta(); err != nil {
		t.Fatal(err)
	}

	m3 := r.mount(t)
	if len(m3.Failed) != 0 {
		t.Fatalf("failed %v after rebuild+remount, want none", m3.Failed)
	}
	if got := hashArray(t, m3.Array); got != want {
		t.Fatal("content wrong after rebuild and remount")
	}
	rep, err := m3.Array.Fsck(false)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean {
		t.Fatalf("fsck not clean after rebuild: %+v", rep)
	}
}

// TestMountRefusesJournalOfLargerArray: the journal learns its geometry
// at mount, so a journal whose records name a disk the array does not
// have — one of a larger array — is refused there.
func TestMountRefusesJournalOfLargerArray(t *testing.T) {
	r := newMountRig(t, 9, 2)
	if err := r.format(t).Array.SealMeta(); err != nil {
		t.Fatal(err)
	}
	j := openTestJournal(t, r.j0, r.j1, 16)
	if err := j.RecordSum(12, 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	_, err := MountArray(oiAnalyzer(t, r.v), r.devices(), r.sbs, r.j0, r.j1)
	if !errors.Is(err, ErrBadGeometry) || !strings.Contains(err.Error(), "disk 12") {
		t.Fatalf("mount over a journal naming disk 12: %v, want ErrBadGeometry naming the disk", err)
	}
}
