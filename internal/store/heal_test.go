package store

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"testing"

	"github.com/oiraid/oiraid/internal/core"
	"github.com/oiraid/oiraid/internal/layout"
)

// newChecksummedArray builds an OI-RAID array of mem devices with a journal,
// so with checksums, returning the devices for behind-the-back corruption.
func newChecksummedArray(t *testing.T, v int) (*Array, []*MemDevice) {
	t.Helper()
	arr := journaled(t, newOIArray(t, v))
	inner := make([]*MemDevice, len(arr.devs))
	for i, dev := range arr.devs {
		inner[i] = dev.(*MemDevice)
	}
	return arr, inner
}

// flipByte corrupts one byte of a strip behind the array's back — a latent
// sector error — and returns the strip's original content.
func flipByte(t *testing.T, dev *MemDevice, idx int64) []byte {
	t.Helper()
	buf := make([]byte, testStrip)
	if err := dev.ReadStrip(idx, buf); err != nil {
		t.Fatal(err)
	}
	orig := append([]byte(nil), buf...)
	buf[3] ^= 0x80
	if err := dev.WriteStrip(idx, buf); err != nil {
		t.Fatal(err)
	}
	return orig
}

// TestReadRepairWritesBack: the first read of a corrupted strip pays a
// reconstruction and heals the device in place; the second read is served
// directly, with no further degraded read.
func TestReadRepairWritesBack(t *testing.T) {
	arr, inner := newChecksummedArray(t, 9)
	fillArray(t, arr, 21)

	// Corrupt the device strip backing logical data strip 0 behind the
	// array's back.
	d, devStrip := arr.locate(0)
	buf := make([]byte, testStrip)
	if err := inner[d].ReadStrip(devStrip, buf); err != nil {
		t.Fatal(err)
	}
	buf[0] ^= 0xFF
	if err := inner[d].WriteStrip(devStrip, buf); err != nil {
		t.Fatal(err)
	}

	arr.ResetStats()
	want := make([]byte, arr.StripBytes())
	if _, err := arr.ReadAt(want, 0); err != nil {
		t.Fatal(err)
	}
	st := arr.Stats()
	if st.ReadRepairs != 1 || st.DegradedReads != 1 {
		t.Fatalf("first read: repairs=%d degraded=%d, want 1/1", st.ReadRepairs, st.DegradedReads)
	}

	// Second read: no reconstruction cost, same content.
	arr.ResetStats()
	got := make([]byte, arr.StripBytes())
	if _, err := arr.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	st = arr.Stats()
	if st.DegradedReads != 0 || st.ReadRepairs != 0 {
		t.Fatalf("second read still degraded: %+v", st)
	}
	if st.ReadOps != 1 {
		t.Fatalf("second read used %d device reads, want 1", st.ReadOps)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("healed strip content differs between reads")
	}
	// The device itself holds the healed content (checksum now passes).
	if bad, err := arr.Scrub(); err != nil || bad != 0 {
		t.Fatalf("scrub after repair: %d bad, %v", bad, err)
	}
}

// TestReconstructHealsCorruptSource: a degraded read whose *source* strip
// is corrupt treats it as one more erasure, decodes around it, and heals
// the source in place.
func TestReconstructHealsCorruptSource(t *testing.T) {
	t.Run("one-hop", testOneHopHealsCorruptSource)
	t.Run("deep", testDeepReadHealsCorruptSource)
}

func testOneHopHealsCorruptSource(t *testing.T) {
	arr, inner := newChecksummedArray(t, 9)
	fillArray(t, arr, 22)

	// Fail the disk of logical strip 0, then corrupt one of the surviving
	// strips its reconstruction will read.
	d0, devStrip0 := arr.locate(0)
	if err := arr.FailDisk(d0); err != nil {
		t.Fatal(err)
	}
	slots := int64(arr.an.SlotsPerDisk())
	cycle, slot := devStrip0/slots, int(devStrip0%slots)
	target := layout.Strip{Disk: d0, Slot: slot}
	alive := func(disk int) bool { return !arr.failed[disk] }
	info, ok := arr.an.DecodePath(target, alive)
	if !ok {
		t.Fatal("no decode path for single failure")
	}
	var src int // member position of a live source strip
	for mi, st := range info.Members {
		if st.Disk != d0 {
			src = mi
			break
		}
	}
	srcStrip := info.Members[src]
	srcIdx := cycle*slots + int64(srcStrip.Slot)
	buf := make([]byte, testStrip)
	if err := inner[srcStrip.Disk].ReadStrip(srcIdx, buf); err != nil {
		t.Fatal(err)
	}
	orig := append([]byte(nil), buf...)
	buf[3] ^= 0x80
	if err := inner[srcStrip.Disk].WriteStrip(srcIdx, buf); err != nil {
		t.Fatal(err)
	}

	arr.ResetStats()
	p := make([]byte, arr.StripBytes())
	if _, err := arr.ReadAt(p, 0); err != nil {
		t.Fatalf("degraded read with corrupt source: %v", err)
	}
	if st := arr.Stats(); st.ReadRepairs != 1 {
		t.Fatalf("corrupt source not healed: %+v", st)
	}
	if err := inner[srcStrip.Disk].ReadStrip(srcIdx, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, orig) {
		t.Fatal("source strip not restored to original content")
	}
}

// deepTargets returns the logical data strips that no single stripe decodes
// under the array's failed set, so that reading one runs the multi-phase
// plan.
func deepTargets(t testing.TB, arr *Array) []int64 {
	t.Helper()
	alive := func(disk int) bool { return !arr.failed[disk] }
	var deep []int64
	for i := int64(0); i < arr.Capacity()/int64(arr.stripBytes); i++ {
		st, _ := arr.LocateDataStrip(i)
		if alive(st.Disk) {
			continue
		}
		if _, ok := arr.an.DecodePath(st, alive); !ok {
			deep = append(deep, i)
		}
	}
	if len(deep) == 0 {
		t.Fatal("failed set leaves every strip one-hop decodable")
	}
	return deep
}

// testDeepReadHealsCorruptSource is TestReconstructHealsCorruptSource for
// the multi-phase path: two disks of one group plus a third are failed, a
// source of the first task the target's sub-plan runs is corrupt, and its
// other stripe is intact — the deep read heals it and serves the right
// bytes. With that other stripe lost as well the read fails, naming the
// checksum error.
func testDeepReadHealsCorruptSource(t *testing.T) {
	failed := []int{0, 1, 3}
	arr, inner := newChecksummedArray(t, 9)
	fillArray(t, arr, 24)
	oracle := make([]byte, arr.Capacity())
	if _, err := arr.ReadAt(oracle, 0); err != nil {
		t.Fatal(err)
	}
	for _, d := range failed {
		if err := arr.FailDisk(d); err != nil {
			t.Fatal(err)
		}
	}
	alive := func(disk int) bool { return !arr.failed[disk] }
	// A deep read runs the tasks Plan.For names, and the first of them reads
	// live strips only; pick a victim with such a source that decodes through
	// its other stripe, and one of that stripe's members.
	var victim int64
	var src, peer layout.Strip
	found := false
	plan := arr.an.Plan(failed, core.PlanOptions{})
search:
	for _, victim = range deepTargets(t, arr) {
		target, cycle := arr.LocateDataStrip(victim)
		if cycle != 0 {
			break // the corruption below addresses cycle 0
		}
		for _, st := range plan.Tasks[plan.For(target)[0]].Reads {
			other := func(disk int) bool { return disk != st.Disk && alive(disk) }
			if info, ok := arr.an.DecodePath(st, other); ok {
				src, peer, found = st, info.Members[(info.Target+1)%len(info.Members)], true
				break search
			}
		}
	}
	if !found {
		t.Fatal("no deep read's first task has a source with an intact other stripe")
	}
	orig := flipByte(t, inner[src.Disk], int64(src.Slot))

	arr.ResetStats()
	p := make([]byte, testStrip)
	if _, err := arr.ReadAt(p, victim*testStrip); err != nil {
		t.Fatalf("deep read with corrupt source: %v", err)
	}
	if !bytes.Equal(p, oracle[victim*testStrip:(victim+1)*testStrip]) {
		t.Fatal("deep read returned wrong content")
	}
	if st := arr.Stats(); st.ReadRepairs != 1 {
		t.Fatalf("corrupt source not healed: %+v", st)
	}
	got := make([]byte, testStrip)
	if err := inner[src.Disk].ReadStrip(int64(src.Slot), got); err != nil || !bytes.Equal(got, orig) {
		t.Fatalf("source strip not restored on media (%v)", err)
	}

	// Unhealable: the source and a member of its other stripe both corrupt.
	flipByte(t, inner[src.Disk], int64(src.Slot))
	flipByte(t, inner[peer.Disk], int64(peer.Slot))
	_, err := arr.ReadAt(p, victim*testStrip)
	if !errors.Is(err, ErrCorrupt) || !bytes.Contains([]byte(err.Error()), []byte("unhealable")) {
		t.Fatalf("read through an unhealable source: %v", err)
	}
}

// TestRebuildHealsCorruptSource: one bad sector on a survivor must not pin
// the array degraded — the rebuild heals the source through its outer
// stripe and completes.
func TestRebuildHealsCorruptSource(t *testing.T) {
	arr, inner := newChecksummedArray(t, 9)
	want := fillArray(t, arr, 25)
	if err := arr.FailDisk(0); err != nil {
		t.Fatal(err)
	}
	src := arr.an.Plan([]int{0}, core.PlanOptions{}).Tasks[0].Reads[0]
	flipByte(t, inner[src.Disk], int64(src.Slot))

	mem, err := NewMemDevice(inner[0].Strips(), testStrip)
	if err != nil {
		t.Fatal(err)
	}
	if err := arr.ReplaceDisk(0, mem); err != nil {
		t.Fatal(err)
	}
	arr.ResetStats()
	if err := arr.Rebuild(); err != nil {
		t.Fatalf("rebuild over a corrupt source: %v", err)
	}
	if st := arr.Stats(); st.ReadRepairs < 1 {
		t.Fatalf("corrupt source not healed: %+v", st)
	}
	if got := hashArray(t, arr); got != want {
		t.Fatal("content differs from the pre-failure oracle")
	}
	if bad, err := arr.Scrub(); err != nil || bad != 0 {
		t.Fatalf("scrub after rebuild: %d bad, %v", bad, err)
	}
}

// TestTornWriteCrashRecovery is the crash/restart leg of the chaos suite:
// a torn write (power cut mid-commit) leaves its redo record in the
// file-backed journal; reopening the images and the journal and replaying
// it restores parity consistency, completes the interrupted write, and
// leaves every other strip matching the oracle.
func TestTornWriteCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	an := oiAnalyzer(t, 9)
	strips := 2 * int64(an.SlotsPerDisk())

	img := func(i int) string { return filepath.Join(dir, fmt.Sprintf("disk%02d.img", i)) }
	faults := make([]*FaultDevice, an.Disks())
	var regions [2]*FileBlob
	open := func(create bool) *Array {
		t.Helper()
		devs := make([]Device, an.Disks())
		for i := range devs {
			var fd *FileDevice
			var err error
			if create {
				fd, err = NewFileDevice(img(i), strips, testStrip)
			} else {
				fd, err = OpenFileDevice(img(i), strips, testStrip)
			}
			if err != nil {
				t.Fatal(err)
			}
			faults[i] = NewFaultDevice(fd, FaultConfig{})
			devs[i] = faults[i]
		}
		arr, err := NewArray(an, devs)
		if err != nil {
			t.Fatal(err)
		}
		for r := range regions {
			b, err := CreateFileBlob(filepath.Join(dir, fmt.Sprintf("meta%d.journal", r)))
			if err != nil {
				t.Fatal(err)
			}
			regions[r] = b
		}
		arr.SetJournal(openTestJournal(t, regions[0], regions[1], an.Disks()))
		return arr
	}

	arr := open(true)
	fillArray(t, arr, 33)
	oracle := make([]byte, arr.Capacity())
	if _, err := arr.ReadAt(oracle, 0); err != nil {
		t.Fatal(err)
	}

	// Tear the next write that lands on the target data strip's disk, then
	// "crash" with the redo record still pending.
	const victim = int64(5) // logical data strip the interrupted write targets
	d, devStrip := arr.locate(victim)
	faults[d].Inject(devStrip, FaultTorn)
	fresh := bytes.Repeat([]byte{0xE7}, arr.StripBytes())
	if _, err := arr.WriteAt(fresh, victim*int64(arr.StripBytes())); err == nil {
		// A nil error would mean the injection never fired.
		t.Fatal("interrupted write reported success")
	}
	copy(oracle[victim*int64(arr.StripBytes()):], fresh) // redo completes the write
	// Crash: abandon the array without recovery; reopen from the files.
	for i := range faults {
		faults[i].Close()
	}
	for _, b := range regions {
		b.Close()
	}

	arr = open(false)
	n, err := arr.RecoverIntent()
	if err != nil {
		t.Fatalf("RecoverIntent: %v", err)
	}
	if n == 0 {
		t.Fatal("journal had no pending closure to replay")
	}
	// Parity is consistent again, whichever half of the interrupted update
	// reached the media.
	if bad, err := arr.Scrub(); err != nil || bad != 0 {
		t.Fatalf("scrub after recovery: %d bad, %v", bad, err)
	}
	got := make([]byte, arr.Capacity())
	if _, err := arr.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, oracle) {
		t.Fatal("content differs from the oracle after crash recovery")
	}
}
