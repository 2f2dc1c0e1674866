package store

import (
	"bytes"
	"errors"
	"testing"

	"github.com/oiraid/oiraid/internal/layout"
)

// newJournalArray builds a volatile array over fault-injectable memory
// devices with a MemBlob journal attached: the shipping write path
// without superblocks.
func newJournalArray(t *testing.T, v int, cycles int64) (*Array, []*FaultDevice, *MetaJournal) {
	t.Helper()
	an := oiAnalyzer(t, v)
	faults := make([]*FaultDevice, an.Disks())
	devs := make([]Device, an.Disks())
	for i := range devs {
		mem, err := NewMemDevice(cycles*int64(an.SlotsPerDisk()), testStrip)
		if err != nil {
			t.Fatal(err)
		}
		faults[i] = NewFaultDevice(mem, FaultConfig{})
		devs[i] = faults[i]
	}
	arr, err := NewArray(an, devs)
	if err != nil {
		t.Fatal(err)
	}
	j := openTestJournal(t, NewMemBlob(), NewMemBlob(), an.Disks())
	arr.SetJournal(j)
	return arr, faults, j
}

// closureOf returns the parity closure of logical data strip dataIdx as
// (target, other members, cycle).
func closureOf(arr *Array, dataIdx int64) (layout.Strip, []layout.Strip, int64) {
	target, cycle := arr.LocateDataStrip(dataIdx)
	var parity []layout.Strip
	for _, st := range arr.Analyzer().UpdateStrips(target) {
		if st != target {
			parity = append(parity, st)
		}
	}
	return target, parity, cycle
}

func pendingCount(t *testing.T, j *MetaJournal) int {
	t.Helper()
	pcs, err := j.PendingClosures()
	if err != nil {
		t.Fatal(err)
	}
	return len(pcs)
}

// TestWriteHoleRecovery simulates the classic crash: a data strip reaches
// the media but its parity updates do not. The journal holds the redo
// record of the whole closure, and RecoverIntent replays it; the stripes
// are consistent again (scrub-clean), the interrupted write is complete,
// and further failures are survivable.
func TestWriteHoleRecovery(t *testing.T) {
	// A volatile array has no write-hole mechanism: recovery is a no-op.
	if n, err := newOIArray(t, 9).RecoverIntent(); err != nil || n != 0 {
		t.Fatalf("volatile recovery = (%d, %v)", n, err)
	}

	arr, faults, j := newJournalArray(t, 9, 2)
	fillArray(t, arr, 21)
	if n := pendingCount(t, j); n != 0 {
		t.Fatalf("%d closures pending after clean writes", n)
	}

	// "Crash": every parity write of the closure tears, the data strip
	// lands whole.
	const victim = int64(5)
	target, parity, cycle := closureOf(arr, victim)
	slots := int64(arr.Analyzer().SlotsPerDisk())
	for _, st := range parity {
		faults[st.Disk].Inject(cycle*slots+int64(st.Slot), FaultTorn)
	}
	fresh := bytes.Repeat([]byte{0xDD}, testStrip)
	if _, err := arr.WriteAt(fresh, victim*testStrip); err == nil {
		t.Fatal("interrupted write reported success")
	}
	if n := pendingCount(t, j); n != 1 {
		t.Fatalf("%d closures pending after the torn commit, want 1", n)
	}
	// The journal gives the array checksums too: the torn parity strips fail
	// theirs, and with the whole closure's parity torn nothing can heal them.
	if _, err := arr.Scrub(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("scrub of the torn commit: %v, want ErrCorrupt", err)
	}

	n, err := arr.RecoverIntent()
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("recovered %d cycles, want 1", n)
	}
	if bad, err := arr.Scrub(); err != nil || bad != 0 {
		t.Fatalf("scrub after recovery: bad=%d err=%v", bad, err)
	}
	if n := pendingCount(t, j); n != 0 {
		t.Fatalf("%d closures pending after recovery", n)
	}
	// Parity now protects the committed data: fail the disk and read it back.
	if err := arr.FailDisk(target.Disk); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, testStrip)
	if _, err := arr.ReadAt(got, victim*testStrip); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, fresh) {
		t.Fatal("recovered parity does not protect the committed data")
	}
}

// TestWriteHoleRecoveryDegraded is the case parity recomputation could
// never serve: a commit tears and then a disk of its closure fails, so no
// authoritative copy is left to recompute from. Replaying the redo record
// needs none: the array reads back bit-identical to the oracle while
// degraded, and again — scrub-clean — after the rebuild.
func TestWriteHoleRecoveryDegraded(t *testing.T) {
	arr, faults, _ := newJournalArray(t, 9, 2)
	fillArray(t, arr, 22)
	oracle := make([]byte, arr.Capacity())
	if _, err := arr.ReadAt(oracle, 0); err != nil {
		t.Fatal(err)
	}

	const victim = int64(7)
	target, parity, cycle := closureOf(arr, victim)
	slots := int64(arr.Analyzer().SlotsPerDisk())
	faults[target.Disk].Inject(cycle*slots+int64(target.Slot), FaultTorn)
	fresh := bytes.Repeat([]byte{0x5C}, testStrip)
	if _, err := arr.WriteAt(fresh, victim*testStrip); err == nil {
		t.Fatal("interrupted write reported success")
	}
	copy(oracle[victim*testStrip:], fresh) // redo completes the write

	lost := parity[0].Disk
	if err := arr.FailDisk(lost); err != nil {
		t.Fatal(err)
	}
	if n, err := arr.RecoverIntent(); err != nil || n != 1 {
		t.Fatalf("degraded recovery = (%d, %v), want (1, nil)", n, err)
	}
	got := make([]byte, arr.Capacity())
	if _, err := arr.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, oracle) {
		t.Fatal("degraded read differs from the oracle after replay")
	}

	spare, err := NewMemDevice(2*slots, testStrip)
	if err != nil {
		t.Fatal(err)
	}
	if err := arr.ReplaceDisk(lost, spare); err != nil {
		t.Fatal(err)
	}
	if err := arr.Rebuild(); err != nil {
		t.Fatal(err)
	}
	if bad, err := arr.Scrub(); err != nil || bad != 0 {
		t.Fatalf("scrub after rebuild: bad=%d err=%v", bad, err)
	}
	if _, err := arr.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, oracle) {
		t.Fatal("rebuilt array differs from the oracle")
	}
}
