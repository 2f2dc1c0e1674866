package store

import (
	"syscall"
	"testing"
	"unsafe"
)

// minorFaults returns the process's minor page faults so far.
func minorFaults(t *testing.T) int64 {
	t.Helper()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatal(err)
	}
	return ru.Minflt
}

// TestNewMemDeviceFaultsNoPages: a device on a recycled 16 MiB region whose
// last device wrote one strip touches none of the region's pages, so it
// costs a few faults, not one per page (4096 when the region was cleared).
func TestNewMemDeviceFaultsNoPages(t *testing.T) {
	const strips, stripBytes = 4096, 4096
	d, err := NewMemDevice(strips, stripBytes)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.WriteStrip(7, make([]byte, stripBytes)); err != nil {
		t.Fatal(err)
	}
	r := d.reg
	d.Close()
	before := minorFaults(t)
	d, err = NewMemDevice(strips, stripBytes)
	faults := minorFaults(t) - before
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if d.reg != r {
		t.Fatal("the released region was not reused")
	}
	if faults >= 64 {
		t.Errorf("NewMemDevice on a recycled 16 MiB region took %d minor faults, want < 64", faults)
	}
}

// residentPages reports which pages of the mapped region b are resident.
func residentPages(t *testing.T, b []byte) []bool {
	t.Helper()
	page := syscall.Getpagesize()
	vec := make([]byte, (len(b)+page-1)/page)
	if _, _, errno := syscall.Syscall(syscall.SYS_MINCORE, uintptr(unsafe.Pointer(&b[0])), uintptr(len(b)), uintptr(unsafe.Pointer(&vec[0]))); errno != 0 {
		t.Fatalf("mincore: %v", errno)
	}
	res := make([]bool, len(vec))
	for i, v := range vec {
		res[i] = v&1 != 0
	}
	return res
}

// TestRebuildEmptyFaultsNoPages: rebuilding a disk of an array nobody wrote
// onto a fresh 16 MiB device reconstructs only zero strips, so it touches
// none of the device's pages: a few become resident, not one per page (4096
// when each zero strip was stored). It counts the pages of the device's own
// region, which no other part of the process — the race detector's runtime
// included — makes resident.
func TestRebuildEmptyFaultsNoPages(t *testing.T) {
	const stripBytes = 4096
	an := oiAnalyzer(t, 9)
	arr, err := NewMemArray(an, 4096/int64(an.SlotsPerDisk()), stripBytes)
	if err != nil {
		t.Fatal(err)
	}
	if err := arr.FailDisk(1); err != nil {
		t.Fatal(err)
	}
	fresh, err := NewMemDevice(arr.devs[1].Strips(), stripBytes)
	if err != nil {
		t.Fatal(err)
	}
	before := residentPages(t, fresh.reg.b)
	if err := arr.ReplaceDisk(1, fresh); err != nil {
		t.Fatal(err)
	}
	if err := arr.Rebuild(); err != nil {
		t.Fatal(err)
	}
	touched := 0
	for i, now := range residentPages(t, fresh.reg.b) {
		if now && !before[i] {
			touched++
		}
	}
	if touched >= 64 {
		t.Errorf("rebuilding an empty 16 MiB disk made %d of its pages resident, want < 64", touched)
	}
}
