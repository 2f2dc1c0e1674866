package store

import (
	"syscall"
	"testing"
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

// TestRebuildEmptyFaultsNoPages: rebuilding a disk of an array nobody wrote
// onto a fresh 16 MiB device reconstructs only zero strips, so it touches
// none of the device's pages: a few faults, not one per page (4096 when
// each zero strip was stored).
func TestRebuildEmptyFaultsNoPages(t *testing.T) {
	const stripBytes = 4096
	an := oiAnalyzer(t, 9)
	arr, err := NewMemArray(an, 4096/int64(an.SlotsPerDisk()), stripBytes)
	if err != nil {
		t.Fatal(err)
	}
	rebuild := func(d int) int64 {
		t.Helper()
		if err := arr.FailDisk(d); err != nil {
			t.Fatal(err)
		}
		fresh, err := NewMemDevice(arr.devs[d].Strips(), stripBytes)
		if err != nil {
			t.Fatal(err)
		}
		before := minorFaults(t)
		if err := arr.ReplaceDisk(d, fresh); err != nil {
			t.Fatal(err)
		}
		if err := arr.Rebuild(); err != nil {
			t.Fatal(err)
		}
		return minorFaults(t) - before
	}
	rebuild(0) // the first rebuild fills the scratch pool
	if faults := rebuild(1); faults >= 64 {
		t.Errorf("rebuilding an empty 16 MiB disk took %d minor faults, want < 64", faults)
	}
}
