//go:build unix

package store

import (
	"runtime"
	"testing"
	"time"
)

// TestMemDeviceOffHeap: a device's bytes are not on the Go heap, so a
// 64 MiB device barely moves HeapAlloc.
func TestMemDeviceOffHeap(t *testing.T) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	d, err := NewMemDevice(1024, 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.WriteStrip(1023, make([]byte, 64<<10)); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew >= 1<<20 {
		t.Errorf("a 64 MiB device grew HeapAlloc by %d bytes, want < 1 MiB", grew)
	}
	d.Close()
}

// TestDroppedArrayReleasesRegions: an array dropped without Close, after a
// write has put strip scratch in its pool, is collected at the next
// collection, and its devices' finalizers hand every region back to the free
// list. Nothing the runtime keeps for a pool may hold the array, or its
// regions wait out two more collections and the next array of the size maps
// fresh ones.
func TestDroppedArrayReleasesRegions(t *testing.T) {
	arr, err := NewMemArray(oiAnalyzer(t, 9), 1, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := arr.WriteAt(make([]byte, 4096), 0); err != nil {
		t.Fatal(err)
	}
	own := map[*region]bool{} // this array's regions: other tests' come and go
	for _, d := range arr.devs {
		own[d.(*MemDevice).reg] = true
	}
	arr = nil
	runtime.GC()
	released := map[*region]bool{}
	for deadline := time.Now().Add(time.Second); len(released) < len(own) && time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		regions.Lock()
		for r := regions.free; r != nil; r = r.next {
			if own[r] {
				released[r] = true
			}
		}
		regions.Unlock()
	}
	if len(released) != len(own) {
		t.Errorf("%d of %d regions released 1s after one collection", len(released), len(own))
	}
}
