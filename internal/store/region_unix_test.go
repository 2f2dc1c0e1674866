//go:build unix

package store

import (
	"runtime"
	"testing"
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
