package store

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"testing"
	"time"
)

// flipStrip XORs every byte of strip idx of dev with mask, behind the back
// of any array over it.
func flipStrip(t *testing.T, dev Device, idx int64, mask byte) {
	t.Helper()
	buf := make([]byte, dev.StripBytes())
	if err := dev.ReadStrip(idx, buf); err != nil {
		t.Fatal(err)
	}
	for i := range buf {
		buf[i] ^= mask
	}
	if err := dev.WriteStrip(idx, buf); err != nil {
		t.Fatal(err)
	}
}

// deviceImage reads every strip of dev into one byte slice.
func deviceImage(t testing.TB, dev Device) []byte {
	t.Helper()
	img := make([]byte, dev.Strips()*int64(dev.StripBytes()))
	for idx := int64(0); idx < dev.Strips(); idx++ {
		if err := dev.ReadStrip(idx, img[idx*int64(dev.StripBytes()):][:dev.StripBytes()]); err != nil {
			t.Fatal(err)
		}
	}
	return img
}

// onFreeList reports whether r waits on the free list for its next device.
func onFreeList(r *region) bool {
	regions.Lock()
	defer regions.Unlock()
	for p := regions.free; p != nil; p = p.next {
		if p == r {
			return true
		}
	}
	return false
}

// collectUntil runs collections until onFreeList(r) is want.
func collectUntil(t *testing.T, r *region, want bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); onFreeList(r) != want; {
		if time.Now().After(deadline) {
			t.Fatalf("region on the free list = %v after 10 s of collections, want %v", !want, want)
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
}

// writtenRegion builds a device, fills every strip with 0xa5 and returns its
// region; with closeIt the device is closed, otherwise it is dropped.
func writtenRegion(t *testing.T, strips int64, stripBytes int, closeIt bool) *region {
	t.Helper()
	d, err := NewMemDevice(strips, stripBytes)
	if err != nil {
		t.Fatal(err)
	}
	p := bytes.Repeat([]byte{0xa5}, stripBytes)
	for i := int64(0); i < strips; i++ {
		if err := d.WriteStrip(i, p); err != nil {
			t.Fatal(err)
		}
	}
	r := d.reg
	if closeIt {
		d.Close()
	}
	return r
}

// TestMemDeviceRegionReuse: a region released by Close, or by the collector
// once its device is unreachable, is the next same-size device's, and that
// device reads all zeros.
func TestMemDeviceRegionReuse(t *testing.T) {
	const strips, stripBytes = 3, 4093 // a size no other test uses
	for _, closeIt := range []bool{true, false} {
		r := writtenRegion(t, strips, stripBytes, closeIt)
		collectUntil(t, r, true)
		d, err := NewMemDevice(strips, stripBytes)
		if err != nil {
			t.Fatal(err)
		}
		if d.reg != r {
			t.Fatalf("close=%v: the released region was not reused", closeIt)
		}
		buf := make([]byte, stripBytes)
		for i := int64(0); i < strips; i++ {
			if err := d.ReadStrip(i, buf); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf, make([]byte, stripBytes)) {
				t.Fatalf("close=%v: strip %d of a reused region is not zero", closeIt, i)
			}
		}
		d.Close()
	}
}

// TestMemDeviceSparse: a region whose last device wrote every strip, taken
// by a device of another strip size with the same byte count, reads zero on
// every strip; and a strip written there reads back exactly.
func TestMemDeviceSparse(t *testing.T) {
	const strips, stripBytes = 6, 4084 // a size no other test uses
	r := writtenRegion(t, strips, stripBytes, true)
	d, err := NewMemDevice(2*strips, stripBytes/2)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if d.reg != r {
		t.Fatal("the released region was not reused")
	}
	if img := deviceImage(t, d); !bytes.Equal(img, make([]byte, len(img))) {
		t.Fatal("a reused region reads bytes its last device wrote")
	}
	p := bytes.Repeat([]byte{0x3c}, stripBytes/2)
	if err := d.WriteStrip(5, p); err != nil {
		t.Fatal(err)
	}
	want := make([]byte, strips*stripBytes)
	copy(want[5*len(p):], p)
	if !bytes.Equal(deviceImage(t, d), want) {
		t.Fatal("after one strip write the device does not read that strip and zeros")
	}
}

// TestAllZero: the zero test finds a single non-zero byte at any offset of
// buffers of every length across the four-word blocks and the byte tail.
func TestAllZero(t *testing.T) {
	for n := 0; n <= 100; n++ {
		p := make([]byte, n)
		if !allZero(p) {
			t.Fatalf("%d zero bytes read non-zero", n)
		}
		for i := range p {
			p[i] = 0x80
			if allZero(p) {
				t.Fatalf("%d bytes with byte %d set read zero", n, i)
			}
			p[i] = 0
		}
	}
}

// TestZeroWritesStaySparse: a rebuild and a migration copy of an array
// whose first half was written leave the strips of the replacement and of
// the destination that hold zeros unwritten, and both read back exactly
// the device they stand in for. So does a zero strip written where the
// device never wrote; one written over data is stored.
func TestZeroWritesStaySparse(t *testing.T) {
	arr, err := NewMemArray(oiAnalyzer(t, 9), 4, testStrip)
	if err != nil {
		t.Fatal(err)
	}
	half := make([]byte, arr.Capacity()/2)
	rand.New(rand.NewSource(40)).Read(half)
	if _, err := arr.WriteAt(half, 0); err != nil {
		t.Fatal(err)
	}
	// sparseCopy checks that dev holds img and has written exactly the
	// strips of img that are not all zero, of which there are some but
	// not all.
	sparseCopy := func(what string, dev *MemDevice, img []byte) {
		t.Helper()
		if !bytes.Equal(deviceImage(t, dev), img) {
			t.Fatalf("%s does not read back the device it replaces", what)
		}
		var written int64
		for i := int64(0); i < dev.strips; i++ {
			zero := allZero(img[i*testStrip:][:testStrip])
			if dev.written.has(i) == zero {
				t.Fatalf("%s strip %d: written=%v, all zero=%v", what, i, dev.written.has(i), zero)
			}
			if !zero {
				written++
			}
		}
		if written == 0 || written == dev.strips {
			t.Fatalf("%s wrote %d of %d strips; a half-written array has both kinds", what, written, dev.strips)
		}
	}

	const lost, moved = 2, 5
	img := deviceImage(t, arr.devs[lost])
	if err := arr.FailDisk(lost); err != nil {
		t.Fatal(err)
	}
	fresh, err := NewMemDevice(arr.devs[lost].Strips(), testStrip)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	if err := arr.ReplaceDisk(lost, fresh); err != nil {
		t.Fatal(err)
	}
	if err := arr.Rebuild(); err != nil {
		t.Fatal(err)
	}
	sparseCopy("the rebuilt replacement", fresh, img)

	dst, err := NewMemDevice(arr.devs[moved].Strips(), testStrip)
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()
	if err := arr.StartMirror(moved, dst); err != nil {
		t.Fatal(err)
	}
	for c := int64(0); c < arr.Cycles(); c++ {
		if err := arr.CopyMirrorCycle(moved, c); err != nil {
			t.Fatal(err)
		}
	}
	sparseCopy("the migration destination", dst, deviceImage(t, arr.devs[moved]))

	zeros := make([]byte, testStrip)
	last := dst.strips - 1
	if err := dst.WriteStrip(last, zeros); err != nil || dst.written.has(last) {
		t.Fatalf("a zero strip written where the device never wrote: err %v, written %v", err, dst.written.has(last))
	}
	if err := dst.WriteStrip(0, zeros); err != nil {
		t.Fatal(err)
	}
	if img := deviceImage(t, dst); !allZero(img[:testStrip]) {
		t.Fatal("a zero strip written over data does not read zero")
	}
}

// TestCrashSurvivorSparse: a crash device's survivor, built on a region its
// last device filled, holds exactly the durable bytes — whole strips, a torn
// prefix, zero elsewhere.
func TestCrashSurvivorSparse(t *testing.T) {
	const strips, stripBytes = 7, 4082 // a size no other test uses
	r := writtenRegion(t, strips, stripBytes, true)
	ctl := NewCrashController(3)
	d, err := NewCrashDevice(ctl, strips, stripBytes)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.WriteStrip(2, bytes.Repeat([]byte{0x11}, stripBytes)); err != nil {
		t.Fatal(err)
	}
	ctl.Arm(0)
	if err := d.WriteStrip(4, bytes.Repeat([]byte{0x22}, stripBytes)); !errors.Is(err, ErrCrashed) {
		t.Fatalf("write at the cut: %v, want ErrCrashed", err)
	}
	m, err := d.Survivor()
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if m.reg != r {
		t.Fatal("the survivor did not reuse the released region")
	}
	if !bytes.Equal(deviceImage(t, m), d.data) {
		t.Fatal("the survivor differs from the durable image")
	}
}

// TestMemDeviceRegionsConcurrent: devices of one size built, written, closed
// or dropped from several goroutines while collections run each start out
// all zeros.
func TestMemDeviceRegionsConcurrent(t *testing.T) {
	const stripBytes = 4087 // a size no other test uses
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			buf := make([]byte, stripBytes)
			for i := 0; i < 50; i++ {
				d, err := NewMemDevice(2, stripBytes)
				if err != nil {
					t.Error(err)
					return
				}
				if err := d.ReadStrip(1, buf); err != nil || !bytes.Equal(buf, make([]byte, stripBytes)) {
					t.Errorf("a new device's strip is not zero (err %v)", err)
					return
				}
				d.WriteStrip(1, bytes.Repeat([]byte{byte(g + 1)}, stripBytes))
				if i%2 == 0 {
					d.Close()
				}
				if i%10 == 0 {
					runtime.GC()
				}
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		<-done
	}
}

// TestMemDeviceRegionUnmapped: a released region no device takes leaves the
// free list within a few collections.
func TestMemDeviceRegionUnmapped(t *testing.T) {
	r := writtenRegion(t, 5, 4091, true)
	if !onFreeList(r) {
		t.Fatal("Close did not release the region")
	}
	collectUntil(t, r, false)
}

// TestMemDeviceClose: closing twice is harmless, I/O after Close fails with
// ErrClosed, and Strips races nothing.
func TestMemDeviceClose(t *testing.T) {
	d, err := NewMemDevice(4, 512)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			if d.Strips() != 4 {
				t.Error("Strips changed")
			}
		}
	}()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	<-done
	if err := d.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	buf := make([]byte, 512)
	if err := d.ReadStrip(0, buf); !errors.Is(err, ErrClosed) {
		t.Errorf("read after Close: %v, want ErrClosed", err)
	}
	if err := d.WriteStrip(0, buf); !errors.Is(err, ErrClosed) {
		t.Errorf("write after Close: %v, want ErrClosed", err)
	}
}

// TestDeviceRefusesOverflowingGeometry: a geometry whose byte size does not
// fit an int64 is refused by every device constructor. Unchecked, 2⁶¹+1
// strips of 8 bytes wrap to an 8-byte device whose first strip past the
// second panics its reader.
func TestDeviceRefusesOverflowingGeometry(t *testing.T) {
	path := filepath.Join(t.TempDir(), "d.img")
	for _, g := range []struct {
		strips     int64
		stripBytes int
	}{{1<<61 + 1, 8}, {math.MaxInt64, 2}, {2, math.MaxInt}, {0, 8}, {8, 0}} {
		if _, err := NewMemDevice(g.strips, g.stripBytes); !errors.Is(err, ErrBadGeometry) {
			t.Errorf("NewMemDevice(%d, %d): %v, want ErrBadGeometry", g.strips, g.stripBytes, err)
		}
		if _, err := NewFileDevice(path, g.strips, g.stripBytes); !errors.Is(err, ErrBadGeometry) {
			t.Errorf("NewFileDevice(%d, %d): %v, want ErrBadGeometry", g.strips, g.stripBytes, err)
		}
		if _, err := OpenFileDevice(path, g.strips, g.stripBytes); !errors.Is(err, ErrBadGeometry) {
			t.Errorf("OpenFileDevice(%d, %d): %v, want ErrBadGeometry", g.strips, g.stripBytes, err)
		}
	}
	if n, err := DeviceBytes(1<<20, 4096); err != nil || n != 1<<32 {
		t.Fatalf("DeviceBytes(2^20, 4096) = %d, %v", n, err)
	}
}

// BenchmarkNewMemDevice builds a 16 MiB device, writes one strip and closes
// it: on a fresh region, mapped and unmapped each time, and on the region
// the last iteration released.
func BenchmarkNewMemDevice(b *testing.B) {
	const strips, stripBytes = 4096, 4096
	p := make([]byte, stripBytes)
	for _, fresh := range []bool{true, false} {
		name := "recycled"
		if fresh {
			name = "fresh"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				d, err := NewMemDevice(strips, stripBytes)
				if err != nil {
					b.Fatal(err)
				}
				if err := d.WriteStrip(int64(i%strips), p); err != nil {
					b.Fatal(err)
				}
				r := d.reg
				d.Close()
				if fresh {
					unmapReleased(r)
				}
			}
		})
	}
}

// unmapReleased takes r off the free list and unmaps it, so the next device
// of its size maps a fresh region. A region a collection already unmapped
// is not on the list.
func unmapReleased(r *region) {
	regions.Lock()
	defer regions.Unlock()
	for p := &regions.free; *p != nil; p = &(*p).next {
		if *p == r {
			*p = r.next
			unmapRegion(r.b)
			return
		}
	}
}
