package store

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/oiraid/oiraid/internal/bibd"
	"github.com/oiraid/oiraid/internal/core"
	"github.com/oiraid/oiraid/internal/layout"
)

const testStrip = 512

func oiAnalyzer(t testing.TB, v int) *core.Analyzer {
	t.Helper()
	d, err := bibd.ForArray(v)
	if err != nil {
		t.Fatal(err)
	}
	s, err := layout.NewOIRAID(d)
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.NewAnalyzer(s)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func newOIArray(t testing.TB, v int) *Array {
	t.Helper()
	arr, err := NewMemArray(oiAnalyzer(t, v), 2, testStrip)
	if err != nil {
		t.Fatal(err)
	}
	return arr
}

func analyzerFor(t testing.TB, s layout.Scheme, err error) *core.Analyzer {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.NewAnalyzer(s)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// fillArray writes a deterministic pattern over the whole data space and
// returns its hash.
func fillArray(t testing.TB, arr *Array, seed int64) [32]byte {
	t.Helper()
	content := make([]byte, arr.Capacity())
	rng := rand.New(rand.NewSource(seed))
	for i := range content {
		content[i] = byte(rng.Intn(256))
	}
	if n, err := arr.WriteAt(content, 0); err != nil || int64(n) != arr.Capacity() {
		t.Fatalf("fill: wrote %d of %d: %v", n, arr.Capacity(), err)
	}
	return sha256.Sum256(content)
}

func hashArray(t testing.TB, arr *Array) [32]byte {
	t.Helper()
	content := make([]byte, arr.Capacity())
	if n, err := arr.ReadAt(content, 0); err != nil || int64(n) != arr.Capacity() {
		t.Fatalf("read back %d of %d: %v", n, arr.Capacity(), err)
	}
	return sha256.Sum256(content)
}

func TestMemDeviceRoundTrip(t *testing.T) {
	dev, err := NewMemDevice(10, 64)
	if err != nil {
		t.Fatal(err)
	}
	p := bytes.Repeat([]byte{0xAB}, 64)
	if err := dev.WriteStrip(3, p); err != nil {
		t.Fatal(err)
	}
	q := make([]byte, 64)
	if err := dev.ReadStrip(3, q); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p, q) {
		t.Fatal("content mismatch")
	}
	if err := dev.ReadStrip(10, q); !errors.Is(err, ErrStripOutOfRange) {
		t.Fatalf("expected ErrStripOutOfRange, got %v", err)
	}
	if err := dev.WriteStrip(0, q[:10]); err == nil {
		t.Fatal("short buffer must fail")
	}
	if err := dev.Close(); err != nil {
		t.Fatal(err)
	}
	if err := dev.ReadStrip(0, q); !errors.Is(err, ErrClosed) {
		t.Fatalf("expected ErrClosed, got %v", err)
	}
	if _, err := NewMemDevice(0, 64); err == nil {
		t.Fatal("zero strips must fail")
	}
}

func TestFileDeviceRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "disk0.img")
	dev, err := NewFileDevice(path, 8, 128)
	if err != nil {
		t.Fatal(err)
	}
	defer dev.Close()
	p := bytes.Repeat([]byte{0x5C}, 128)
	if err := dev.WriteStrip(7, p); err != nil {
		t.Fatal(err)
	}
	q := make([]byte, 128)
	if err := dev.ReadStrip(7, q); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p, q) {
		t.Fatal("content mismatch")
	}
	if err := dev.ReadStrip(8, q); !errors.Is(err, ErrStripOutOfRange) {
		t.Fatalf("expected ErrStripOutOfRange, got %v", err)
	}
	if err := dev.Close(); err != nil {
		t.Fatal(err)
	}
	if err := dev.WriteStrip(0, p); !errors.Is(err, ErrClosed) {
		t.Fatalf("expected ErrClosed, got %v", err)
	}
}

func TestArrayWriteReadRoundTrip(t *testing.T) {
	arr := newOIArray(t, 9)
	want := fillArray(t, arr, 1)
	if got := hashArray(t, arr); got != want {
		t.Fatal("read-back hash differs from written content")
	}
	if bad, err := arr.Scrub(); err != nil || bad != 0 {
		t.Fatalf("scrub: bad=%d err=%v", bad, err)
	}
}

func TestArrayUnalignedIO(t *testing.T) {
	arr := newOIArray(t, 9)
	fillArray(t, arr, 2)
	patch := []byte("hello, unaligned world")
	off := int64(testStrip - 7) // crosses a strip boundary
	if _, err := arr.WriteAt(patch, off); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(patch))
	if _, err := arr.ReadAt(got, off); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, patch) {
		t.Fatalf("got %q, want %q", got, patch)
	}
	if bad, err := arr.Scrub(); err != nil || bad != 0 {
		t.Fatalf("scrub after unaligned write: bad=%d err=%v", bad, err)
	}
}

func TestArrayEOF(t *testing.T) {
	arr := newOIArray(t, 9)
	buf := make([]byte, 10)
	if _, err := arr.ReadAt(buf, arr.Capacity()); !errors.Is(err, io.EOF) {
		t.Fatalf("expected EOF, got %v", err)
	}
	if _, err := arr.ReadAt(buf, -1); err == nil {
		t.Fatal("negative offset must fail")
	}
	if _, err := arr.WriteAt(buf, arr.Capacity()-5); !errors.Is(err, io.ErrShortWrite) {
		t.Fatalf("expected ErrShortWrite, got %v", err)
	}
}

// TestDegradedReadsUpToThreeFailures: OI-RAID content stays fully readable
// with 1, 2, and 3 failed disks.
func TestDegradedReadsUpToThreeFailures(t *testing.T) {
	arr := newOIArray(t, 9)
	want := fillArray(t, arr, 3)
	for _, d := range []int{0, 4, 8} {
		if err := arr.FailDisk(d); err != nil {
			t.Fatal(err)
		}
		if got := hashArray(t, arr); got != want {
			t.Fatalf("content changed after failing disk %d", d)
		}
	}
	stats := arr.Stats()
	if stats.DegradedReads == 0 {
		t.Fatal("expected degraded reads")
	}
}

// TestRebuildRestoresContent: kill three disks, rebuild onto fresh
// devices, verify hash and parity consistency.
func TestRebuildRestoresContent(t *testing.T) {
	arr := newOIArray(t, 9)
	want := fillArray(t, arr, 4)
	for _, d := range []int{1, 3, 5} {
		if err := arr.FailDisk(d); err != nil {
			t.Fatal(err)
		}
	}
	if err := arr.Rebuild(); !errors.Is(err, ErrNoReplacement) {
		t.Fatalf("rebuild without replacements: %v", err)
	}
	for _, d := range []int{1, 3, 5} {
		dev, err := NewMemDevice(2*int64(arr.an.SlotsPerDisk()), testStrip)
		if err != nil {
			t.Fatal(err)
		}
		if err := arr.ReplaceDisk(d, dev); err != nil {
			t.Fatal(err)
		}
	}
	if err := arr.Rebuild(); err != nil {
		t.Fatal(err)
	}
	if len(arr.FailedDisks()) != 0 {
		t.Fatal("failure flags not cleared")
	}
	if got := hashArray(t, arr); got != want {
		t.Fatal("content differs after rebuild")
	}
	if bad, err := arr.Scrub(); err != nil || bad != 0 {
		t.Fatalf("scrub after rebuild: bad=%d err=%v", bad, err)
	}
}

// TestWritesDuringDegradedMode: writes to strips on a failed disk update
// the live parities, and the rebuild reconstructs the *new* content.
func TestWritesDuringDegradedMode(t *testing.T) {
	arr := newOIArray(t, 9)
	fillArray(t, arr, 5)
	if err := arr.FailDisk(2); err != nil {
		t.Fatal(err)
	}
	// Overwrite the whole data space while degraded.
	content := make([]byte, arr.Capacity())
	rng := rand.New(rand.NewSource(99))
	for i := range content {
		content[i] = byte(rng.Intn(256))
	}
	if _, err := arr.WriteAt(content, 0); err != nil {
		t.Fatal(err)
	}
	// Degraded reads must already see the new content.
	got := make([]byte, arr.Capacity())
	if _, err := arr.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content) {
		t.Fatal("degraded read returned stale content")
	}
	// Rebuild and verify.
	dev, err := NewMemDevice(2*int64(arr.an.SlotsPerDisk()), testStrip)
	if err != nil {
		t.Fatal(err)
	}
	if err := arr.ReplaceDisk(2, dev); err != nil {
		t.Fatal(err)
	}
	if err := arr.Rebuild(); err != nil {
		t.Fatal(err)
	}
	if _, err := arr.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content) {
		t.Fatal("rebuilt content differs from degraded-mode writes")
	}
	if bad, err := arr.Scrub(); err != nil || bad != 0 {
		t.Fatalf("scrub: bad=%d err=%v", bad, err)
	}
}

// TestUpdateIOCounts pins the measured small-write cost: OI-RAID performs
// 4 reads + 4 writes per aligned strip write, RAID5 2+2, RAID6 3+3.
func TestUpdateIOCounts(t *testing.T) {
	cases := []struct {
		name       string
		an         *core.Analyzer
		wantRW     int64
		wantWrites int64
	}{
		{"oi-raid", oiAnalyzer(t, 9), 4, 4},
	}
	r5, err := layout.NewRAID5(5)
	cases = append(cases, struct {
		name       string
		an         *core.Analyzer
		wantRW     int64
		wantWrites int64
	}{"raid5", analyzerFor(t, r5, err), 2, 2})
	r6, err := layout.NewRAID6(6)
	cases = append(cases, struct {
		name       string
		an         *core.Analyzer
		wantRW     int64
		wantWrites int64
	}{"raid6", analyzerFor(t, r6, err), 3, 3})

	for _, tc := range cases {
		arr, err := NewMemArray(tc.an, 1, testStrip)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, testStrip)
		arr.ResetStats()
		if _, err := arr.WriteAt(buf, 0); err != nil {
			t.Fatal(err)
		}
		st := arr.Stats()
		if st.ReadOps != tc.wantRW || st.WriteOps != tc.wantWrites {
			t.Errorf("%s: update cost %d reads / %d writes, want %d/%d",
				tc.name, st.ReadOps, st.WriteOps, tc.wantRW, tc.wantWrites)
		}
	}
}

// TestRAID6ArrayWithRS: the multi-parity delta path produces consistent
// parity (scrub-clean) and survives two failures.
func TestRAID6ArrayWithRS(t *testing.T) {
	r6, err := layout.NewRAID6(6)
	an := analyzerFor(t, r6, err)
	arr, err := NewMemArray(an, 2, testStrip)
	if err != nil {
		t.Fatal(err)
	}
	want := fillArray(t, arr, 6)
	if bad, err := arr.Scrub(); err != nil || bad != 0 {
		t.Fatalf("scrub: bad=%d err=%v", bad, err)
	}
	for _, d := range []int{0, 3} {
		if err := arr.FailDisk(d); err != nil {
			t.Fatal(err)
		}
	}
	if got := hashArray(t, arr); got != want {
		t.Fatal("raid6 degraded read mismatch")
	}
	for _, d := range []int{0, 3} {
		dev, _ := NewMemDevice(2*int64(an.SlotsPerDisk()), testStrip)
		if err := arr.ReplaceDisk(d, dev); err != nil {
			t.Fatal(err)
		}
	}
	if err := arr.Rebuild(); err != nil {
		t.Fatal(err)
	}
	if got := hashArray(t, arr); got != want {
		t.Fatal("raid6 rebuild mismatch")
	}
}

func TestDataLossReported(t *testing.T) {
	r5, err := layout.NewRAID5(5)
	an := analyzerFor(t, r5, err)
	arr, err := NewMemArray(an, 1, testStrip)
	if err != nil {
		t.Fatal(err)
	}
	fillArray(t, arr, 7)
	arr.FailDisk(0)
	arr.FailDisk(1)
	buf := make([]byte, testStrip)
	if _, err := arr.ReadAt(buf, 0); err == nil {
		t.Fatal("double failure on raid5 must surface data loss on read")
	}
	for _, d := range []int{0, 1} {
		dev, _ := NewMemDevice(int64(an.SlotsPerDisk()), testStrip)
		arr.ReplaceDisk(d, dev)
	}
	if err := arr.Rebuild(); !errors.Is(err, ErrTooManyFailures) {
		t.Fatalf("expected ErrTooManyFailures, got %v", err)
	}
}

func TestNewArrayValidation(t *testing.T) {
	an := oiAnalyzer(t, 9)
	if _, err := NewArray(an, make([]Device, 3)); err == nil {
		t.Fatal("wrong device count must fail")
	}
	if _, err := NewMemArray(an, 0, testStrip); err == nil {
		t.Fatal("zero cycles must fail")
	}
	// Mismatched strip sizes.
	devs := make([]Device, an.Disks())
	for i := range devs {
		sb := testStrip
		if i == 2 {
			sb = testStrip * 2
		}
		dev, err := NewMemDevice(int64(an.SlotsPerDisk()), sb)
		if err != nil {
			t.Fatal(err)
		}
		devs[i] = dev
	}
	if _, err := NewArray(an, devs); err == nil {
		t.Fatal("mismatched strip sizes must fail")
	}
}

func TestFileBackedArray(t *testing.T) {
	an := oiAnalyzer(t, 9)
	dir := t.TempDir()
	devs := make([]Device, an.Disks())
	for i := range devs {
		dev, err := NewFileDevice(filepath.Join(dir, "disk"+string(rune('a'+i))+".img"),
			int64(an.SlotsPerDisk()), testStrip)
		if err != nil {
			t.Fatal(err)
		}
		devs[i] = dev
	}
	arr, err := NewArray(an, devs)
	if err != nil {
		t.Fatal(err)
	}
	want := fillArray(t, arr, 8)
	if got := hashArray(t, arr); got != want {
		t.Fatal("file-backed round trip failed")
	}
	if bad, err := arr.Scrub(); err != nil || bad != 0 {
		t.Fatalf("scrub: bad=%d err=%v", bad, err)
	}
}

// benchShape is an OI-RAID array size v and a strip size.
type benchShape struct{ v, stripBytes int }

// benchShapes are the geometries of the benchmark's strip workloads: the
// 9-disk array at 4 and 64 KiB strips, and the 25-disk one at 64 KiB.
var benchShapes = []benchShape{{9, 4 << 10}, {9, 64 << 10}, {25, 64 << 10}}

// benchArray runs a benchmark on a two-cycle OI-RAID array of each of
// shapes, named by strip size, with a "v25/" prefix off the 9-disk array.
func benchArray(b *testing.B, shapes []benchShape, run func(b *testing.B, arr *Array, buf []byte)) {
	for _, sh := range shapes {
		name := fmt.Sprintf("%dK", sh.stripBytes>>10)
		if sh.v != 9 {
			name = fmt.Sprintf("v%d/%s", sh.v, name)
		}
		b.Run(name, func(b *testing.B) {
			arr, err := NewMemArray(oiAnalyzer(b, sh.v), 2, sh.stripBytes)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(sh.stripBytes))
			b.ReportAllocs()
			run(b, arr, make([]byte, sh.stripBytes))
		})
	}
}

func BenchmarkArrayWrite(b *testing.B) {
	benchArray(b, benchShapes, func(b *testing.B, arr *Array, buf []byte) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			off := (int64(i) * int64(len(buf))) % arr.Capacity()
			if _, err := arr.WriteAt(buf, off); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkArrayDegradedRead reads only strips of the failed disk, so every
// iteration is a one-hop reconstruction.
func BenchmarkArrayDegradedRead(b *testing.B) {
	benchArray(b, benchShapes, func(b *testing.B, arr *Array, buf []byte) {
		arr.FailDisk(0)
		var lost []int64
		for i := int64(0); i < arr.Capacity()/int64(len(buf)); i++ {
			if arr.DataStripDisk(i) == 0 {
				lost = append(lost, i*int64(len(buf)))
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := arr.ReadAt(buf, lost[i%len(lost)]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkArrayDeepRead reads, under the bench's pinned three-disk set, only
// strips that no single stripe decodes, so every iteration looks its two
// tasks up in the array's recovery plan and runs them. The set is the
// 9-disk array's; on the 25-disk one it leaves every strip one hop away.
func BenchmarkArrayDeepRead(b *testing.B) {
	benchArray(b, benchShapes[:2], func(b *testing.B, arr *Array, buf []byte) {
		for _, d := range []int{0, 1, 3} {
			arr.FailDisk(d)
		}
		deep := deepTargets(b, arr)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := arr.ReadAt(buf, deep[i%len(deep)]*int64(len(buf))); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestRepairFixesSilentParityCorruption: corrupt a parity strip directly
// on a device; Scrub detects it and Fsck(true) recomputes it, including
// the cascading inner-parity fix when the corrupted strip is an outer
// parity.
func TestRepairFixesSilentParityCorruption(t *testing.T) {
	an := oiAnalyzer(t, 9)
	arr, err := NewMemArray(an, 1, testStrip)
	if err != nil {
		t.Fatal(err)
	}
	want := fillArray(t, arr, 44)

	// Locate an outer parity strip: in a stripe with Layer outer, the
	// last member.
	var victim layout.Strip
	for _, s := range an.Scheme().Stripes() {
		if s.Layer == layout.LayerOuter {
			victim = s.Strips[len(s.Strips)-1]
			break
		}
	}
	// Corrupt it behind the array's back.
	raw := make([]byte, testStrip)
	dev := arr.devs[victim.Disk]
	if err := dev.ReadStrip(int64(victim.Slot), raw); err != nil {
		t.Fatal(err)
	}
	raw[7] ^= 0xFF
	if err := dev.WriteStrip(int64(victim.Slot), raw); err != nil {
		t.Fatal(err)
	}

	bad, err := arr.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if bad == 0 {
		t.Fatal("scrub missed the corruption")
	}
	rep, err := arr.Fsck(true)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Repaired == 0 || !rep.Clean {
		t.Fatalf("repair fixed nothing: %+v", rep)
	}
	outer := false
	for _, is := range rep.Issues {
		outer = outer || (is.Kind == "parity" && is.Layer == "outer" && is.Repaired)
	}
	if !outer {
		t.Fatalf("no outer-layer stripe repaired: %+v", rep.Issues)
	}
	if bad, err := arr.Scrub(); err != nil || bad != 0 {
		t.Fatalf("scrub after repair: bad=%d err=%v", bad, err)
	}
	if got := hashArray(t, arr); got != want {
		t.Fatal("repair altered user data")
	}
	if rep, err := arr.Fsck(true); err != nil || rep.ParityErrors != 0 {
		t.Fatalf("second repair pass: %+v, %v", rep, err)
	}
	arr.FailDisk(0)
	if _, err := arr.Fsck(true); !errors.Is(err, ErrDiskFaulty) {
		t.Fatalf("repair on degraded array: %v", err)
	}
}

// TestConcurrentReaders: reads (healthy and degraded) run concurrently;
// run with -race to catch synchronisation bugs.
func TestConcurrentReaders(t *testing.T) {
	arr := newOIArray(t, 9)
	want := make([]byte, arr.Capacity())
	rand.New(rand.NewSource(8)).Read(want)
	if _, err := arr.WriteAt(want, 0); err != nil {
		t.Fatal(err)
	}
	if err := arr.FailDisk(4); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			buf := make([]byte, 300)
			for i := 0; i < 200; i++ {
				off := rng.Int63n(arr.Capacity() - 300)
				if _, err := arr.ReadAt(buf, off); err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(buf, want[off:off+300]) {
					errs <- errors.New("concurrent read mismatch")
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if arr.Stats().DegradedReads == 0 {
		t.Fatal("expected degraded reads in the mix")
	}
}

// parkedDevice parks every read until release is closed, announcing the
// first one on entered.
type parkedDevice struct {
	Device
	entered, release chan struct{}
	once             sync.Once
}

func (d *parkedDevice) ReadStrip(idx int64, p []byte) error {
	d.once.Do(func() { close(d.entered) })
	<-d.release
	return d.Device.ReadStrip(idx, p)
}

// TestFailedDisksSharesReadLock: FailedDisks only reads, so it must not wait
// for a reader that is parked inside a device — status, the mode machine and
// the health poll all call it while foreground reads are in flight.
func TestFailedDisksSharesReadLock(t *testing.T) {
	arr := newOIArray(t, 9)
	fillArray(t, arr, 9)
	read := arr.DataStripDisk(0)
	down := (read + 1) % 9
	if err := arr.FailDisk(down); err != nil {
		t.Fatal(err)
	}
	parked := &parkedDevice{entered: make(chan struct{}), release: make(chan struct{})}
	arr.InstrumentDevices(func(d int, dev Device) Device {
		if d == read {
			parked.Device = dev
			return parked
		}
		return dev
	})
	readDone := make(chan error, 1)
	go func() {
		_, err := arr.ReadAt(make([]byte, testStrip), 0)
		readDone <- err
	}()
	<-parked.entered // the reader holds the read lock from here on

	got := make(chan []int, 1)
	go func() { got <- arr.FailedDisks() }()
	select {
	case failed := <-got:
		if !slices.Equal(failed, []int{down}) {
			t.Errorf("FailedDisks = %v, want [%d]", failed, down)
		}
	case <-time.After(5 * time.Second):
		t.Error("FailedDisks waits for a reader that holds the read lock")
	}
	close(parked.release)
	if err := <-readDone; err != nil {
		t.Fatal(err)
	}
}

// TestRecoveryPlanFollowsFailureSet: the array keeps the recovery plan of
// its unavailable set and deep reads and rebuild look tasks up in it, so
// across every transition that changes the set — a further failure,
// quarantine on and off, replacement and a partial rebuild, the rebuild's
// completion, a new failure set afterwards — every strip must still read
// back equal to the model: a plan served for a set it was not computed for
// reads a device that is gone.
func TestRecoveryPlanFollowsFailureSet(t *testing.T) {
	an := oiAnalyzer(t, 9)
	arr := newOIArray(t, 9)
	want := fillArray(t, arr, 31)
	step := func(what string) {
		t.Helper()
		if got := hashArray(t, arr); got != want {
			t.Fatalf("after %s: content differs from the model", what)
		}
	}
	fail := func(disks ...int) {
		t.Helper()
		for _, d := range disks {
			if err := arr.FailDisk(d); err != nil {
				t.Fatal(err)
			}
		}
		deepTargets(t, arr) // the reads that follow include deep ones
	}

	failed := []int{0, 1, 3}
	fail(failed...)
	step("failing 0, 1 and 3")

	further, live := -1, -1
	for d := an.Disks() - 1; d >= 0; d-- {
		switch {
		case slices.Contains(failed, d):
		case further < 0 && an.Recoverable(append(failed[:3:3], d)):
			further = d
		case live < 0:
			live = d
		}
	}
	failed = append(failed, further)
	fail(further)
	step("a further failure")

	for _, avoid := range []ReadAvoid{ReadSlow, ReadDirect} {
		if err := arr.SetReadAvoid(live, avoid); err != nil {
			t.Fatal(err)
		}
		step(fmt.Sprintf("SetReadAvoid(%d, %v)", live, avoid))
	}

	for _, d := range failed {
		dev, err := NewMemDevice(arr.Cycles()*int64(an.SlotsPerDisk()), testStrip)
		if err != nil {
			t.Fatal(err)
		}
		if err := arr.ReplaceDisk(d, dev); err != nil {
			t.Fatal(err)
		}
	}
	if done, err := rebuildNext(arr); err != nil || done {
		t.Fatalf("first rebuild step: done=%v err=%v", done, err)
	}
	step("a partial rebuild")
	if err := arr.Rebuild(); err != nil {
		t.Fatal(err)
	}
	step("the rebuild")

	fail(3, 4, 6)
	step("failing 3, 4 and 6 after the rebuild")
}

// rebuildNext rebuilds the cycle at the rebuild cursor.
func rebuildNext(arr *Array) (done bool, err error) {
	cycle, _ := arr.RebuildProgress()
	return arr.RebuildCycle(cycle)
}

// TestIncrementalRebuildWithOnlineIO: RebuildCycle interleaved with reads
// and writes stays coherent — writes landing in already-rebuilt cycles go
// to the replacement device, writes in not-yet-rebuilt cycles are
// reconstructed later, and the final array scrubs clean with the model's
// content.
func TestIncrementalRebuildWithOnlineIO(t *testing.T) {
	an := oiAnalyzer(t, 9)
	arr, err := NewMemArray(an, 8, testStrip) // 8 cycles → several steps
	if err != nil {
		t.Fatal(err)
	}
	model := make([]byte, arr.Capacity())
	rng := rand.New(rand.NewSource(77))
	rng.Read(model)
	if _, err := arr.WriteAt(model, 0); err != nil {
		t.Fatal(err)
	}
	if err := arr.FailDisk(3); err != nil {
		t.Fatal(err)
	}
	dev, err := NewMemDevice(8*int64(an.SlotsPerDisk()), testStrip)
	if err != nil {
		t.Fatal(err)
	}
	if err := arr.ReplaceDisk(3, dev); err != nil {
		t.Fatal(err)
	}

	step := 0
	for {
		done, err := rebuildNext(arr)
		if err != nil {
			t.Fatal(err)
		}
		rebuilt, total := arr.RebuildProgress()
		if done {
			if rebuilt != 0 {
				t.Fatalf("progress after completion = %d", rebuilt)
			}
			break
		}
		if rebuilt <= 0 || rebuilt >= total {
			t.Fatalf("mid-rebuild progress %d/%d out of range", rebuilt, total)
		}
		// Interleave online I/O: overwrite a random range spanning both
		// rebuilt and pending cycles, and verify reads.
		n := 1 + rng.Intn(4000)
		off := rng.Int63n(arr.Capacity() - int64(n))
		buf := make([]byte, n)
		rng.Read(buf)
		if _, err := arr.WriteAt(buf, off); err != nil {
			t.Fatalf("step %d write: %v", step, err)
		}
		copy(model[off:], buf)
		got := make([]byte, n)
		if _, err := arr.ReadAt(got, off); err != nil {
			t.Fatalf("step %d read: %v", step, err)
		}
		if !bytes.Equal(got, buf) {
			t.Fatalf("step %d read-back mismatch", step)
		}
		step++
	}
	if step < 2 {
		t.Fatalf("only %d incremental steps; batch too large for the test", step)
	}
	// Full verification.
	got := make([]byte, arr.Capacity())
	if _, err := arr.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, model) {
		t.Fatal("content diverged after online rebuild")
	}
	if bad, err := arr.Scrub(); err != nil || bad != 0 {
		t.Fatalf("scrub: bad=%d err=%v", bad, err)
	}
}

// TestRebuildStepValidation: a cycle other than the cursor is refused, and
// a second failure mid-rebuild restarts it.
func TestRebuildStepValidation(t *testing.T) {
	an := oiAnalyzer(t, 9)
	arr, err := NewMemArray(an, 4, testStrip)
	if err != nil {
		t.Fatal(err)
	}
	want := fillArray(t, arr, 3)
	if done, err := rebuildNext(arr); err != nil || !done {
		t.Fatalf("healthy array step = (%v, %v), want done", done, err)
	}
	arr.FailDisk(1)
	dev, _ := NewMemDevice(4*int64(an.SlotsPerDisk()), testStrip)
	arr.ReplaceDisk(1, dev)
	if _, err := arr.RebuildCycle(1); err == nil {
		t.Fatal("a cycle past the cursor must be refused")
	}
	if rebuilt, _ := arr.RebuildProgress(); rebuilt != 0 {
		t.Fatalf("progress after a refused cycle = %d, want 0", rebuilt)
	}
	if done, err := rebuildNext(arr); err != nil || done {
		t.Fatalf("first step = (%v, %v), want in-progress", done, err)
	}
	// A second failure aborts the rebuild in flight.
	arr.FailDisk(5)
	if rebuilt, _ := arr.RebuildProgress(); rebuilt != 0 {
		t.Fatalf("progress after mid-rebuild failure = %d, want 0", rebuilt)
	}
	// Disk 1's replacement was kept; disk 5 needs one.
	dev5, _ := NewMemDevice(4*int64(an.SlotsPerDisk()), testStrip)
	if err := arr.ReplaceDisk(5, dev5); err != nil {
		t.Fatal(err)
	}
	if err := arr.Rebuild(); err != nil {
		t.Fatal(err)
	}
	if got := hashArray(t, arr); got != want {
		t.Fatal("content differs after restarted rebuild")
	}
	if bad, err := arr.Scrub(); err != nil || bad != 0 {
		t.Fatalf("scrub: bad=%d err=%v", bad, err)
	}
}

// writeMember writes p to strip idx of disk d the way the array writes any
// strip — through the disk's steps, so the journal records its checksum.
func writeMember(t testing.TB, arr *Array, d int, idx int64, p []byte) {
	t.Helper()
	arr.mu.RLock()
	defer arr.mu.RUnlock()
	sc := arr.getScratch()
	defer arr.putScratch(sc)
	if err := arr.writeStrips(sc, append(sc.opList(1), batchOp{dev: arr.device(d), disk: d, idx: idx, buf: p}), nil); err != nil {
		t.Fatal(err)
	}
}

// TestChecksumStepBasics: on an array with a journal, a strip written through
// the array has its checksum in the journal's table and a read verifies it —
// a strip corrupted behind the array's back fails with ErrCorrupt — while a
// strip never written passes unverified. An array
// without a journal verifies nothing.
func TestChecksumStepBasics(t *testing.T) {
	arr := newOIArray(t, 9)
	mem := arr.devs[2].(*MemDevice)
	p, q := bytes.Repeat([]byte{0x11}, testStrip), make([]byte, testStrip)
	corrupt := func() {
		t.Helper()
		if err := mem.ReadStrip(2, q); err != nil {
			t.Fatal(err)
		}
		q[5] ^= 0x80
		if err := mem.WriteStrip(2, q); err != nil {
			t.Fatal(err)
		}
	}
	writeMember(t, arr, 2, 2, p)
	corrupt()
	if err := arr.ProbeDiskStrip(2, 2, q); err != nil {
		t.Fatalf("a journal-less array verified a read: %v", err)
	}

	journaled(t, arr)
	writeMember(t, arr, 2, 2, p)
	if got, want := arr.journal.Sums(2)[2], crc32.Checksum(p, castagnoli); got != want {
		t.Fatalf("journal holds sum %#x for the strip, want %#x", got, want)
	}
	if err := arr.ProbeDiskStrip(2, 2, q); err != nil || !bytes.Equal(p, q) {
		t.Fatalf("round trip: %v", err)
	}
	corrupt()
	if err := arr.ProbeDiskStrip(2, 2, q); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("read of a corrupted strip: %v, want ErrCorrupt", err)
	}
	if err := arr.ProbeDiskStrip(2, 0, q); err != nil {
		t.Fatalf("never-written strip: %v", err)
	}
}

// TestReadRepairHealsLatentSectorError: corrupt a data strip behind the
// array's back; a foreground read detects it, reconstructs from parity,
// heals in place, and subsequent reads hit clean media.
func TestReadRepairHealsLatentSectorError(t *testing.T) {
	arr, err := NewMemArray(oiAnalyzer(t, 9), 1, testStrip)
	if err != nil {
		t.Fatal(err)
	}
	want := fillArray(t, journaled(t, arr), 66)

	// Corrupt the physical location of logical strip 0 silently.
	d, devStrip := arr.locate(0)
	mem := arr.devs[d].(*MemDevice)
	raw := make([]byte, testStrip)
	if err := mem.ReadStrip(devStrip, raw); err != nil {
		t.Fatal(err)
	}
	raw[0] ^= 0xFF
	if err := mem.WriteStrip(devStrip, raw); err != nil {
		t.Fatal(err)
	}

	arr.ResetStats()
	if got := hashArray(t, arr); got != want {
		t.Fatal("content wrong despite read repair")
	}
	st := arr.Stats()
	if st.ReadRepairs != 1 {
		t.Fatalf("read repairs = %d, want 1", st.ReadRepairs)
	}
	// The strip is healed: a second full read performs no repairs.
	arr.ResetStats()
	if got := hashArray(t, arr); got != want {
		t.Fatal("content wrong after repair")
	}
	if st := arr.Stats(); st.ReadRepairs != 0 || st.DegradedReads != 0 {
		t.Fatalf("post-repair stats = %+v, want clean reads", st)
	}
	if bad, err := arr.Scrub(); err != nil || bad != 0 {
		t.Fatalf("scrub: bad=%d err=%v", bad, err)
	}
}

func TestReplaceDiskValidation(t *testing.T) {
	arr := newOIArray(t, 9)
	if err := arr.ReplaceDisk(0, nil); err == nil {
		t.Fatal("replacing a healthy disk must fail")
	}
	arr.FailDisk(0)
	small, _ := NewMemDevice(1, testStrip)
	if err := arr.ReplaceDisk(0, small); err == nil {
		t.Fatal("undersized replacement must fail")
	}
	wrongStrip, _ := NewMemDevice(2*int64(arr.an.SlotsPerDisk()), testStrip*2)
	if err := arr.ReplaceDisk(0, wrongStrip); err == nil {
		t.Fatal("wrong strip size must fail")
	}
	if err := arr.ReplaceDisk(99, small); err == nil {
		t.Fatal("unknown disk must fail")
	}
}
