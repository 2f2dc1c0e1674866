package store

import (
	"bytes"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"github.com/oiraid/oiraid/internal/testutil"
)

// poolDrops reports whether sync.Pool discards at random (testutil.PoolDrops).
func poolDrops() bool { return testutil.PoolDrops() }

// TestSteadyStateAllocs pins what the scratch pool buys on a journal-less
// in-memory array: a healthy single-strip write, a one-hop degraded read and
// a deep read allocate no strip, an aligned one-strip read allocates nothing
// at all.
func TestSteadyStateAllocs(t *testing.T) {
	if poolDrops() {
		t.Skip("sync.Pool drops items in this build (race detector)")
	}
	arr := newOIArray(t, 9)
	fillArray(t, arr, 3)
	buf := make([]byte, testStrip)
	pin := func(what string, limit float64, op func() error) {
		t.Helper()
		var err error
		if n := testing.AllocsPerRun(50, func() { err = op() }); n > limit || err != nil {
			t.Errorf("%s: %v allocations per op (limit %v), err %v", what, n, limit, err)
		}
	}
	pin("healthy single-strip write", 0, func() error {
		_, err := arr.ConcurrentWriteAt(buf, 5*testStrip)
		return err
	})
	pin("healthy partial-strip write", 0, func() error {
		_, err := arr.ConcurrentWriteAt(buf[:100], 5*testStrip+7)
		return err
	})
	pin("aligned one-strip read", 0, func() error {
		_, err := arr.ReadAt(buf, 5*testStrip)
		return err
	})
	pin("partial-strip read", 0, func() error {
		_, err := arr.ReadAt(buf[:100], 5*testStrip+7)
		return err
	})
	if err := arr.FailDisk(0); err != nil {
		t.Fatal(err)
	}
	lost := int64(0)
	for arr.DataStripDisk(lost) != 0 {
		lost++
	}
	// The one allocation is core.DecodePath's present mask.
	pin("one-hop degraded read", 1, func() error {
		_, err := arr.ReadAt(buf, lost*testStrip)
		return err
	})
	for _, d := range []int{1, 3} {
		if err := arr.FailDisk(d); err != nil {
			t.Fatal(err)
		}
	}
	// The plan comes from the memo and the strips the sub-plan rebuilds on
	// the way wait in scratch: what is left is the task list, the list of
	// kept strips and the executor's closures — and, all together, less
	// memory than one strip.
	deep := deepTargets(t, arr)[0] * testStrip
	pin("deep read", 8, func() error {
		_, err := arr.ReadAt(buf, deep)
		return err
	})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 50; i++ {
		if _, err := arr.ReadAt(buf, deep); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if perOp := (after.TotalAlloc - before.TotalAlloc) / 50; perOp >= testStrip {
		t.Errorf("deep read: %d bytes allocated per op, a strip is %d", perOp, testStrip)
	}
}

// yieldDevice yields the processor before every read, so goroutines sharing
// an array interleave inside an operation and not only between two.
type yieldDevice struct{ Device }

func (d yieldDevice) ReadStrip(idx int64, p []byte) error {
	runtime.Gosched()
	return d.Device.ReadStrip(idx, p)
}

// TestScratchPoolConcurrent runs, against one array and therefore one
// scratch pool, writers on disjoint closures (one cycle each, disks 0, 1 and
// 3 failed, so some of their read-modify-writes reconstruct), plain readers,
// degraded readers and deep readers of cycles nobody writes, all checked
// against a flat model. A scratch buffer still in use after it went back to
// the pool — a shard, or a strip a deep read rebuilt for a later task — is
// borrowed again by whoever runs during its owner's next device read
// (yieldDevice), and shows as a wrong byte here and as a data race under
// -race.
func TestScratchPoolConcurrent(t *testing.T) {
	const writers, frozen, strip = 2, 2, 128
	arr, err := NewMemArray(oiAnalyzer(t, 9), writers+frozen, strip)
	if err != nil {
		t.Fatal(err)
	}
	model := make([]byte, arr.Capacity())
	rand.New(rand.NewSource(1)).Read(model)
	if _, err := arr.WriteAt(model, 0); err != nil {
		t.Fatal(err)
	}
	arr.InstrumentDevices(func(_ int, dev Device) Device { return yieldDevice{dev} })
	for _, d := range []int{0, 1, 3} {
		if err := arr.FailDisk(d); err != nil {
			t.Fatal(err)
		}
	}
	perCycle := arr.Capacity() / int64(writers+frozen)
	// Offsets of the frozen cycles' strips on the failed disks, and of those
	// among them that no single stripe decodes.
	var lost, deep []int64
	for off := writers * perCycle; off < arr.Capacity(); off += strip {
		if arr.failed[arr.DataStripDisk(off/strip)] {
			lost = append(lost, off)
		}
	}
	for _, i := range deepTargets(t, arr) {
		if off := i * strip; off >= writers*perCycle {
			deep = append(deep, off)
		}
	}

	var wg sync.WaitGroup
	worker := func(seed int64, op func(rng *rand.Rand, buf []byte) error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng, buf := rand.New(rand.NewSource(seed)), make([]byte, 3*strip)
			for i := 0; i < 300; i++ {
				if err := op(rng, buf); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	checkedRead := func(buf []byte, off int64) error {
		if _, err := arr.ReadAt(buf, off); err != nil {
			return err
		}
		if !bytes.Equal(buf, model[off:off+int64(len(buf))]) {
			t.Errorf("read of %d bytes at %d differs from the model", len(buf), off)
		}
		return nil
	}
	for w := int64(0); w < writers; w++ {
		lo := w * perCycle // writer w owns cycle w, of the array and of the model
		worker(10+w, func(rng *rand.Rand, buf []byte) error {
			buf = buf[:1+rng.Intn(len(buf))]
			rng.Read(buf)
			off := lo + rng.Int63n(perCycle-int64(len(buf)))
			copy(model[off:], buf)
			_, err := arr.ConcurrentWriteAt(buf, off)
			return err
		})
	}
	for r := int64(0); r < 2; r++ {
		worker(20+r, func(rng *rand.Rand, buf []byte) error {
			buf = buf[:1+rng.Intn(len(buf))]
			return checkedRead(buf, writers*perCycle+rng.Int63n(frozen*perCycle-int64(len(buf))))
		})
		worker(30+r, func(rng *rand.Rand, buf []byte) error {
			return checkedRead(buf[:strip], lost[rng.Intn(len(lost))])
		})
		worker(40+r, func(rng *rand.Rand, buf []byte) error {
			return checkedRead(buf[:strip], deep[rng.Intn(len(deep))])
		})
	}
	wg.Wait()

	got := make([]byte, arr.Capacity())
	if _, err := arr.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, model) {
		t.Fatal("array differs from the model after the concurrent phase")
	}
}
