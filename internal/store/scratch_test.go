package store

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"
)

// poolDrops reports whether sync.Pool discards at random, as it does under
// the race detector; a steady-state allocation count means nothing then.
func poolDrops() bool {
	var p sync.Pool
	x := new(int)
	for i := 0; i < 256; i++ {
		p.Put(x)
		if p.Get() == nil {
			return true
		}
	}
	return false
}

// TestSteadyStateAllocs pins what the scratch pool buys on a journal-less
// in-memory array: a healthy single-strip write and a one-hop degraded read
// allocate no strip, an aligned one-strip read allocates nothing at all.
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
}

// TestScratchPoolConcurrent runs, against one array and therefore one
// scratch pool, writers on disjoint closures (one cycle each, disk 0 failed,
// so some of their read-modify-writes reconstruct), plain readers and
// degraded readers of cycles nobody writes, all checked against a flat
// model. A scratch buffer still in use after it went back to the pool shows
// as a wrong byte here and as a data race under -race.
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
	if err := arr.FailDisk(0); err != nil {
		t.Fatal(err)
	}
	perCycle := arr.Capacity() / int64(writers+frozen)
	var lost []int64 // offsets of the frozen cycles' strips on the failed disk
	for off := writers * perCycle; off < arr.Capacity(); off += strip {
		if arr.DataStripDisk(off/strip) == 0 {
			lost = append(lost, off)
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
