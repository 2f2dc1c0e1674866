package engine

import (
	"bytes"
	"context"
	"errors"
	"hash/crc32"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"github.com/oiraid/oiraid/internal/layout"
	"github.com/oiraid/oiraid/internal/store"
)

// TestEngineFsck: the engine runs the two-layer walk and counts the
// pass; a check started while a rebuild runs waits for it and is clean.
func TestEngineFsck(t *testing.T) {
	e := newEngine(t, 9, 2, Options{Workers: 4})
	buf := make([]byte, testStrip)
	rand.New(rand.NewSource(5)).Read(buf)
	for addr := int64(0); addr < 8; addr++ {
		if err := e.WriteStrip(addr, buf); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := e.Fsck(context.Background(), false)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean {
		t.Fatalf("healthy engine fsck dirty: %+v", rep)
	}
	if got := e.Stats().FsckRuns; got != 1 {
		t.Fatalf("fsck runs %d, want 1", got)
	}

	if err := e.FailDisk(2); err != nil {
		t.Fatal(err)
	}
	// Degraded: the walk has no authoritative copy to verify.
	if _, err := e.Fsck(context.Background(), false); !errors.Is(err, store.ErrDiskFaulty) {
		t.Fatalf("degraded fsck err %v, want ErrDiskFaulty", err)
	}
	if err := e.StartRebuild(1); err != nil {
		t.Fatal(err)
	}
	// The scheduler grants the rebuild before any operator pass, so this
	// check runs once the rebuild has ended and the array is whole.
	rep, err = e.Fsck(context.Background(), false)
	if err != nil {
		t.Fatalf("fsck during rebuild: %v", err)
	}
	if !rep.Clean {
		t.Fatalf("fsck during rebuild dirty: %+v", rep)
	}
	if err := e.RebuildWait(); err != nil {
		t.Fatal(err)
	}
	rep, err = e.Fsck(context.Background(), false)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean {
		t.Fatalf("post-rebuild fsck dirty: %+v", rep)
	}
}

// TestFsckBesideForegroundIO: a check parked inside cycle 0 keeps only
// writers of cycle 0 waiting.
func TestFsckBesideForegroundIO(t *testing.T) {
	e, gates, oracle := gatedEngine(t)
	besidePass(t, e, gates[0], oracle, stripOn(t, e, 0, 0), func() error {
		rep, err := e.Fsck(context.Background(), false)
		if err == nil && !rep.Clean {
			t.Errorf("fsck beside foreground I/O: %+v", rep)
		}
		return err
	})
	checkOracle(t, e, oracle)
}

// TestFsckCancelAtCycleBoundary: a check whose ctx is cancelled while it is
// inside cycle 0 finishes that cycle, then ends with ctx.Err() and counts
// no run.
func TestFsckCancelAtCycleBoundary(t *testing.T) {
	e, gates, _ := gatedEngine(t)
	gates[0].below.Store(int64(e.an.SlotsPerDisk()))
	ctx, cancel := context.WithCancel(context.Background())
	var rep *store.FsckReport
	ended := make(chan error, 1)
	go func() {
		var err error
		rep, err = e.Fsck(ctx, false)
		ended <- err
	}()
	within(t, "the pass reaching the gate", func() error { <-gates[0].hit; return nil })
	cancel()
	gates[0].release()
	within(t, "the cancelled pass", func() error {
		if err := <-ended; !errors.Is(err, context.Canceled) {
			t.Errorf("cancelled fsck: %v, want context.Canceled", err)
		}
		return nil
	})
	if want := int64(e.an.Disks() * e.an.SlotsPerDisk()); rep.StripsChecked != want {
		t.Fatalf("cancelled fsck checked %d strips, want cycle 0's %d", rep.StripsChecked, want)
	}
	if got := e.Stats().FsckRuns; got != 0 {
		t.Fatalf("a cancelled fsck counted %d runs", got)
	}
}

// TestFsckRepairBesideWrites: on each of two cycles one inner stripe's
// parity is clobbered (its checksum recorded, so only the parity check
// sees it) and one strip of another stripe is corrupted behind the array's
// back; a repairing fsck runs while writers hit both cycles. Every strip
// reads back what was last written, and a check-only fsck after it is
// clean.
func TestFsckRepairBesideWrites(t *testing.T) {
	an := oiAnalyzer(t, 9)
	slots := int64(an.SlotsPerDisk())
	mems, devs := make([]*store.MemDevice, an.Disks()), make([]store.Device, an.Disks())
	for i := range devs {
		var err error
		if mems[i], err = store.NewMemDevice(2*slots, testStrip); err != nil {
			t.Fatal(err)
		}
		devs[i] = mems[i]
	}
	arr, err := store.NewArray(an, devs)
	if err != nil {
		t.Fatal(err)
	}
	j, err := store.OpenMetaJournal(store.NewMemBlob(), store.NewMemBlob())
	if err != nil {
		t.Fatal(err)
	}
	if err := arr.SetJournal(j); err != nil {
		t.Fatal(err)
	}
	e, err := New(arr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	oracle := make([][]byte, e.Strips())
	for addr := range oracle {
		oracle[addr] = chaosPattern(testStrip, int64(addr), 0)
		if err := e.WriteStrip(int64(addr), oracle[addr]); err != nil {
			t.Fatal(err)
		}
	}

	// The clobbered parity ends the first inner stripe; the corrupted strip
	// is a member of the first outer stripe that is not in that one.
	stripes := an.Scheme().Stripes()
	inner := stripes[slices.IndexFunc(stripes, func(s layout.Stripe) bool { return s.Layer == layout.LayerInner })]
	outer := stripes[slices.IndexFunc(stripes, func(s layout.Stripe) bool { return s.Layer == layout.LayerOuter })]
	parity := inner.Strips[len(inner.Strips)-1]
	victim := outer.Strips[slices.IndexFunc(outer.Strips, func(st layout.Strip) bool { return !slices.Contains(inner.Strips, st) })]
	garbage := bytes.Repeat([]byte{0xee}, testStrip)
	for cycle := range int64(2) {
		idx := cycle*slots + int64(parity.Slot)
		if err := mems[parity.Disk].WriteStrip(idx, garbage); err != nil {
			t.Fatal(err)
		}
		if err := j.RecordSum(parity.Disk, idx, crc32.Checksum(garbage, crc32.MakeTable(crc32.Castagnoli))); err != nil {
			t.Fatal(err)
		}
		idx = cycle*slots + int64(victim.Slot)
		buf := make([]byte, testStrip)
		if err := mems[victim.Disk].ReadStrip(idx, buf); err != nil {
			t.Fatal(err)
		}
		buf[7] ^= 0x40
		if err := mems[victim.Disk].WriteStrip(idx, buf); err != nil {
			t.Fatal(err)
		}
	}

	// Writer w owns the addresses w mod writers, so the oracle needs no lock.
	const writers = 3
	stop := make(chan struct{})
	var wg, started sync.WaitGroup
	errs := make(chan error, writers)
	for w := range writers {
		wg.Add(1)
		started.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for seq := 1; ; seq++ {
				select {
				case <-stop:
					return
				default:
				}
				addr := int64(w + writers*rng.Intn(len(oracle)/writers))
				p := chaosPattern(testStrip, addr, seq)
				err := e.WriteStrip(addr, p)
				if seq == 1 {
					started.Done()
				}
				if err != nil {
					errs <- err
					return
				}
				oracle[addr] = p
			}
		}()
	}
	started.Wait() // every writer has landed a write
	rep, err := e.Fsck(context.Background(), true)
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("write beside the repair: %v", err)
	}
	if err != nil {
		t.Fatal(err)
	}
	// Writes move parity by deltas, so each clobbered stripe stays wrong
	// until the repair recomputes it; a corrupted strip may be healed by a
	// write's read before the check reaches it.
	if !rep.Clean || rep.ParityErrors != 2 {
		t.Fatalf("repairing fsck: %+v", rep)
	}
	if rep, err := e.Fsck(context.Background(), false); err != nil || !rep.Clean {
		t.Fatalf("fsck after the repair: %+v, %v", rep, err)
	}
	checkOracle(t, e, oracle)
}
