package engine

import (
	"context"
	"fmt"
	"testing"

	"github.com/oiraid/oiraid/internal/bibd"
	"github.com/oiraid/oiraid/internal/core"
	"github.com/oiraid/oiraid/internal/layout"
	"github.com/oiraid/oiraid/internal/store"
)

// nodeDev is a memory device that batches: the devices of one node — one
// key — travel together, as strips on a storage node do.
type nodeDev struct {
	*store.MemDevice
	node int
}

func (d nodeDev) BatchKey() any { return d.node }

func (d nodeDev) ReadStrips(_ context.Context, ops []store.StripOp) {
	for i := range ops {
		ops[i].Err = ops[i].Dev.ReadStrip(ops[i].Idx, ops[i].Buf)
	}
}

func (d nodeDev) WriteStrips(ops []store.StripOp) {
	for i := range ops {
		ops[i].Err = ops[i].Dev.WriteStrip(ops[i].Idx, ops[i].Buf)
	}
}

// durableEngine formats a v=9 array of one cycle over mem devices — batching
// ones, disk d on node d%3, with batched — and builds an engine over it with
// opts, returning the devices.
func durableEngine(t *testing.T, batched bool, opts Options) (*Engine, []*store.MemDevice) {
	t.Helper()
	d, err := bibd.ForArray(9)
	if err != nil {
		t.Fatal(err)
	}
	s, err := layout.NewOIRAID(d)
	if err != nil {
		t.Fatal(err)
	}
	an, err := core.NewAnalyzer(s)
	if err != nil {
		t.Fatal(err)
	}
	mems := make([]*store.MemDevice, an.Disks())
	devs, sbs := make([]store.Device, an.Disks()), make([]store.Blob, an.Disks())
	for i := range devs {
		if mems[i], err = store.NewMemDevice(int64(an.SlotsPerDisk()), testStrip); err != nil {
			t.Fatal(err)
		}
		devs[i], sbs[i] = mems[i], store.NewMemBlob()
		if batched {
			devs[i] = nodeDev{MemDevice: mems[i], node: i % 3}
		}
	}
	m, err := store.FormatArray(an, devs, sbs, store.NewMemBlob(), store.NewMemBlob())
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(m.Array, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	for addr := int64(0); addr < e.Strips(); addr++ {
		if err := e.WriteStrip(addr, chaosPattern(testStrip, addr, 0)); err != nil {
			t.Fatal(err)
		}
	}
	return e, mems
}

// corruptAll flips a byte of every strip of dev behind the array's back.
func corruptAll(t *testing.T, dev *store.MemDevice) {
	t.Helper()
	p := make([]byte, dev.StripBytes())
	for idx := int64(0); idx < dev.Strips(); idx++ {
		if err := dev.ReadStrip(idx, p); err != nil {
			t.Fatal(err)
		}
		p[1] ^= 0x10
		if err := dev.WriteStrip(idx, p); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCorruptReadsOnEveryDevice: a latent sector error on disk d counts in
// Health().Disks[d].CorruptReads whichever site attached the disk's device —
// the format, a rebuild onto a replacement, a migration's flip — and the read
// that met it is healed.
func TestCorruptReadsOnEveryDevice(t *testing.T) {
	const d = 2
	var replacement *store.MemDevice
	var strips int64 // of every device; set before anything is replaced
	e, mems := durableEngine(t, false, Options{Replace: func(int) (store.Device, error) {
		var err error
		replacement, err = store.NewMemDevice(strips, testStrip)
		return replacement, err
	}})
	strips = mems[0].Strips()
	addr := int64(0)
	for e.Array().DataStripDisk(addr) != d {
		addr++
	}
	check := func(when string, dev *store.MemDevice) {
		t.Helper()
		before := e.Health().Disks[d].CorruptReads
		corruptAll(t, dev)
		got, err := e.ReadStrip(addr)
		if err != nil || string(got) != string(chaosPattern(testStrip, addr, 0)) {
			t.Fatalf("%s: read over a latent error: %v", when, err)
		}
		if n := e.Health().Disks[d].CorruptReads - before; n != 1 {
			t.Errorf("%s: disk %d counted %d corrupt reads, want 1", when, d, n)
		}
	}
	check("formatted", mems[d])

	if err := e.FailDisk(d); err != nil {
		t.Fatal(err)
	}
	if err := e.StartRebuild(1); err != nil {
		t.Fatal(err)
	}
	if err := e.RebuildWait(); err != nil {
		t.Fatal(err)
	}
	check("rebuilt", replacement)

	dst, err := store.NewMemDevice(strips, testStrip)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.StartMirror(d, dst); err != nil {
		t.Fatal(err)
	}
	if err := e.CopyMirrorCycle(d, 0); err != nil {
		t.Fatal(err)
	}
	if err := e.CompleteMigration(d, dst, nil); err != nil {
		t.Fatal(err)
	}
	check("migrated", dst)
}

// TestEveryDeviceOpObservedOnce: writes, a scrub pass and a check-only fsck
// on a durable array — in-process, and over batching devices — reach the
// health monitor once per device op: each disk's Ops grow by exactly its
// DiskStats reads and writes.
func TestEveryDeviceOpObservedOnce(t *testing.T) {
	for _, batched := range []bool{false, true} {
		t.Run(fmt.Sprint("batched=", batched), func(t *testing.T) {
			e, _ := durableEngine(t, batched, Options{})
			before := e.Health()
			e.Array().ResetStats()
			for addr := int64(0); addr < e.Strips(); addr += 2 {
				if err := e.WriteStrip(addr, chaosPattern(testStrip, addr, 1)); err != nil {
					t.Fatal(err)
				}
			}
			if bad, err := e.ScrubPass(context.Background()); err != nil || bad != 0 {
				t.Fatalf("scrub: %d bad, %v", bad, err)
			}
			if rep, err := e.Fsck(context.Background(), false); err != nil || !rep.Clean {
				t.Fatalf("fsck: %+v, %v", rep, err)
			}
			after := e.Health()
			for d, st := range e.Array().DiskStats() {
				if got, want := after.Disks[d].Ops-before.Disks[d].Ops, st.ReadOps+st.WriteOps; got != want {
					t.Errorf("disk %d: %d ops observed, %d device ops", d, got, want)
				}
			}
		})
	}
}
