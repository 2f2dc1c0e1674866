package store

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/oiraid/oiraid/internal/core"
	"github.com/oiraid/oiraid/internal/layout"
)

// fakeNode stands for a storage node: the nodeDevs that share one share
// batches. It records what reached it and how.
type fakeNode struct {
	mu      sync.Mutex
	batches []int // ops per batch call, reads and writes alike
	singles int   // ReadStrip/WriteStrip calls
	// refuse, when set, fails the matching ops of a batch.
	refuse func(dev *nodeDev, idx int64, write bool) error
}

func (n *fakeNode) take() (batches []int, singles int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	batches, singles = n.batches, n.singles
	n.batches, n.singles = nil, 0
	return batches, singles
}

// nodeDev is a MemDevice on a fakeNode: a batch-capable leaf.
type nodeDev struct {
	*MemDevice
	node *fakeNode
	disk int
}

var _ StripBatcher = (*nodeDev)(nil)

func (d *nodeDev) BatchKey() any { return d.node }

func (d *nodeDev) ReadStrip(idx int64, p []byte) error {
	d.node.mu.Lock()
	d.node.singles++
	d.node.mu.Unlock()
	return d.MemDevice.ReadStrip(idx, p)
}

func (d *nodeDev) WriteStrip(idx int64, p []byte) error {
	d.node.mu.Lock()
	d.node.singles++
	d.node.mu.Unlock()
	return d.MemDevice.WriteStrip(idx, p)
}

func (d *nodeDev) ReadStrips(ops []StripOp)  { d.batch(ops, false) }
func (d *nodeDev) WriteStrips(ops []StripOp) { d.batch(ops, true) }

func (d *nodeDev) batch(ops []StripOp, write bool) {
	d.node.mu.Lock()
	d.node.batches = append(d.node.batches, len(ops))
	refuse := d.node.refuse
	d.node.mu.Unlock()
	for i := range ops {
		op := &ops[i]
		dev := op.Dev.(*nodeDev)
		switch {
		case dev.node != d.node:
			op.Err = fmt.Errorf("op for node %p reached node %p", dev.node, d.node)
		case refuse != nil && refuse(dev, op.Idx, write) != nil:
			op.Err = refuse(dev, op.Idx, write)
		case write:
			op.Err = dev.MemDevice.WriteStrip(op.Idx, op.Buf)
		default:
			op.Err = dev.MemDevice.ReadStrip(op.Idx, op.Buf)
		}
	}
}

// spyLog is an observer that records each op's outcome per disk, as the
// engine's health monitor does.
type spyLog struct {
	mu   sync.Mutex
	ops  map[int]int
	errs map[int][]error
}

func (l *spyLog) observe(disk int, _ time.Duration, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.ops[disk]++
	if err != nil {
		l.errs[disk] = append(l.errs[disk], err)
	}
}

func (l *spyLog) take() (ops map[int]int, errs map[int][]error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	ops, errs = l.ops, l.errs
	l.ops, l.errs = map[int]int{}, map[int][]error{}
	return ops, errs
}

// nodeArray is an OI-RAID array over three fakeNodes, disk d on node d%3 as
// the cluster manifest places them, every device a bare nodeDev, with a
// journal (so checksums) and the spy as its observer — what a mount and an
// engine make of an array.
type nodeArray struct {
	*Array
	slots int64
	nodes [3]*fakeNode
	leafs []*nodeDev
	spy   *spyLog
}

func (na *nodeArray) newLeaf(t testing.TB, d int) *nodeDev {
	mem, err := NewMemDevice(na.slots, testStrip)
	if err != nil {
		t.Fatal(err)
	}
	return &nodeDev{MemDevice: mem, node: na.nodes[d%3], disk: d}
}

func newNodeArray(t *testing.T, v int) *nodeArray {
	t.Helper()
	na := &nodeArray{spy: &spyLog{}}
	na.spy.take()
	for i := range na.nodes {
		na.nodes[i] = &fakeNode{}
	}
	an := oiAnalyzer(t, v)
	na.slots = int64(an.SlotsPerDisk())
	devs := make([]Device, v)
	for d := range devs {
		na.leafs = append(na.leafs, na.newLeaf(t, d))
		devs[d] = na.leafs[d]
	}
	arr, err := NewArray(an, devs)
	if err != nil {
		t.Fatal(err)
	}
	na.Array = journaled(t, arr)
	na.SetObserver(na.spy.observe)
	return na
}

// calls drains the nodes' records: the batch calls made, the ops they
// carried, and the single calls.
func (na *nodeArray) calls() (batches, ops, singles int) {
	for _, n := range na.nodes {
		b, s := n.take()
		batches, singles = batches+len(b), singles+s
		for _, k := range b {
			ops += k
		}
	}
	return batches, ops, singles
}

// TestBatchCoalescesPerNode: on devices that can batch, a healthy
// single-strip write is one read batch and one write batch per node its
// closure touches — 4 calls for a closure on two nodes, 6 on three, 720 over
// the cycle's 144 data strips instead of 1152 — and the observer still sees
// each strip op once. A plain strip read stays one single call.
func TestBatchCoalescesPerNode(t *testing.T) {
	na := newNodeArray(t, 9)
	model, err := NewMemArray(na.an, 1, testStrip)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, testStrip)
	strips := na.Capacity() / testStrip
	total := 0
	for i := int64(0); i < strips; i++ {
		for k := range buf {
			buf[k] = byte(i + int64(k))
		}
		target, _ := na.LocateDataStrip(i)
		nodes := map[int]bool{}
		for _, st := range na.an.WritePlan(target).Strips {
			nodes[st.Disk%3] = true
		}
		if _, err := na.WriteAt(buf, i*testStrip); err != nil {
			t.Fatal(err)
		}
		if _, err := model.WriteAt(buf, i*testStrip); err != nil {
			t.Fatal(err)
		}
		batches, ops, singles := na.calls()
		if batches != 2*len(nodes) || ops != 8 || singles != 0 || len(nodes) < 2 {
			t.Fatalf("write of strip %d (closure on %d nodes): %d batch calls carrying %d ops, %d single calls", i, len(nodes), batches, ops, singles)
		}
		seen, errs := na.spy.take()
		for _, st := range na.an.WritePlan(target).Strips {
			if seen[st.Disk] != 2 {
				t.Fatalf("write of strip %d: disk %d was observed %d times, want a read and a write", i, st.Disk, seen[st.Disk])
			}
		}
		if len(seen) != 4 || len(errs) != 0 {
			t.Fatalf("write of strip %d: %d disks observed, errors %v", i, len(seen), errs)
		}
		total += batches
	}
	if total != 720 {
		t.Errorf("%d batch calls for %d writes, want 720", total, strips)
	}
	if got, want := hashArray(t, na.Array), hashArray(t, model); got != want {
		t.Error("content differs from the same writes on an in-memory array")
	}
	if batches, _, singles := na.calls(); batches != 0 || singles != int(strips) {
		t.Errorf("reading %d strips: %d batch calls, %d single calls", strips, batches, singles)
	}
	if st, dst := na.Stats(), na.DiskStats(); st.ReadOps != 5*strips || st.WriteOps != 4*strips {
		t.Errorf("counters: %+v", st)
	} else {
		var r, w int64
		for _, d := range dst {
			r, w = r+d.ReadOps, w+d.WriteOps
		}
		if r != st.ReadOps || w != st.WriteOps {
			t.Errorf("per-disk counters sum to %d/%d, totals are %d/%d", r, w, st.ReadOps, st.WriteOps)
		}
	}
}

// TestBatchRebuildWindow: a rebuilt cycle gathers in one read batch per
// surviving node and scatters in one write batch, the replacement's writes
// observed like any disk's, and the result is the pre-failure content.
func TestBatchRebuildWindow(t *testing.T) {
	na := newNodeArray(t, 9)
	want := fillArray(t, na.Array, 41)
	for failed := 0; failed < 9; failed++ {
		if err := na.FailDisk(failed); err != nil {
			t.Fatal(err)
		}
		leaf := na.newLeaf(t, failed)
		if err := na.ReplaceDisk(failed, leaf); err != nil {
			t.Fatal(err)
		}
		na.calls()
		na.spy.take()
		if err := na.Rebuild(); err != nil {
			t.Fatal(err)
		}
		batches, ops, singles := na.calls()
		slots := na.an.SlotsPerDisk()
		if batches > 4 || ops != 3*slots || singles != 0 {
			t.Errorf("rebuild of disk %d: %d batch calls carrying %d ops (want ≤ 4 and %d), %d single calls", failed, batches, ops, 3*slots, singles)
		}
		if seen, _ := na.spy.take(); seen[failed] != slots {
			t.Errorf("rebuild of disk %d: the replacement's writes were observed %d times, want %d", failed, seen[failed], slots)
		}
		if got := hashArray(t, na.Array); got != want {
			t.Fatalf("content differs after rebuilding disk %d", failed)
		}
	}
	if bad, err := na.Scrub(); err != nil || bad != 0 {
		t.Errorf("scrub: %d bad, %v", bad, err)
	}
}

// TestBatchStepSemantics: inside a batch, a strip corrupted behind the
// array's back comes back ErrCorrupt from the checksum step for that op alone,
// is observed as such, healed through its other stripe and counted once; and
// an op the node refuses fails alone — the closure commit stays best-effort,
// the other strips land, and only the refused disk is observed failing.
func TestBatchStepSemantics(t *testing.T) {
	na := newNodeArray(t, 9)
	want := fillArray(t, na.Array, 43)
	target, _ := na.LocateDataStrip(0)
	closure := na.an.WritePlan(target).Strips
	victim := closure[1]
	buf := make([]byte, testStrip)
	if err := na.leafs[victim.Disk].MemDevice.ReadStrip(int64(victim.Slot), buf); err != nil {
		t.Fatal(err)
	}
	buf[5] ^= 0x40
	if err := na.leafs[victim.Disk].MemDevice.WriteStrip(int64(victim.Slot), buf); err != nil {
		t.Fatal(err)
	}
	na.ResetStats()
	na.spy.take()
	if _, err := na.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := na.WriteAt(buf, 0); err != nil { // rewrites strip 0 with its own content
		t.Fatalf("write over a corrupt closure strip: %v", err)
	}
	if st := na.Stats(); st.CorruptStrips != 1 || st.ReadRepairs != 1 {
		t.Errorf("corrupt closure strip: %+v, want one corrupt strip, one repair", st)
	}
	if _, errs := na.spy.take(); len(errs) != 1 || len(errs[victim.Disk]) != 1 || !errors.Is(errs[victim.Disk][0], ErrCorrupt) {
		t.Errorf("observed errors %v, want one ErrCorrupt on disk %d", errs, victim.Disk)
	}
	if got := hashArray(t, na.Array); got != want {
		t.Fatal("content differs after the heal")
	}

	// The node of closure[2] refuses that one write. The redo record stays
	// pending, and the re-sent write replays it through the executor before
	// it snapshots.
	refused := closure[2]
	boom := fmt.Errorf("%w: injected", ErrTransient)
	na.nodes[refused.Disk%3].refuse = func(dev *nodeDev, idx int64, write bool) error {
		if write && dev.disk == refused.Disk && idx == int64(refused.Slot) {
			return boom
		}
		return nil
	}
	for k := range buf {
		buf[k] = byte(k)
	}
	na.spy.take()
	if _, err := na.WriteAt(buf, 0); !errors.Is(err, boom) {
		t.Fatalf("write with one refused closure strip: %v", err)
	}
	_, errs := na.spy.take()
	if len(errs) != 1 || len(errs[refused.Disk]) != 1 {
		t.Errorf("observed errors %v, want one on disk %d", errs, refused.Disk)
	}
	got := make([]byte, testStrip)
	if err := na.leafs[target.Disk].MemDevice.ReadStrip(int64(target.Slot), got); err != nil || string(got) != string(buf) {
		t.Errorf("the data strip of a half-refused commit did not land (err %v)", err)
	}
	if pending, err := na.journal.PendingClosures(); err != nil || len(pending) != 1 {
		t.Fatalf("pending redo records after the failed commit: %d, %v", len(pending), err)
	}
	na.nodes[refused.Disk%3].refuse = nil
	if _, err := na.WriteAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if pending, err := na.journal.PendingClosures(); err != nil || len(pending) != 0 {
		t.Fatalf("pending redo records after the re-sent write: %d, %v", len(pending), err)
	}
	if bad, err := na.Scrub(); err != nil || bad != 0 {
		t.Errorf("scrub after the re-sent write: %d bad, %v", bad, err)
	}
}

// orderDev is an opaque wrapper — it states no batch interface, as the
// engine's retry layer does not — that records its calls in order.
type orderDev struct {
	Device
	mu    sync.Mutex
	calls []string
}

func (o *orderDev) record(op string, idx int64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.calls = append(o.calls, fmt.Sprint(op, idx))
}

func (o *orderDev) take() []string {
	o.mu.Lock()
	defer o.mu.Unlock()
	calls := o.calls
	o.calls = nil
	return calls
}

func (o *orderDev) ReadStrip(idx int64, p []byte) error {
	o.record("r", idx)
	return o.Device.ReadStrip(idx, p)
}

func (o *orderDev) WriteStrip(idx int64, p []byte) error {
	o.record("w", idx)
	return o.Device.WriteStrip(idx, p)
}

// TestBatchLeavesOpaqueDevicesAlone: a disk whose device is not a batcher —
// an opaque wrapper around one, as the engine's retry layer is — is handed
// single calls in op order, each observed once, while the other disks keep
// batching.
func TestBatchLeavesOpaqueDevicesAlone(t *testing.T) {
	const wrapped = 4
	na := newNodeArray(t, 9)
	opaque := &orderDev{Device: na.leafs[wrapped]}
	na.InstrumentDevices(func(d int, dev Device) Device {
		if d == wrapped {
			return opaque
		}
		return dev
	})
	fillArray(t, na.Array, 47)
	na.calls()
	na.spy.take()
	opaque.take()
	if rep, err := na.Fsck(false); err != nil || !rep.Clean {
		t.Fatalf("fsck: %+v, %v", rep, err)
	}
	batches, _, singles := na.calls()
	calls := opaque.take()
	if batches == 0 || singles != len(calls) {
		t.Errorf("fsck: %d batch calls, %d single calls; want batches, and single calls for the %d ops of disk %d alone", batches, singles, len(calls), wrapped)
	}
	// The walk reads the disk's strips in stripe order, outer layer first.
	var want []string
	for cycle := range na.Cycles() {
		for _, outer := range []bool{true, false} {
			for _, stripe := range na.Analyzer().Scheme().Stripes() {
				for _, st := range stripe.Strips {
					if st.Disk == wrapped && outer == (stripe.Layer == layout.LayerOuter) {
						want = append(want, fmt.Sprint("r", cycle*na.slots+int64(st.Slot)))
					}
				}
			}
		}
	}
	if !slices.Equal(calls, want) {
		t.Fatalf("calls on the opaque device: %v, want %v", calls, want)
	}
	if seen, errs := na.spy.take(); seen[wrapped] != len(calls) || len(errs) != 0 {
		t.Errorf("disk %d was observed %d times for %d calls, errors %v", wrapped, seen[wrapped], len(calls), errs)
	}
}

// TestBatchFailureChargedOncePerDisk: when every strip of an op list on one
// disk fails for good — its device is gone — the observer is shown one
// failed op, whether the device batches or is handed single calls: a health
// monitor that evicts after a few failed ops must not evict on one. Transient
// failures are observed op by op.
func TestBatchFailureChargedOncePerDisk(t *testing.T) {
	const moved = 4
	na := newNodeArray(t, 9)
	fillArray(t, na.Array, 59)
	if err := na.StartMirror(moved, na.newLeaf(t, moved+1)); err != nil {
		t.Fatal(err)
	}
	gone := errors.New("device gone")
	na.nodes[moved%3].refuse = func(dev *nodeDev, _ int64, write bool) error {
		if dev == na.leafs[moved] && !write {
			return gone
		}
		return nil
	}
	na.spy.take()
	if err := na.CopyMirrorCycle(moved, 0); !errors.Is(err, gone) {
		t.Fatalf("copy from a device that is gone: %v", err)
	}
	if _, errs := na.spy.take(); len(errs) != 1 || len(errs[moved]) != 1 {
		t.Errorf("observed errors %v, want one on disk %d", errs, moved)
	}
	gone = fmt.Errorf("%w: path down", ErrTransient)
	if err := na.CopyMirrorCycle(moved, 0); !errors.Is(err, ErrTransient) {
		t.Fatalf("copy from an unreachable device: %v", err)
	}
	if _, errs := na.spy.take(); len(errs[moved]) != na.an.SlotsPerDisk() {
		t.Errorf("%d observed errors on disk %d, want one per strip of the cycle", len(errs[moved]), moved)
	}

	// An opaque device: a rebuild window onto a replacement that is gone.
	na = newNodeArray(t, 9)
	fillArray(t, na.Array, 61)
	if err := na.FailDisk(moved); err != nil {
		t.Fatal(err)
	}
	vanished := &refusingDev{Device: na.newLeaf(t, moved), err: errors.New("replacement gone")}
	for idx := range na.slots {
		vanished.idxs = append(vanished.idxs, idx)
	}
	if err := na.ReplaceDisk(moved, vanished); err != nil {
		t.Fatal(err)
	}
	na.spy.take()
	if err := na.Rebuild(); !errors.Is(err, vanished.err) {
		t.Fatalf("rebuild onto a replacement that is gone: %v", err)
	}
	if _, errs := na.spy.take(); len(errs) != 1 || len(errs[moved]) != 1 {
		t.Errorf("observed errors %v, want one on disk %d", errs, moved)
	}
	if st := na.DiskStats()[moved]; st.WriteOps < 2 {
		t.Errorf("the window wrote %d strips to the replacement, want several", st.WriteOps)
	}
}

// sleepDev is a device whose write of strip slow sleeps nap first.
type sleepDev struct {
	Device
	slow int64
	nap  time.Duration
}

func (d *sleepDev) WriteStrip(idx int64, p []byte) error {
	if idx == d.slow {
		time.Sleep(d.nap)
	}
	return d.Device.WriteStrip(idx, p)
}

// slowBlob is a blob whose writes sleep nap first.
type slowBlob struct {
	Blob
	nap time.Duration
}

func (b *slowBlob) WriteAt(p []byte, off int64) (int, error) {
	time.Sleep(b.nap)
	return b.Blob.WriteAt(p, off)
}

// tookLog is an observer that records the device time charged to each op.
type tookLog struct{ took []time.Duration }

func (l *tookLog) observe(_ int, took time.Duration, _ error) { l.took = append(l.took, took) }

// TestPlainOpChargedItsOwnCall: on an array of opaque devices, each op of a
// list is charged the time of its own device call — a write that sleeps in a
// closure commit at least its nap, the ops before and after it less. The nap
// is long enough that a thread descheduled on a loaded machine does not pass
// for it.
func TestPlainOpChargedItsOwnCall(t *testing.T) {
	const nap = 10 * time.Millisecond
	arr := newOIArray(t, 9)
	target, _ := arr.LocateDataStrip(0)
	closure := arr.an.WritePlan(target).Strips
	const slow = 2 // the closure strip whose write sleeps
	arr.InstrumentDevices(func(d int, dev Device) Device {
		if d == closure[slow].Disk {
			return &sleepDev{Device: dev, slow: int64(closure[slow].Slot), nap: nap}
		}
		return dev
	})
	var log tookLog
	arr.SetObserver(log.observe)
	if _, err := arr.WriteAt(make([]byte, testStrip), 0); err != nil {
		t.Fatal(err)
	}
	if len(log.took) != 2*len(closure) {
		t.Fatalf("%d ops observed, want a read and a write of each of %d closure strips", len(log.took), len(closure))
	}
	for i, took := range log.took {
		if sleeper := i == len(closure)+slow; sleeper != (took >= nap) {
			t.Errorf("op %d charged %v; only op %d sleeps %v", i, took, len(closure)+slow, nap)
		}
	}
}

// TestChecksumTimeNotCharged: on a journaled array the checksum step runs
// after the device calls, so none of its time is charged to an op — not even
// when its append, like the redo record's before the writes, takes 10 ms.
func TestChecksumTimeNotCharged(t *testing.T) {
	const nap = 10 * time.Millisecond
	arr := newOIArray(t, 9)
	b0, b1 := &slowBlob{Blob: NewMemBlob()}, &slowBlob{Blob: NewMemBlob()}
	if err := arr.SetJournal(openTestJournal(t, b0, b1, 9)); err != nil {
		t.Fatal(err)
	}
	var log tookLog
	arr.SetObserver(log.observe)
	b0.nap, b1.nap = nap, nap
	start := time.Now()
	if _, err := arr.WriteAt(make([]byte, testStrip), 0); err != nil {
		t.Fatal(err)
	}
	if len(log.took) == 0 || time.Since(start) < 2*nap {
		t.Fatalf("%d ops observed in %v: the redo record and the checksum step did not take their %v each", len(log.took), time.Since(start), nap)
	}
	for i, took := range log.took {
		if took >= nap {
			t.Errorf("op %d charged %v, the time of a checksum record", i, took)
		}
	}
}

// refusingDev is a device whose writes of some strips fail.
type refusingDev struct {
	Device
	idxs []int64
	err  error
}

func (d *refusingDev) WriteStrip(idx int64, p []byte) error {
	if slices.Contains(d.idxs, idx) {
		return d.err
	}
	return d.Device.WriteStrip(idx, p)
}

// dirtyCount is the number of stale destination strips of migrating disk d.
func dirtyCount(arr *Array, d int) int { return len(arr.mirrors[d].dirtyStrips()) }

// equalDevices fails unless a and b hold the same strips.
func equalDevices(t *testing.T, when string, a, b *MemDevice) {
	t.Helper()
	p, q := make([]byte, testStrip), make([]byte, testStrip)
	for idx := int64(0); idx < a.Strips(); idx++ {
		if err := a.ReadStrip(idx, p); err != nil {
			t.Fatal(err)
		}
		if err := b.ReadStrip(idx, q); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(p, q) {
			t.Fatalf("%s: strip %d of the destination differs from the source", when, idx)
		}
	}
}

// TestMirrorWritesTravelInBatches: a foreground write to a migrating disk is
// repeated at the migration's destination inside the destination node's
// batch — not one single call anywhere — and the destination's ops are
// neither counted nor observed. A destination that refuses its writes fails
// no foreground write and is observed by no one; the strips go dirty, and the
// drain re-copies them before the flip.
func TestMirrorWritesTravelInBatches(t *testing.T) {
	const moved = 4
	na := newNodeArray(t, 9)
	fillArray(t, na.Array, 61)
	dst := na.newLeaf(t, moved+1) // on another node than the source
	if err := na.StartMirror(moved, dst); err != nil {
		t.Fatal(err)
	}
	if err := na.CopyMirrorCycle(moved, 0); err != nil {
		t.Fatal(err)
	}
	na.calls()
	na.spy.take()
	na.ResetStats()
	fillArray(t, na.Array, 62)
	if batches, _, singles := na.calls(); batches == 0 || singles != 0 {
		t.Errorf("writes with a mirror on disk %d: %d batch calls, %d single calls; want no single call", moved, batches, singles)
	}
	seen, errs := na.spy.take()
	if st := na.DiskStats()[moved]; int64(seen[moved]) != st.ReadOps+st.WriteOps || len(errs) != 0 {
		t.Errorf("disk %d: observed %d times for %d device ops, errors %v", moved, seen[moved], st.ReadOps+st.WriteOps, errs)
	}
	if n := dirtyCount(na.Array, moved); n != 0 {
		t.Fatalf("%d dirty strips", n)
	}
	equalDevices(t, "after mirrored writes", na.leafs[moved].MemDevice, dst.MemDevice)

	refused := fmt.Errorf("%w: destination refuses", ErrTransient)
	setRefuse := func(refuse func(dev *nodeDev, idx int64, write bool) error) {
		dst.node.mu.Lock()
		defer dst.node.mu.Unlock()
		dst.node.refuse = refuse
	}
	setRefuse(func(dev *nodeDev, _ int64, write bool) error {
		if dev == dst && write {
			return refused
		}
		return nil
	})
	want := fillArray(t, na.Array, 63)
	if _, errs := na.spy.take(); len(errs) != 0 {
		t.Errorf("the destination's refusals were observed: %v", errs)
	}
	if n := dirtyCount(na.Array, moved); n != int(na.slots) {
		t.Errorf("%d dirty strips after every strip's repeat was refused, want %d", n, na.slots)
	}
	setRefuse(nil)
	if err := na.DrainMirror(moved); err != nil || dirtyCount(na.Array, moved) != 0 {
		t.Fatalf("drain: %v, %d strips still dirty", err, dirtyCount(na.Array, moved))
	}
	equalDevices(t, "after the drain", na.leafs[moved].MemDevice, dst.MemDevice)
	if err := na.SwapDisk(moved, dst); err != nil {
		t.Fatal(err)
	}
	if got := hashArray(t, na.Array); got != want {
		t.Fatal("content differs after the flip")
	}
}

// TestCopyMirror is a disk migration's copy on the array alone: cycle by
// cycle through the executor, byte-exact, one device read per strip copied, a
// corrupt source strip healed on the way; destination writes that are refused
// fail the copy with the device's own error and leave their strips dirty for
// the drain, which re-copies them.
func TestCopyMirror(t *testing.T) {
	const moved = 4
	t.Run("batched", func(t *testing.T) {
		na := newNodeArray(t, 9)
		dst := na.newLeaf(t, moved+1) // on another node than the source
		refuse := func(idxs []int64, err error) {
			dst.node.mu.Lock()
			defer dst.node.mu.Unlock()
			dst.node.refuse = func(dev *nodeDev, at int64, write bool) error {
				if write && dev == dst && slices.Contains(idxs, at) {
					return err
				}
				return nil
			}
		}
		checkCopyMirror(t, na.Array, moved, na.leafs[moved].MemDevice, dst.MemDevice, dst, refuse, na.calls)
	})
	t.Run("plain", func(t *testing.T) {
		arr := journaled(t, newOIArray(t, 9))
		mem, err := NewMemDevice(arr.devs[moved].Strips(), testStrip)
		if err != nil {
			t.Fatal(err)
		}
		dst := &refusingDev{Device: mem}
		checkCopyMirror(t, arr, moved, arr.devs[moved].(*MemDevice), mem, dst, func(idxs []int64, err error) { dst.idxs, dst.err = idxs, err }, nil)
	})
}

// checkCopyMirror migrates disk moved of arr, whose leaf is src, onto dst,
// whose leaf is dstLeaf; refuse(idxs, err) makes dst fail writes of strips
// idxs with err, and calls, when the devices batch, drains the nodes' records.
func checkCopyMirror(t *testing.T, arr *Array, moved int, src, dstLeaf *MemDevice, dst Device,
	refuse func(idxs []int64, err error), calls func() (batches, ops, singles int)) {
	t.Helper()
	travelled := func(what string, strips int) {
		t.Helper()
		if calls == nil {
			return
		}
		if batches, ops, singles := calls(); batches != 2 || ops != 2*strips || singles != 0 {
			t.Errorf("%s: %d batch calls carrying %d ops, %d single calls; want a read batch and a write batch of %d strips", what, batches, ops, singles, strips)
		}
	}
	want := fillArray(t, arr, 53)
	if err := arr.StartMirror(moved, dst); err != nil {
		t.Fatal(err)
	}
	garbage := make([]byte, testStrip)
	if err := src.WriteStrip(2, garbage); err != nil { // behind the checksums
		t.Fatal(err)
	}
	arr.ResetStats()
	for cycle := int64(0); cycle < arr.cycles; cycle++ {
		if err := arr.CopyMirrorCycle(moved, cycle); err != nil {
			t.Fatalf("copy of cycle %d: %v", cycle, err)
		}
	}
	if st, disk := arr.Stats(), arr.DiskStats()[moved]; disk.ReadOps != src.Strips() || st.CorruptStrips != 1 || st.ReadRepairs != 1 {
		t.Errorf("copy of %d strips: %d reads of the disk, %+v; want a read per strip, one corrupt strip healed", src.Strips(), disk.ReadOps, st)
	}
	equalDevices(t, "after the copy", src, dstLeaf)

	// Refused destination writes: the device's error, their strips dirty.
	stale := fmt.Errorf("%w: refused", ErrStaleEpoch)
	refuse([]int64{3, 5}, stale)
	if calls != nil {
		calls()
	}
	if err := arr.CopyMirrorCycle(moved, 0); !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("copy with refused destination writes: %v, want the device's ErrStaleEpoch", err)
	}
	dirty := dirtyCount(arr, moved) // a window stops the copy: one strip on a plain array
	if dirty == 0 {
		t.Fatal("refused destination writes left no strip dirty")
	}
	travelled("a copied cycle", arr.an.SlotsPerDisk())
	if err := arr.SwapDisk(moved, dst); err == nil {
		t.Fatal("SwapDisk over a dirty mirror")
	}
	for _, idx := range arr.mirrors[moved].dirtyStrips() {
		if err := dstLeaf.WriteStrip(idx, garbage); err != nil {
			t.Fatal(err)
		}
	}
	refuse(nil, nil)
	if err := arr.DrainMirror(moved); err != nil || dirtyCount(arr, moved) != 0 {
		t.Fatalf("drain: %v, %d strips still dirty", err, dirtyCount(arr, moved))
	}
	travelled("the drain", dirty)
	equalDevices(t, "after the drain", src, dstLeaf)
	if err := arr.SwapDisk(moved, dst); err != nil {
		t.Fatal(err)
	}
	if got := hashArray(t, arr); got != want {
		t.Fatal("content differs after the flip")
	}
}

// blockingDev is a device whose reads announce themselves on entered and
// then wait for release.
type blockingDev struct {
	Device
	entered, release chan struct{}
}

func (b *blockingDev) ReadStrip(idx int64, p []byte) error {
	b.entered <- struct{}{}
	<-b.release
	return b.Device.ReadStrip(idx, p)
}

// TestObservationPrecedesAttach: an op is observed before its hold on the
// array lock ends, and a device is attached only under the exclusive lock, so
// a read in flight on a disk when the disk is failed and replaced is observed
// before the replacement exists — no observation can count against a device
// attached after its op was issued.
func TestObservationPrecedesAttach(t *testing.T) {
	const d = 3
	arr := newOIArray(t, 9)
	var mu sync.Mutex
	var events []string
	event := func(e string) {
		mu.Lock()
		defer mu.Unlock()
		events = append(events, e)
	}
	arr.SetObserver(func(disk int, _ time.Duration, _ error) {
		if disk == d {
			event("observed")
		}
	})
	blocking := &blockingDev{Device: arr.devs[d], entered: make(chan struct{}), release: make(chan struct{})}
	arr.InstrumentDevices(func(disk int, dev Device) Device {
		if disk == d {
			return blocking
		}
		return dev
	})
	fresh, err := NewMemDevice(arr.devs[0].Strips(), testStrip)
	if err != nil {
		t.Fatal(err)
	}
	addr := int64(0)
	for arr.DataStripDisk(addr) != d {
		addr++
	}
	read := make(chan error, 1)
	go func() {
		_, err := arr.ReadAt(make([]byte, testStrip), addr*testStrip)
		read <- err
	}()
	<-blocking.entered
	attached := make(chan error, 1)
	go func() {
		err := arr.FailDisk(d)
		if err == nil {
			err = arr.ReplaceDisk(d, fresh)
		}
		event("attached")
		attached <- err
	}()
	select {
	case <-attached:
		t.Fatal("a device was attached while an op on the disk was in flight")
	case <-time.After(20 * time.Millisecond):
	}
	close(blocking.release)
	if err := <-read; err != nil {
		t.Fatal(err)
	}
	if err := <-attached; err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(events, []string{"observed", "attached"}) {
		t.Errorf("events %v, want the in-flight read observed before the attach", events)
	}
}

// TestRebuildReadsMatchPlan is E3 on the live array: for every choice of
// failed disk, the device reads a Rebuild makes on each survivor equal the
// plan's ReadsPerDisk to the strip, and are the same on every survivor — the
// uniform reconstruction workload the t-design declustering result proves
// (arXiv 1209.6152) and internal/sim only simulates. The rebuilt strips are
// the only writes, all on the replacement.
func TestRebuildReadsMatchPlan(t *testing.T) {
	for _, v := range []int{9, 16, 25} {
		t.Run(fmt.Sprintf("v=%d", v), func(t *testing.T) {
			arr := newOIArray(t, v)
			want := fillArray(t, arr, int64(v))
			checkRebuildReads(t, arr, func(d int) Device {
				mem, err := NewMemDevice(arr.cycles*int64(arr.an.SlotsPerDisk()), testStrip)
				if err != nil {
					t.Fatal(err)
				}
				return mem
			})
			if got := hashArray(t, arr); got != want {
				t.Fatal("content differs after the rebuilds")
			}
		})
	}
	t.Run("batched", func(t *testing.T) {
		na := newNodeArray(t, 9)
		want := fillArray(t, na.Array, 9)
		checkRebuildReads(t, na.Array, func(d int) Device { return na.newLeaf(t, d) })
		if got := hashArray(t, na.Array); got != want {
			t.Fatal("content differs after the rebuilds")
		}
	})
}

func checkRebuildReads(t *testing.T, arr *Array, replacement func(d int) Device) {
	t.Helper()
	for failed := 0; failed < arr.an.Disks(); failed++ {
		if err := arr.FailDisk(failed); err != nil {
			t.Fatal(err)
		}
		if err := arr.ReplaceDisk(failed, replacement(failed)); err != nil {
			t.Fatal(err)
		}
		plan := arr.an.Plan([]int{failed}, core.PlanOptions{})
		arr.ResetStats()
		if err := arr.Rebuild(); err != nil {
			t.Fatal(err)
		}
		survivor := (failed + 1) % arr.an.Disks()
		for d, st := range arr.DiskStats() {
			wantR, wantW := arr.cycles*int64(plan.ReadsPerDisk[d]), int64(0)
			if d == failed {
				wantW = arr.cycles * int64(plan.WriteStrips)
			}
			if st.ReadOps != wantR || st.WriteOps != wantW {
				t.Errorf("failed disk %d: disk %d did %d reads / %d writes, the plan says %d / %d", failed, d, st.ReadOps, st.WriteOps, wantR, wantW)
			}
			if d != failed && st.ReadOps != arr.DiskStats()[survivor].ReadOps {
				t.Errorf("failed disk %d: survivor %d read %d strips, survivor %d read %d: the load is not uniform",
					failed, d, st.ReadOps, survivor, arr.DiskStats()[survivor].ReadOps)
			}
		}
	}
}

// TestBatchExecutorAllocs pins what routing every multi-strip step through
// the executor costs an in-process array: nothing. A rebuilt cycle allocates
// no more than the step's own bookkeeping did before there was an executor,
// and a cycle of scrub nothing per stripe.
func TestBatchExecutorAllocs(t *testing.T) {
	if poolDrops() {
		t.Skip("sync.Pool drops items in this build (race detector)")
	}
	const runs = 20
	arr, err := NewMemArray(oiAnalyzer(t, 9), runs+4, testStrip)
	if err != nil {
		t.Fatal(err)
	}
	fillArray(t, arr, 3)
	if n := testing.AllocsPerRun(runs, func() {
		if _, _, err := scrubNext(arr); err != nil {
			t.Fatal(err)
		}
	}); n > 0 {
		t.Errorf("a scrubbed cycle: %v allocations, want none", n)
	}
	if err := arr.FailDisk(2); err != nil {
		t.Fatal(err)
	}
	mem, err := NewMemDevice(arr.cycles*int64(arr.an.SlotsPerDisk()), testStrip)
	if err != nil {
		t.Fatal(err)
	}
	if err := arr.ReplaceDisk(2, mem); err != nil {
		t.Fatal(err)
	}
	if _, err := rebuildNext(arr); err != nil { // computes the plan
		t.Fatal(err)
	}
	// What is left is RebuildCycle's list of the failed disks.
	if n := testing.AllocsPerRun(runs, func() {
		if _, err := rebuildNext(arr); err != nil {
			t.Fatal(err)
		}
	}); n > 1 {
		t.Errorf("a rebuilt cycle: %v allocations (limit 1)", n)
	}
}
