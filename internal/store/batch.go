package store

import (
	"errors"
	"sync"
	"time"
)

// StripOp is one strip access of a batch handed to a StripBatcher: read
// strip Idx of Dev into Buf, or write Buf to it. The batcher reports the
// op's outcome in Err.
type StripOp struct {
	Dev Device
	Idx int64
	Buf []byte
	Err error
}

// StripBatcher is the optional interface of a leaf Device whose ops take
// real time and can travel together — a strip on a storage node, where what
// an op costs is the round trip and not its bytes. The array hands such a
// device the strip ops of one request that share its BatchKey as one call,
// the calls of different keys concurrently. A Device without it gets the
// same ops one ReadStrip or WriteStrip at a time.
type StripBatcher interface {
	Device
	// BatchKey names what carries the device's ops (a connection to a
	// node): ops on devices with equal keys may go out together. The value
	// must be comparable.
	BatchKey() any
	// ReadStrips performs every op as ReadStrip would and sets its Err. Each
	// op's Dev is a device with this device's BatchKey, not necessarily this
	// one; ops on one device take effect in slice order. Buf is not retained.
	ReadStrips(ops []StripOp)
	// WriteStrips is ReadStrips for writes.
	WriteStrips(ops []StripOp)
}

// StripLayer is the optional interface of a transparent Device wrapper: one
// whose ReadStrip is exactly Under().ReadStrip followed by AfterRead, and
// whose WriteStrip is Under().WriteStrip followed by AfterWrite. Stating the
// per-strip work as hooks is what lets a batch pass through the layer: the
// array sends the ops to the leaf together and then runs each layer's hook
// per strip, innermost first, as the single calls would have. A wrapper that
// does anything else around the inner op — retries it, duplicates it, may
// not issue it — must not implement StripLayer; it stays opaque and keeps
// receiving single calls.
type StripLayer interface {
	Device
	// Under returns the device the layer forwards every strip op to.
	Under() Device
	// AfterRead receives the outcome of the inner read of strip idx into p,
	// which took took, and returns the layer's own outcome.
	AfterRead(idx int64, p []byte, took time.Duration, err error) error
	// AfterWrite is AfterRead for the inner write of p to strip idx.
	AfterWrite(idx int64, p []byte, took time.Duration, err error) error
}

// batchOp is one device op of a request: a strip of disk's live device dev.
type batchOp struct {
	dev  Device
	disk int
	idx  int64
	buf  []byte
	err  error
}

// batchGroup is the run of a batch's wire ops that share a batch key.
type batchGroup struct {
	lead       StripBatcher
	start, end int // into batchState.wire
	took       time.Duration
}

// batchState is the executor's part of a stripScratch.
type batchState struct {
	ops    []batchOp
	leaves []StripBatcher // per op; nil once grouped, or for an opaque stack
	opaque []int          // ops whose stack does not peel to a batcher
	wire   []StripOp      // the grouped ops, group after group
	from   []int          // wire[k] is ops[from[k]]
	groups []batchGroup
	wg     sync.WaitGroup
}

// opList returns an empty op list with room for n ops.
func (sc *stripScratch) opList(n int) []batchOp {
	if cap(sc.batch.ops) < n {
		sc.batch.ops = make([]batchOp, 0, n)
	}
	return sc.batch.ops[:0]
}

// batchWindowBytes bounds the strip buffers a step that walks many strips — a
// rebuilt cycle's tasks, fsck's checksum pass, a migrating disk's copy — holds
// per batch on a batching array. A window's strips exist three times over
// while they travel (the
// scratch set, the client's message, the node's), and on a coordinator whose
// whole resident set is a few tens of MiB that shows: measured on the
// bench's cluster-4k, windows of 1 MiB, 512, 256 and 128 KiB raise the
// memory peak by 8, 5, 3.7 and 2 %. 128 KiB still turns the 108 strip RPCs
// of a 4 KiB-strip cycle of the 9-disk geometry into 16, a strip that rides
// along costing a quarter of one that travels alone, so the round trips
// left are a tenth of a rebuilt cycle's time. A constant, not an option:
// nothing measured so far wants another value. On an array with nothing to
// coalesce a window is one task, or one strip.
const batchWindowBytes = 128 << 10

// windowStrips returns how many strip buffers a many-strip step may hold at
// once, at least least.
func (a *Array) windowStrips(least int) int {
	if !a.batching {
		return least
	}
	return max(least, batchWindowBytes/a.stripBytes)
}

// maxLayers bounds the transparent layers the executor peels; a deeper stack
// is opaque.
const maxLayers = 4

// batchLeaf peels dev's transparent layers down to its leaf and returns it
// when it can batch; nil means the stack is opaque. Only StripLayer is
// peeled — never an Inner() method, which fsck's unwrap hook shares with
// wrappers that are not transparent (MirrorDevice duplicates writes).
func batchLeaf(dev Device) StripBatcher {
	for n := 0; n <= maxLayers; n++ {
		layer, ok := dev.(StripLayer)
		if !ok {
			leaf, _ := dev.(StripBatcher)
			return leaf
		}
		dev = layer.Under()
	}
	return nil
}

// noteDevices decides, when the device set changes, whether the executor has
// anything to coalesce. Caller holds mu.
func (a *Array) noteDevices() {
	a.batching = false
	for d := range a.devs {
		if canBatch(a.devs[d]) || canBatch(a.replaced[d]) {
			a.batching = true
			return
		}
	}
}

// canBatch reports whether dev, which may be nil, peels to a batcher. A
// migration mirror does at either end: its copy gathers from one and scatters
// to the other.
func canBatch(dev Device) bool {
	if m, ok := dev.(*MirrorDevice); ok {
		return canBatch(m.src) || canBatch(m.dst)
	}
	return dev != nil && batchLeaf(dev) != nil
}

// stripCall is the single device call of op: the opaque path.
func stripCall(op *batchOp, write, raw bool) error {
	switch {
	case write:
		return op.dev.WriteStrip(op.idx, op.buf)
	case raw:
		return rawRead(op)
	}
	return op.dev.ReadStrip(op.idx, op.buf)
}

// rawRead reads op's strip under its stack's checksum layer, if it has one.
func rawRead(op *batchOp) error {
	if cd := checksummedOf(op.dev); cd != nil {
		return cd.ReadStripRaw(op.idx, op.buf)
	}
	return op.dev.ReadStrip(op.idx, op.buf)
}

// readStrips is the gather half of the batch executor (DESIGN.md §8): it
// reads every op and settles each in op order, stopping at the first error a
// settle returns. The default settle (nil) is readMember's — count the read,
// heal a checksum failure in place at heal depth depth; raw reads under the
// checksums and only counts. On an array with no batch-capable device, and
// for a single op anywhere, this is the plain loop: one ReadStrip, settle,
// next. Otherwise all ops are issued before any is settled.
func (a *Array) readStrips(sc *stripScratch, ops []batchOp, raw bool, depth int, settle func(op *batchOp) error) error {
	batched := a.batching && len(ops) > 1
	if batched {
		a.issue(sc, ops, false, raw)
	}
	for i := range ops {
		op := &ops[i]
		if !batched {
			op.err = stripCall(op, false, raw)
		}
		var err error
		if settle != nil {
			err = settle(op)
		} else {
			err = a.settleRead(op, raw, depth)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// settleRead accounts for the device read op made and, unless raw, heals a
// checksum failure (a latent sector error caught by a ChecksummedDevice) in
// place: reconstruct through whichever of the strip's stripes still decodes,
// write back, carry on with the healed content. depth bounds the recursion.
func (a *Array) settleRead(op *batchOp, raw bool, depth int) error {
	a.countRead(op.disk)
	if raw || !errors.Is(op.err, ErrCorrupt) || depth >= maxHealDepth {
		return op.err
	}
	a.stats.corruptStrips.Add(1)
	return a.healStrip(op.dev, op.disk, op.idx, op.buf, depth, op.err)
}

// writeStrips is the scatter half: it writes every op, counts it, and
// returns the first op that failed, nil when none did. Ops on one device
// land in op order. With bestEffort a failed write does not stop the ones
// after it (a closure commit); without, the plain loop stops at the first
// failure, and a batch — which travels whole — still reports it.
func (a *Array) writeStrips(sc *stripScratch, ops []batchOp, bestEffort bool) *batchOp {
	batched := a.batching && len(ops) > 1
	if batched {
		a.issue(sc, ops, true, false)
	}
	var failed *batchOp
	for i := range ops {
		op := &ops[i]
		a.countWrite(op.disk)
		if !batched {
			op.err = stripCall(op, true, false)
		}
		if op.err != nil && failed == nil {
			failed = op
			if !batched && !bestEffort {
				break
			}
		}
	}
	return failed
}

// issue performs ops on a batching array and leaves each outcome in its err:
// every device stack that peels to a StripBatcher has its op sent to the
// leaf in one call per batch key — the first key's on this goroutine, each
// other's on its own — and its layers' hooks run afterwards, per strip,
// innermost first (a disk's permanent failure is shown them once); an opaque
// stack gets its single call, in op order.
func (a *Array) issue(sc *stripScratch, ops []batchOp, write, raw bool) {
	b := &sc.batch
	if cap(b.leaves) < len(ops) {
		b.leaves = make([]StripBatcher, len(ops))
	}
	leaves := b.leaves[:len(ops)]
	b.opaque, b.wire, b.from, b.groups = b.opaque[:0], b.wire[:0], b.from[:0], b.groups[:0]
	for i := range ops {
		if leaves[i] = batchLeaf(ops[i].dev); leaves[i] == nil {
			b.opaque = append(b.opaque, i)
		}
	}
	for i := range ops {
		if leaves[i] == nil {
			continue
		}
		g := batchGroup{lead: leaves[i], start: len(b.wire)}
		key := g.lead.BatchKey()
		for j := i; j < len(ops); j++ {
			if leaves[j] != nil && leaves[j].BatchKey() == key {
				b.wire = append(b.wire, StripOp{Dev: leaves[j], Idx: ops[j].idx, Buf: ops[j].buf})
				b.from = append(b.from, j)
				leaves[j] = nil
			}
		}
		g.end = len(b.wire)
		b.groups = append(b.groups, g)
	}

	send := func(g *batchGroup) {
		t0 := time.Now()
		if write {
			g.lead.WriteStrips(b.wire[g.start:g.end])
		} else {
			g.lead.ReadStrips(b.wire[g.start:g.end])
		}
		g.took = time.Since(t0)
	}
	for gi := 1; gi < len(b.groups); gi++ {
		b.wg.Add(1)
		go func(g *batchGroup) {
			defer b.wg.Done()
			send(g)
		}(&b.groups[gi])
	}
	for _, i := range b.opaque {
		ops[i].err = stripCall(&ops[i], write, raw)
	}
	if len(b.groups) > 0 {
		send(&b.groups[0])
	}
	b.wg.Wait()

	for gi := range b.groups {
		g := &b.groups[gi]
		for k := g.start; k < g.end; k++ {
			op := &ops[b.from[k]]
			if op.err = b.wire[k].Err; !goneBefore(ops, b, g.start, k, op.err) {
				op.err = layerHooks(op, g.took, op.err, write, raw)
			}
		}
	}
	clear(b.wire) // drop the device and buffer references
	clear(b.groups)
}

// goneBefore reports whether err, the leaf's outcome of wire op k, is a
// permanent failure that an op on the same disk, earlier in its group (which
// starts at wire op start), already met. A permanent error says the device is
// gone, and it says so once: the loop of single calls stops at it, and a
// health probe that evicts after a few of them must not count one vanished
// device once per strip that rode along. A transient failure is an event of
// its own op — how long it took is what slow-disk detection feeds on — and
// always reaches the layers.
func goneBefore(ops []batchOp, b *batchState, start, k int, err error) bool {
	if err == nil || IsTransient(err) {
		return false
	}
	for j := start; j < k; j++ {
		if e := b.wire[j].Err; e != nil && !IsTransient(e) && ops[b.from[j]].disk == ops[b.from[k]].disk {
			return true
		}
	}
	return false
}

// layerHooks runs the hooks of op's transparent layers over the leaf's
// outcome err, innermost first — what the nested single calls do on their
// way back up. A raw read skips the checksum layer's verdict.
func layerHooks(op *batchOp, took time.Duration, err error, write, raw bool) error {
	var layers [maxLayers]StripLayer
	n := 0
	for dev := op.dev; ; n++ {
		layer, ok := dev.(StripLayer)
		if !ok {
			break
		}
		layers[n], dev = layer, layer.Under()
	}
	for n--; n >= 0; n-- {
		switch _, sums := layers[n].(*ChecksummedDevice); {
		case write:
			err = layers[n].AfterWrite(op.idx, op.buf, took, err)
		case !(raw && sums):
			err = layers[n].AfterRead(op.idx, op.buf, took, err)
		}
	}
	return err
}
