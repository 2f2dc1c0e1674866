package store

import (
	"errors"
	"hash/crc32"
	"slices"
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

// StripBatcher is the optional interface of a Device whose ops take
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

// batchOp is one device op of a request: a strip of disk's live device dev or,
// with mirror set, of the disk's migration destination.
type batchOp struct {
	dev    Device
	disk   int
	idx    int64
	buf    []byte
	err    error
	mirror bool
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
	leaves []StripBatcher // per op; nil once grouped, or for an opaque device
	opaque []int          // ops whose device is not a batcher
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

// noteDevices decides, when the device set changes, whether the executor has
// anything to coalesce. Caller holds mu.
func (a *Array) noteDevices() {
	a.batching = false
	for d := range a.devs {
		if canBatch(a.devs[d]) || canBatch(a.replaced[d]) || a.mirrors[d] != nil && canBatch(a.mirrors[d].dst) {
			a.batching = true
			return
		}
	}
}

// canBatch reports whether dev, which may be nil, is a batcher.
func canBatch(dev Device) bool {
	_, ok := dev.(StripBatcher)
	return ok
}

// SetObserver registers fn as the array's one observer: after every strip op
// of a disk's device, and after the checksum step — so a latent sector error
// reaches it as ErrCorrupt — it is handed the disk, how long the op took and
// its outcome. The engine's health monitor registers itself here. An op is
// observed before its hold on the array lock ends, and a device is attached
// only under the exclusive lock, so no observation ever counts against a
// device attached after its op was issued; fn therefore runs with the lock
// held and must neither block nor call back into the array.
func (a *Array) SetObserver(fn func(disk int, took time.Duration, err error)) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.observe = fn
}

// call performs op as one device call and runs the disk's steps over it.
func (a *Array) call(op *batchOp, write, raw bool) {
	var t0 time.Time
	if a.observe != nil {
		t0 = time.Now()
	}
	if write {
		op.err = op.dev.WriteStrip(op.idx, op.buf)
	} else {
		op.err = op.dev.ReadStrip(op.idx, op.buf)
	}
	var took time.Duration
	if a.observe != nil {
		took = time.Since(t0)
	}
	a.steps(op, took, write, raw)
}

// steps runs a disk's per-op steps over the outcome of op, which took took, in
// their one order (DESIGN.md §8): first the strip's checksum in the journal's
// table — verified after a read unless raw, recorded after a write — then the
// observer. An array without a journal has no checksums. A migration
// destination's op has no steps: the sum of what it wrote was recorded for
// the source, and its failure is the migration's, not the disk's.
func (a *Array) steps(op *batchOp, took time.Duration, write, raw bool) {
	if op.mirror {
		return
	}
	if a.journal != nil && op.err == nil {
		switch {
		case write:
			op.err = a.journal.RecordSum(op.disk, op.idx, crc32.Checksum(op.buf, castagnoli))
		case !raw:
			op.err = a.journal.verifySum(op.disk, op.idx, op.buf)
		}
	}
	if a.observe != nil {
		a.observe(op.disk, took, op.err)
	}
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
			a.call(op, false, raw)
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
// checksum failure (a latent sector error the checksum step caught) in
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

// writeStrips is the scatter half: it writes every op — a write to a
// migrating disk followed by the same write to its migration destination
// (withMirrors) — counts each but a destination's, and returns the first op
// that failed, destinations' aside: nil when none did. A failed write to a
// migrating disk, at either end, leaves its strip dirty for the migration to
// re-copy. Ops on one device land in op order. With bestEffort a failed write
// does not stop the ones after it (a closure commit); without, the plain loop
// stops at the first failure, and a batch — which travels whole — still
// reports it.
func (a *Array) writeStrips(sc *stripScratch, ops []batchOp, bestEffort bool) *batchOp {
	ops = a.withMirrors(ops)
	batched := a.batching && len(ops) > 1
	if batched {
		a.issue(sc, ops, true, false)
	}
	var failed *batchOp
	for i := range ops {
		op := &ops[i]
		if !op.mirror {
			a.countWrite(op.disk)
		}
		if !batched {
			a.call(op, true, false)
		}
		if op.err == nil {
			continue
		}
		if m := a.mirrors[op.disk]; m != nil {
			m.markDirty(op.idx)
		}
		if !op.mirror && failed == nil {
			failed = op
			if !batched && !bestEffort {
				break
			}
		}
	}
	return failed
}

// withMirrors returns ops with the same write to the migration destination
// right after each write to a migrating disk — ops itself when there is none.
func (a *Array) withMirrors(ops []batchOp) []batchOp {
	extra := 0
	for i := range ops {
		if a.mirrors[ops[i].disk] != nil && !ops[i].mirror {
			extra++
		}
	}
	if extra == 0 {
		return ops
	}
	n := len(ops)
	ops = slices.Grow(ops, extra)[:n+extra]
	for i, j := n-1, n+extra-1; i >= 0; i-- {
		op := ops[i]
		if m := a.mirrors[op.disk]; m != nil && !op.mirror {
			ops[j] = batchOp{dev: m.dst, disk: op.disk, idx: op.idx, buf: op.buf, mirror: true}
			j--
		}
		ops[j] = op
		j--
	}
	return ops
}

// issue performs ops on a batching array and leaves each outcome in its err:
// ops on a StripBatcher go to it in one call per batch key — the first key's
// on this goroutine, each other's on its own — and the disks' steps run over
// them afterwards, op by op, each charged its call's duration (a disk's
// permanent failure is observed once); an op on an opaque device is a single
// call, in op order.
func (a *Array) issue(sc *stripScratch, ops []batchOp, write, raw bool) {
	b := &sc.batch
	if cap(b.leaves) < len(ops) {
		b.leaves = make([]StripBatcher, len(ops))
	}
	leaves := b.leaves[:len(ops)]
	b.opaque, b.wire, b.from, b.groups = b.opaque[:0], b.wire[:0], b.from[:0], b.groups[:0]
	for i := range ops {
		if leaves[i], _ = ops[i].dev.(StripBatcher); leaves[i] == nil {
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
		a.call(&ops[i], write, raw)
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
				a.steps(op, g.took, write, raw)
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
// is always observed. A migration destination's failure is not the disk's.
func goneBefore(ops []batchOp, b *batchState, start, k int, err error) bool {
	if err == nil || IsTransient(err) {
		return false
	}
	for j := start; j < k; j++ {
		if e := b.wire[j].Err; e != nil && !IsTransient(e) && ops[b.from[j]].disk == ops[b.from[k]].disk && !ops[b.from[j]].mirror {
			return true
		}
	}
	return false
}
