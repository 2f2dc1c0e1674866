package store

import (
	"context"
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

// unbounded is the context of the device I/O no caller bounds: every write,
// which a deadline must never tear, and the array's own reads — a write's
// snapshot, a rebuild, migration or fsck window, a recovery probe.
var unbounded = context.Background()

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
	// Once ctx is done the reads stop, and those not done fail with an error
	// that wraps ctx's.
	ReadStrips(ctx context.Context, ops []StripOp)
	// WriteStrips is ReadStrips for writes. It takes no context: a write
	// the array has begun is never cut, so a deadline cannot tear a parity
	// closure.
	WriteStrips(ops []StripOp)
}

// batchOp is one device op of a request: a strip of disk's live device dev or,
// with mirror set, of the disk's migration destination. took is the device
// time the op is charged, measured only for an observer; gone says its device
// answered with a permanent failure.
type batchOp struct {
	dev    Device
	disk   int
	idx    int64
	buf    []byte
	err    error
	took   time.Duration
	mirror bool
	gone   bool
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
	wire   []StripOp      // the grouped ops, group after group
	from   []int          // wire[k] is ops[from[k]]
	groups []batchGroup
	sums   []stripSum // a write list's checksums (recordWrites)
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
// rebuilt cycle's tasks, a migrating disk's copy — holds per batch on a
// batching array. A window's strips exist three times over while they travel
// (the scratch set, the client's message, the node's), and on a coordinator
// whose whole resident set is a few tens of MiB that shows: measured on the
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

// SetObserver registers fn as the array's one observer: after the device
// calls of an op list, and after the checksum step — so a latent sector error
// reaches it as ErrCorrupt — it is handed each op's disk, the device time the
// op is charged and its outcome. The engine's health monitor registers itself
// here. An op is observed before its hold on the array lock ends, and a device
// is attached only under the exclusive lock, so no observation ever counts
// against a device attached after its op was issued; fn therefore runs with
// the lock held and must neither block nor call back into the array.
func (a *Array) SetObserver(fn func(disk int, took time.Duration, err error)) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.observe = fn
}

// exec is the batch executor (DESIGN.md §8). It issues every op first — on a
// batching array a list of more than one op through issue, otherwise one
// device call per op in op order — and then runs each disk's steps over the
// outcomes in op order: the strip's checksum in the journal's table (verified
// after a read, recorded after a write; an array without a journal has none),
// then the observer. A migration destination's op has no steps:
// the sum of what it wrote was recorded for the source, and its failure is the
// migration's, not the disk's. Neither step runs inside a device's time. sc
// may be nil for a list of one op, which is never grouped.
//
// A write list's checksums are one journal append (recordWrites), which also
// carries done's clear when done is not nil and every write but a
// destination's landed: the parity closure those writes commit. exec returns
// the append's error, which every op it recorded takes too; a clear alone,
// for a list with no such op, has no other place for it.
func (a *Array) exec(ctx context.Context, sc *stripScratch, ops []batchOp, write bool, done *PendingClosure) (logged error) {
	if a.batching && len(ops) > 1 {
		a.issue(ctx, sc, ops, write)
	} else {
		a.callEach(ctx, ops, write, false)
	}
	for i := range ops {
		ops[i].gone = ops[i].err != nil && !IsTransient(ops[i].err)
	}
	if write && a.journal != nil {
		logged = a.recordWrites(sc, ops, done)
	}
	for i := range ops {
		op := &ops[i]
		if op.mirror || goneBefore(ops[:i], op) {
			continue
		}
		if a.journal != nil && op.err == nil {
			if write {
				op.err = logged
			} else {
				op.err = a.journal.verifySum(op.disk, op.idx, op.buf)
			}
		}
		if a.observe != nil {
			a.observe(op.disk, op.took, op.err)
		}
	}
	return logged
}

// recordWrites is a write list's checksum step: the checksum of every strip
// it wrote, in op order, and done's clear when every write but a
// destination's landed, as one journal append.
func (a *Array) recordWrites(sc *stripScratch, ops []batchOp, done *PendingClosure) error {
	sums := sc.batch.sums[:0]
	for i := range ops {
		switch op := &ops[i]; {
		case op.mirror:
		case op.err != nil:
			done = nil
		default:
			sums = append(sums, stripSum{op.disk, op.idx, crc32.Checksum(op.buf, castagnoli)})
		}
	}
	sc.batch.sums = sums
	return a.journal.recordWrites(sums, done)
}

// callEach performs ops one device call each, in op order — with batched,
// only those on an opaque device — and, when an observer wants device times,
// charges each the time since the previous call returned: one clock reading
// per call boundary. A read on a batcher under a ctx that can end is a
// batch of one, so that ctx reaches the wire.
func (a *Array) callEach(ctx context.Context, ops []batchOp, write, batched bool) {
	var t time.Duration
	if a.observe != nil {
		t = monotime()
	}
	for i := range ops {
		op := &ops[i]
		if batched && canBatch(op.dev) {
			continue
		}
		switch {
		case write:
			op.err = op.dev.WriteStrip(op.idx, op.buf)
		case a.batching && ctx.Done() != nil && canBatch(op.dev):
			one := []StripOp{{Dev: op.dev, Idx: op.idx, Buf: op.buf}}
			op.dev.(StripBatcher).ReadStrips(ctx, one)
			op.err = one[0].Err
		default:
			op.err = op.dev.ReadStrip(op.idx, op.buf)
		}
		if a.observe != nil {
			now := monotime()
			op.took, t = now-t, now
		}
	}
}

// readStrips is the gather half of the batch executor: it reads every op, then
// settles each in op order with settleRead and returns the first error a
// settle returns, settling no op after it.
func (a *Array) readStrips(ctx context.Context, sc *stripScratch, ops []batchOp, depth int) error {
	a.exec(ctx, sc, ops, false, nil)
	for i := range ops {
		if err := a.settleRead(ctx, &ops[i], depth); err != nil {
			return err
		}
	}
	return nil
}

// settleRead accounts for the device read op made and heals a checksum
// failure (a latent sector error the checksum step caught) in place:
// reconstruct through whichever of the strip's stripes still decodes, write
// back, carry on with the healed content. depth bounds the recursion.
func (a *Array) settleRead(ctx context.Context, op *batchOp, depth int) error {
	a.countRead(op.disk)
	if !errors.Is(op.err, ErrCorrupt) || depth >= maxHealDepth {
		return op.err
	}
	a.stats.corruptStrips.Add(1)
	return a.healStrip(ctx, op.dev, op.disk, op.idx, op.buf, depth, op.err)
}

// writeStrips is the scatter half: it writes every op — a write to a
// migrating disk followed by the same write to its migration destination
// (withMirrors) — counts each but a destination's, and returns the error of
// the first op that failed, destinations' aside, else the journal's: nil when
// nothing did. A failed write does not stop the ones after it, and a failed
// write to a migrating disk, at either end, leaves its strip dirty for the
// migration to re-copy. Ops on one device land in op order. done, when not
// nil, is the parity closure the ops commit: it is cleared in the journal
// with their checksums when none failed.
func (a *Array) writeStrips(sc *stripScratch, ops []batchOp, done *PendingClosure) error {
	ops = a.withMirrors(ops)
	err := a.exec(unbounded, sc, ops, true, done)
	var failed error
	for i := range ops {
		op := &ops[i]
		if !op.mirror {
			a.countWrite(op.disk)
		}
		if op.err == nil {
			continue
		}
		if m := a.mirrors[op.disk]; m != nil {
			m.markDirty(op.idx)
		}
		if !op.mirror && failed == nil {
			failed = op.err
		}
	}
	if failed != nil {
		return failed
	}
	return err
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

// issue performs the ops of a batching array's list and leaves each outcome
// in its err: ops on a StripBatcher go to it in one call per batch key — the
// first key's on this goroutine, each other's on its own — every op charged
// its call's duration; the ops on opaque devices are single calls, as on a
// plain array (callEach).
func (a *Array) issue(ctx context.Context, sc *stripScratch, ops []batchOp, write bool) {
	b := &sc.batch
	if cap(b.leaves) < len(ops) {
		b.leaves = make([]StripBatcher, len(ops))
	}
	leaves := b.leaves[:len(ops)]
	b.wire, b.from, b.groups = b.wire[:0], b.from[:0], b.groups[:0]
	for i := range ops {
		leaves[i], _ = ops[i].dev.(StripBatcher)
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
		t := monotime()
		if write {
			g.lead.WriteStrips(b.wire[g.start:g.end])
		} else {
			g.lead.ReadStrips(ctx, b.wire[g.start:g.end])
		}
		g.took = monotime() - t
	}
	for gi := 1; gi < len(b.groups); gi++ {
		b.wg.Add(1)
		go func(g *batchGroup) {
			defer b.wg.Done()
			send(g)
		}(&b.groups[gi])
	}
	a.callEach(ctx, ops, write, true)
	if len(b.groups) > 0 {
		send(&b.groups[0])
	}
	b.wg.Wait()

	for _, g := range b.groups {
		for k := g.start; k < g.end; k++ {
			op := &ops[b.from[k]]
			op.err, op.took = b.wire[k].Err, g.took
		}
	}
	clear(b.wire) // drop the device and buffer references
	clear(b.groups)
}

// goneBefore reports whether op is a permanent failure that an op of earlier,
// the ops ahead of it in its list, on the same disk already met. A permanent
// error says the device is gone, and it says so once: a health probe that
// evicts after a few of them must not count one vanished device once per strip
// of the list. A transient failure is an event of its own op — how long it
// took is what slow-disk detection feeds on — and is always observed. A
// migration destination's failure is not the disk's.
func goneBefore(earlier []batchOp, op *batchOp) bool {
	return op.gone && slices.ContainsFunc(earlier, func(e batchOp) bool {
		return e.gone && !e.mirror && e.disk == op.disk
	})
}
