package store

import (
	"context"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/oiraid/oiraid/internal/core"
	"github.com/oiraid/oiraid/internal/erasure"
	"github.com/oiraid/oiraid/internal/gf"
	"github.com/oiraid/oiraid/internal/layout"
)

// IOStats counts device operations, the measured side of the paper's
// update-complexity claim.
type IOStats struct {
	// ReadOps/WriteOps are strip-granularity device accesses.
	ReadOps, WriteOps int64
	// DegradedReads counts reads served by reconstruction.
	DegradedReads int64
	// ReadRepairs counts strips healed in place after a checksum failure
	// (latent sector errors caught by the checksum step).
	ReadRepairs int64
	// CorruptStrips counts checksum mismatches observed on the read path
	// (each is an ErrCorrupt that triggered reconstruction).
	CorruptStrips int64
	// AvoidedReads counts reads served by reconstruction because the
	// strip's disk was read-avoided (quarantined as slow, not failed).
	AvoidedReads int64
}

// ioCounters is the lock-free accumulator behind IOStats, so concurrent
// readers (which hold only the read lock) can update the counters. Device
// ops are counted per disk (diskCounters); ReadOps/WriteOps are their sums.
type ioCounters struct {
	degradedReads, readRepairs, corruptStrips atomic.Int64
	avoidedReads                              atomic.Int64
}

func (c *ioCounters) snapshot() IOStats {
	return IOStats{
		DegradedReads: c.degradedReads.Load(),
		ReadRepairs:   c.readRepairs.Load(),
		CorruptStrips: c.corruptStrips.Load(),
		AvoidedReads:  c.avoidedReads.Load(),
	}
}

// diskCounters counts one disk's strip-granularity device accesses.
type diskCounters struct{ readOps, writeOps atomic.Int64 }

func (c *ioCounters) reset() {
	c.degradedReads.Store(0)
	c.readRepairs.Store(0)
	c.corruptStrips.Store(0)
	c.avoidedReads.Store(0)
}

// Array is a byte-accurate RAID array over strip devices, laid out by any
// layout.Scheme. It is safe for concurrent use: reads, ConcurrentWriteAt and
// the per-cycle background passes (fsck's among them) run under the read
// lock; WriteAt, failure injection and the rebuild's completion flip under
// the write lock.
//
// Mutability invariants (what the concurrency engine in internal/engine
// relies on):
//
//   - devs, replaced, mirrors, failed, journal and observe are only written
//     under mu; every I/O path reads them under at least the read lock.
//   - The rebuild and scrub cursors, stats and plans are atomic, so
//     read-lock holders may advance a cursor, bump counters and publish the
//     recovery plan they computed.
//   - Devices serialise their own strip accesses, so a single strip is
//     never read or written torn, even by read-lock holders (read repair
//     rewrites strips under the read lock).
//   - erasure.Code values are immutable after NewArray and safe to share.
//
// WriteAt therefore needs the write lock only to keep read-modify-write
// cycles on overlapping parity closures mutually atomic. A caller that
// guarantees that exclusion externally (striped locks over stripe ids) may
// use ConcurrentWriteAt instead, which runs under the read lock so writes
// to disjoint closures proceed in parallel.
type Array struct {
	mu  sync.RWMutex
	an  *core.Analyzer
	sch layout.Scheme

	// A disk is one device — a leaf, or an opaque wrapper such as a fault
	// injector — plus the per-disk state the array keeps beside
	// it and the steps it runs after every op (batch.go).
	devs       []Device
	replaced   []Device  // replacement device for rebuilt disks, nil otherwise
	mirrors    []*mirror // migration destination of a migrating disk, nil otherwise
	failed     []bool
	stripBytes int
	cycles     int64
	codes      map[[2]int]erasure.Code

	// Incremental-rebuild state: cycles below rebuiltCycles have been
	// reconstructed onto the replacement devices, so I/O for them treats
	// the failed disks as alive via their replacements.
	rebuiltCycles atomic.Int64

	// plans memoises the recovery plan of the array's unavailable set,
	// indexed by the read-avoid mark planned around (recoveryPlan): the
	// failed disks (the rebuild), failed plus down (deep reads), failed plus
	// down plus slow (the deep read that skirts quarantine). An entry is
	// used only while the set it was computed for, its Failed, is still that
	// set, and is replaced otherwise — no transition has to invalidate it.
	plans [readAvoidLevels]atomic.Pointer[core.Plan]

	// journal, when set, closes the write hole by redo logging: the full
	// new content of a read-modify-write's parity closure is made durable
	// before any device write, and RecoverIntent replays what a crash or a
	// failed commit left pending.
	journal *MetaJournal

	// meta, when set, is the durable metadata plane: state transitions
	// (fail/adopt/rebuild-complete) commit a new superblock epoch across
	// the live disks before they are acknowledged.
	meta *ArrayMeta

	// Incremental-scrub state: cycles below scrubCursor have been verified
	// in the current pass; ScrubCycle advances it and wraps to 0 when the
	// pass completes.
	scrubCursor atomic.Int64

	// readAvoid marks the disks whose reads are served by parity
	// reconstruction: a down disk always, a slow one when a decode path
	// around it exists (ReadAvoid). Writes still land on an avoided disk
	// (its content stays current, so leaving the mark needs no rebuild).
	// Nil until the first SetReadAvoid that sets a mark; written under mu,
	// read under at least the read lock.
	readAvoid []ReadAvoid

	// readOnly fences the write path: every WriteAt/ConcurrentWriteAt
	// fails with ErrReadOnly while set. Mount sets it when serving a
	// beyond-tolerance pattern under a non-refuse DegradedPolicy; the
	// engine's serving-mode machine toggles it on demotion/promotion.
	// Written under mu, read under at least the read lock.
	readOnly bool

	// scratch is the one pool of strip buffers (*stripScratch): the write
	// path, the task executor, the stripe walk and partial-strip reads all
	// borrow from it, so none of them allocates a strip in steady state. It
	// is held by pointer: the runtime keeps every pool in use for two
	// collections, and a pool inside the Array would keep the array, and
	// its devices' regions, with it.
	scratch *sync.Pool

	// observe is the observer SetObserver registered, nil for none.
	observe func(disk int, took time.Duration, err error)

	// batching records that some attached device is a StripBatcher,
	// so multi-strip steps go out as batches (batch.go); without one the
	// executor is the plain per-strip loop. Decided whenever the device set
	// changes, under mu.
	batching bool

	stats     ioCounters
	diskStats []diskCounters // per disk
}

// stripScratch is a borrowed set of strip-sized buffers plus the slice
// headers its borrower indexes strips through. A borrower owns it from
// getScratch to putScratch and must not let a buffer outlive that: devices
// do not retain what they are handed (see Device), sinks copy.
type stripScratch struct {
	stripBytes int
	bufs       [][]byte // owned buffers; grows to the most ever asked for
	heads      [][]byte // header scratch, may point at bufs or at caller memory
	batch      batchState
}

func (a *Array) getScratch() *stripScratch {
	return a.scratch.Get().(*stripScratch)
}

func (a *Array) putScratch(sc *stripScratch) {
	clear(sc.heads[:cap(sc.heads)]) // drop references to caller memory
	clear(sc.batch.ops[:cap(sc.batch.ops)])
	a.scratch.Put(sc)
}

// strips returns n of the scratch's buffers, contents undefined. A second
// call hands out the same buffers again.
func (sc *stripScratch) strips(n int) [][]byte {
	for len(sc.bufs) < n {
		sc.bufs = append(sc.bufs, make([]byte, sc.stripBytes))
	}
	return sc.bufs[:n:n]
}

// headers returns n nil slice headers.
func (sc *stripScratch) headers(n int) [][]byte {
	if cap(sc.heads) < n {
		sc.heads = make([][]byte, n)
	}
	return sc.heads[:n]
}

// NewArray assembles an array from one device per disk. All devices must
// share the strip size and hold a whole number of layout cycles
// (SlotsPerDisk strips each); capacity is truncated to the smallest
// device.
func NewArray(an *core.Analyzer, devs []Device) (*Array, error) {
	if len(devs) != an.Disks() {
		return nil, fmt.Errorf("%w: %d devices for %d disks", ErrBadGeometry, len(devs), an.Disks())
	}
	stripBytes := devs[0].StripBytes()
	minStrips := devs[0].Strips()
	for _, d := range devs[1:] {
		if d.StripBytes() != stripBytes {
			return nil, fmt.Errorf("%w: devices disagree on strip size", ErrBadGeometry)
		}
		if d.Strips() < minStrips {
			minStrips = d.Strips()
		}
	}
	cycles := minStrips / int64(an.SlotsPerDisk())
	if cycles < 1 {
		return nil, fmt.Errorf("%w: devices too small: %d strips < one cycle of %d", ErrBadGeometry, minStrips, an.SlotsPerDisk())
	}
	a := &Array{
		an:         an,
		sch:        an.Scheme(),
		devs:       devs,
		replaced:   make([]Device, len(devs)),
		mirrors:    make([]*mirror, len(devs)),
		failed:     make([]bool, len(devs)),
		stripBytes: stripBytes,
		cycles:     cycles,
		codes:      make(map[[2]int]erasure.Code),
		diskStats:  make([]diskCounters, len(devs)),
		scratch:    &sync.Pool{New: func() any { return &stripScratch{stripBytes: stripBytes} }},
	}
	a.noteDevices()
	for _, shape := range an.StripeShapes() {
		code, err := erasure.NewCode(shape[0], shape[1])
		if err != nil {
			return nil, fmt.Errorf("store: stripe shape %v: %w", shape, err)
		}
		a.codes[shape] = code
	}
	return a, nil
}

// Capacity returns the usable (data) capacity in bytes.
func (a *Array) Capacity() int64 {
	return a.cycles * int64(len(a.sch.DataStrips())) * int64(a.stripBytes)
}

// StripBytes returns the strip size.
func (a *Array) StripBytes() int { return a.stripBytes }

// Cycles returns the number of layout cycles.
func (a *Array) Cycles() int64 { return a.cycles }

// Stats returns a snapshot of the I/O counters.
func (a *Array) Stats() IOStats {
	st := a.stats.snapshot()
	for d := range a.diskStats {
		st.ReadOps += a.diskStats[d].readOps.Load()
		st.WriteOps += a.diskStats[d].writeOps.Load()
	}
	return st
}

// Analyzer returns the stripe-graph analyzer the array was built over, so
// a caller can derive parity closures and stripe membership for external
// locking (see ConcurrentWriteAt).
func (a *Array) Analyzer() *core.Analyzer { return a.an }

// ResetStats zeroes the I/O counters, the per-disk ones included.
func (a *Array) ResetStats() {
	a.stats.reset()
	for d := range a.diskStats {
		a.diskStats[d].readOps.Store(0)
		a.diskStats[d].writeOps.Store(0)
	}
}

// DiskStats returns each disk's ReadOps and WriteOps (index = disk id), which
// Stats sums — the measured side of the paper's uniform recovery load. The
// other fields stay zero.
func (a *Array) DiskStats() []IOStats {
	out := make([]IOStats, len(a.diskStats))
	for d := range a.diskStats {
		out[d] = IOStats{ReadOps: a.diskStats[d].readOps.Load(), WriteOps: a.diskStats[d].writeOps.Load()}
	}
	return out
}

// countRead and countWrite account for one device op on disk d.
func (a *Array) countRead(d int)  { a.diskStats[d].readOps.Add(1) }
func (a *Array) countWrite(d int) { a.diskStats[d].writeOps.Add(1) }

// FailedDisks returns the currently failed disk ids.
func (a *Array) FailedDisks() []int {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return a.failedListLocked()
}

// FailDisk marks disk d failed. Its device is no longer read or written;
// content is served by reconstruction until Rebuild. Failing a disk while
// an incremental rebuild is underway aborts that rebuild (the plan is
// stale); partial progress is discarded and the next Rebuild starts over
// against the full failure set. Failing an already-failed disk is an
// idempotent no-op — in particular it does not abort a rebuild already
// covering it.
func (a *Array) FailDisk(d int) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if d < 0 || d >= len(a.devs) {
		return fmt.Errorf("%w: %d", ErrNoSuchDisk, d)
	}
	if a.failed[d] {
		return nil
	}
	a.failed[d] = true
	a.replaced[d] = nil
	a.mirrors[d] = nil // the heal path owns a failed disk: its strips move by rebuild
	a.noteDevices()
	a.rebuiltCycles.Store(0)
	if a.meta != nil {
		// The eviction is acknowledged only once the new failed set is on
		// media; on error the in-memory state stays failed (conservative:
		// a disk more failed in memory than on media cannot lose data).
		return a.meta.commitFail(d, a.failedListLocked())
	}
	return nil
}

// failedListLocked lists the failed disk ids; caller holds mu.
func (a *Array) failedListLocked() []int {
	var out []int
	for d, f := range a.failed {
		if f {
			out = append(out, d)
		}
	}
	return out
}

// InstrumentDevices replaces every attached device (including any
// replacement already attached) with wrap(disk, device) — the hook a
// benchmark's tracer or a test's interposer goes through. The wrapper is
// opaque to the array: the per-disk steps (checksums, the observer) run around whatever it
// returns. Call it before serving I/O; wrap must return a device that
// delegates to its argument.
func (a *Array) InstrumentDevices(wrap func(disk int, dev Device) Device) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for i, dev := range a.devs {
		a.devs[i] = wrap(i, dev)
	}
	for i, dev := range a.replaced {
		if dev != nil {
			a.replaced[i] = wrap(i, dev)
		}
	}
	a.noteDevices()
}

// locate maps a logical data-strip index to (disk, absolute device strip).
func (a *Array) locate(dataIdx int64) (disk int, devStrip int64) {
	st, cycle := a.LocateDataStrip(dataIdx)
	return st.Disk, cycle*int64(a.an.SlotsPerDisk()) + int64(st.Slot)
}

// device returns the live device for disk d (replacement after rebuild).
func (a *Array) device(d int) Device {
	if a.replaced[d] != nil {
		return a.replaced[d]
	}
	return a.devs[d]
}

// liveDevice returns the device currently holding valid content for strip
// (d, devStrip), or nil when the strip is lost: a failed disk's strips
// become valid again on its replacement once their cycle has been rebuilt
// (incremental rebuild's high-water mark).
func (a *Array) liveDevice(d int, devStrip int64) Device {
	if !a.failed[d] {
		return a.device(d)
	}
	// devStrip = cycle·slots + slot with slot < slots, so the comparison
	// below is exactly cycle < rebuiltCycles.
	if a.replaced[d] != nil && devStrip < a.rebuiltCycles.Load()*int64(a.an.SlotsPerDisk()) {
		return a.replaced[d]
	}
	return nil
}

// stripAlive reports whether the strip's content is directly readable.
func (a *Array) stripAlive(d int, cycle int64) bool {
	return !a.failed[d] || (a.replaced[d] != nil && cycle < a.rebuiltCycles.Load())
}

// ReadAvoid is how reads treat a disk that is not failed: the mark
// SetReadAvoid sets. The marks are ordered; a read plans around every disk
// marked at least as high as the pass allows.
type ReadAvoid uint8

const (
	// ReadDirect: the disk's strips are read from it.
	ReadDirect ReadAvoid = iota
	// ReadSlow: reads plan around the disk while a decode path around it
	// exists, and read it when none does — slow beats unavailable. The
	// data-plane half of slow-disk quarantine.
	ReadSlow
	// ReadDown: reads plan around the disk in every pass and never read it;
	// a strip of it that does not decode around it is refused with
	// ErrUnreachable. The mark of a disk whose path is down.
	ReadDown

	readAvoidLevels = int(ReadDown) + 1
)

// avoidMark is disk d's read-avoid mark.
func (a *Array) avoidMark(d int) ReadAvoid {
	if a.readAvoid == nil {
		return ReadDirect
	}
	return a.readAvoid[d]
}

// avoided reports whether disk d is read-avoided (slow or down).
func (a *Array) avoided(d int) bool { return a.avoidMark(d) != ReadDirect }

// SetReadAvoid sets disk d's read-avoid mark (ReadDirect clears it). Writes
// are unaffected.
func (a *Array) SetReadAvoid(d int, mark ReadAvoid) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if d < 0 || d >= len(a.devs) {
		return fmt.Errorf("%w: %d", ErrNoSuchDisk, d)
	}
	if a.readAvoid == nil {
		if mark == ReadDirect {
			return nil
		}
		a.readAvoid = make([]ReadAvoid, len(a.devs))
	}
	a.readAvoid[d] = mark
	return nil
}

// SetReadOnly fences (or unfences) the array's write path: while set,
// WriteAt and ConcurrentWriteAt fail with ErrReadOnly. Reads, rebuild,
// and structural transitions are unaffected — the flag is the data-plane
// half of degraded read-only serving.
func (a *Array) SetReadOnly(ro bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.readOnly = ro
}

// ReadOnly reports whether the write path is fenced.
func (a *Array) ReadOnly() bool {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return a.readOnly
}

// Availability classifies every strip under the union of the committed
// failed set and the extra unavailable disks (down paths, quarantined
// nodes) — the per-strip map the degraded serving plane consults.
func (a *Array) Availability(extraDown []int) *core.Availability {
	a.mu.RLock()
	defer a.mu.RUnlock()
	u := a.failedListLocked()
	u = append(u, extraDown...)
	return a.an.Availability(u)
}

// LocateDataStrip maps a logical data-strip index to its per-cycle
// layout position and cycle — the coordinates the availability map
// classifies.
func (a *Array) LocateDataStrip(dataIdx int64) (layout.Strip, int64) {
	perCycle := int64(len(a.sch.DataStrips()))
	return a.sch.DataStrips()[dataIdx%perCycle], dataIdx / perCycle
}

// ReadAvoided returns the currently read-avoided disk ids.
func (a *Array) ReadAvoided() []int {
	a.mu.RLock()
	defer a.mu.RUnlock()
	var out []int
	for d := range a.readAvoid {
		if a.readAvoid[d] != ReadDirect {
			out = append(out, d)
		}
	}
	return out
}

// readStrip reads one physical strip, reconstructing if the disk is
// failed. A read-avoided disk is bypassed the same way: a down one always —
// a strip that does not decode around it is refused with ErrUnreachable —
// and a slow one when a decode path around it exists. A checksum failure
// (latent sector error) is healed in place: the strip is reconstructed from
// parity and rewritten.
func (a *Array) readStrip(ctx context.Context, d int, devStrip int64, p []byte) error {
	dev := a.liveDevice(d, devStrip)
	if dev == nil {
		return a.reconstructStripDepth(ctx, d, devStrip, p, 0)
	}
	if a.avoided(d) && !a.failed[d] {
		if err := a.readStripAvoiding(ctx, d, devStrip, p); err == nil {
			a.stats.avoidedReads.Add(1)
			return nil
		}
		// No single stripe around the disk (another disk failed or also
		// avoided in every shared stripe): a slow disk is read directly,
		// a down one only ever reconstructed.
		if a.avoidMark(d) == ReadDown {
			if err := a.reconstructStripDepth(ctx, d, devStrip, p, 0); err != nil {
				return fmt.Errorf("%w: disk %d is down and strip %d does not decode around it (%v)", ErrUnreachable, d, devStrip, err)
			}
			return nil
		}
	}
	err := a.readMember(ctx, dev, d, devStrip, p, 0)
	if err == nil || errors.Is(err, ErrCorrupt) || ctx.Err() != nil {
		return err
	}
	// The disk is dark (unreachable path, injected fault) rather than
	// corrupt. The failed access has already been observed by the health
	// instrumentation, so availability is the only question left: serve
	// the strip from survivors when the layout still decodes it —
	// single-stripe decode first, full multi-phase peeling (avoiding
	// quarantined peers, usually dark for the same reason) after.
	if rerr := a.reconstructStripDepth(ctx, d, devStrip, p, 0); rerr == nil {
		return nil
	}
	return err
}

// readMember is the one-strip device read of the data plane (DESIGN.md §8):
// strip (d, devStrip) of dev, its live device, as a one-op list of the batch
// executor — counted, and healed in place when it fails its checksum.
func (a *Array) readMember(ctx context.Context, dev Device, d int, devStrip int64, p []byte, depth int) error {
	ops := [1]batchOp{{dev: dev, disk: d, idx: devStrip, buf: p}}
	return a.readStrips(ctx, nil, ops[:], depth)
}

// healStrip reconstructs strip (d, devStrip), whose read failed with the
// checksum error cause, into p and rewrites it on dev, as any write of the
// data plane. A strip no stripe can decode fails with both cause and the
// reconstruction error in the chain; a failed write-back carries neither.
func (a *Array) healStrip(ctx context.Context, dev Device, d int, devStrip int64, p []byte, depth int, cause error) error {
	if herr := a.reconstructStripDepth(ctx, d, devStrip, p, depth+1); herr != nil {
		return fmt.Errorf("store: corrupt source (%d,%d) unhealable (%w): %w", d, devStrip, herr, cause)
	}
	a.stats.readRepairs.Add(1)
	sc := a.getScratch() // the caller's is busy settling its own batch
	defer a.putScratch(sc)
	if err := a.writeStrips(sc, append(sc.opList(1), batchOp{dev: dev, disk: d, idx: devStrip, buf: p}), nil); err != nil {
		return fmt.Errorf("store: read repair of strip (%d,%d): %w", d, devStrip, err)
	}
	return nil
}

// maxHealDepth bounds recursive healing of corrupt source strips, which
// could otherwise chase a (pathological) cycle of mutually corrupt strips.
const maxHealDepth = 3

// errNoDecodePath is the internal verdict of decodeVia when no single
// live stripe can reconstruct the target under the given predicate.
var errNoDecodePath = errors.New("store: no single-stripe decode path")

// reconstructStripDepth rebuilds strip (d, devStrip) into p: single-stripe
// decoding when one live stripe suffices, full multi-phase peeling for
// deep multi-failure patterns. depth is the heal recursion depth (0 for a
// read that is not itself healing a source).
func (a *Array) reconstructStripDepth(ctx context.Context, d int, devStrip int64, p []byte, depth int) error {
	a.stats.degradedReads.Add(1)
	slots := int64(a.an.SlotsPerDisk())
	cycle, slot := devStrip/slots, int(devStrip%slots)
	target := layout.Strip{Disk: d, Slot: slot}
	if a.readAvoid != nil {
		// Prefer decode paths that also skirt slow disks — a quarantined
		// disk costs latency, an unreachable node costs the whole read. A
		// strict-path failure falls through to the pass that reads slow
		// disks; no pass reads a down one.
		strict := func(disk int) bool { return a.stripAlive(disk, cycle) && !a.avoided(disk) }
		if err := a.decodeVia(ctx, target, cycle, strict, p, depth); err == nil {
			return nil
		}
		if err := a.reconstructDeep(ctx, cycle, target, p, ReadSlow, depth); err == nil {
			return nil
		}
	}
	alive := func(disk int) bool { return a.stripAlive(disk, cycle) && a.avoidMark(disk) != ReadDown }
	err := a.decodeVia(ctx, target, cycle, alive, p, depth)
	if errors.Is(err, errNoDecodePath) {
		return a.reconstructDeep(ctx, cycle, target, p, ReadDown, depth)
	}
	return err
}

// readStripAvoiding reconstructs strip (d, devStrip) through a single
// stripe whose surviving members all sit on disks that are neither
// failed nor read-avoided — the read path around a quarantined disk.
// Unlike failure reconstruction it never falls back to the deep
// multi-phase path: the disk is alive, so the caller direct-reads it
// instead.
func (a *Array) readStripAvoiding(ctx context.Context, d int, devStrip int64, p []byte) error {
	slots := int64(a.an.SlotsPerDisk())
	cycle, slot := devStrip/slots, int(devStrip%slots)
	target := layout.Strip{Disk: d, Slot: slot}
	alive := func(disk int) bool {
		return disk != d && a.stripAlive(disk, cycle) && !a.avoided(disk)
	}
	return a.decodeVia(ctx, target, cycle, alive, p, 0)
}

// decodeVia reconstructs target into p through one stripe whose members
// satisfy alive: the one-task plan core.DecodePath describes. It returns
// errNoDecodePath when no single stripe qualifies.
func (a *Array) decodeVia(ctx context.Context, target layout.Strip, cycle int64, alive func(disk int) bool, p []byte, depth int) error {
	info, ok := a.an.DecodePath(target, alive)
	if !ok {
		return errNoDecodePath
	}
	run := planRun{ctx: ctx, cycle: cycle, depth: depth, sc: a.getScratch()}
	defer a.putScratch(run.sc)
	return a.execTask(&run, info.Stripe, info.Present, []int{info.Target}, nil,
		func(_ layout.Strip, content []byte) { copy(p, content) })
}

// planRun is the state of one execution of recovery tasks over one cycle.
type planRun struct {
	ctx   context.Context // bounds the run's device reads
	cycle int64
	depth int // heal recursion depth of the read being served
	// sc lends every task of the run its shard set; whoever starts the
	// run borrows it and gives it back.
	sc *stripScratch
}

// execTask is the gather-decode-scatter of one in-memory recovery task. It
// reads the members of stripe via that reads marks into their shards — as one
// batch through readStrips, so a checksum-failed survivor is healed through
// its other stripe — decodes, and hands the strip at each targets position to
// sink (content is only valid during the call). A source that an earlier task
// of the same run reconstructed is served by earlier, which reports false for
// a strip the plan never lost; nil when no source can be one.
func (a *Array) execTask(run *planRun, via int, reads []bool, targets []int,
	earlier func(st layout.Strip, p []byte) bool,
	sink func(st layout.Strip, content []byte)) error {
	stripe := a.sch.Stripes()[via]
	shards := run.sc.strips(len(stripe.Strips))
	ops := run.sc.opList(len(stripe.Strips))
	slots := int64(a.an.SlotsPerDisk())
	for pos, read := range reads {
		if !read {
			continue
		}
		st := stripe.Strips[pos]
		if earlier != nil && earlier(st, shards[pos]) {
			continue
		}
		idx := run.cycle*slots + int64(st.Slot)
		ops = append(ops, batchOp{dev: a.liveDevice(st.Disk, idx), disk: st.Disk, idx: idx, buf: shards[pos]})
	}
	if err := a.readStrips(run.ctx, run.sc, ops, run.depth); err != nil {
		return err
	}
	if err := a.codes[[2]int{stripe.Data, stripe.Parity()}].Reconstruct(shards, reads); err != nil {
		return fmt.Errorf("store: reconstruct stripe %d of cycle %d: %w", via, run.cycle, err)
	}
	for _, pos := range targets {
		sink(stripe.Strips[pos], shards[pos])
	}
	return nil
}

// DataStripDisk returns the disk holding logical data strip dataIdx — the
// disk whose latency profile decides a hedged read's timer.
func (a *Array) DataStripDisk(dataIdx int64) int {
	d, _ := a.locate(dataIdx)
	return d
}

// ReconstructDataStrip reads logical data strip dataIdx without touching
// the disk that stores it, decoding from the surviving members of one of
// its stripes — the racing branch of a hedged read. ctx bounds the reads as
// it does ReadAtCtx's. It fails with errNoDecodePath semantics (wrapped
// ErrDiskFaulty) when no stripe can be decoded around the disk.
func (a *Array) ReconstructDataStrip(ctx context.Context, dataIdx int64, p []byte) error {
	a.mu.RLock()
	defer a.mu.RUnlock()
	d, devStrip := a.locate(dataIdx)
	if err := a.readStripAvoiding(ctx, d, devStrip, p); err != nil {
		if errors.Is(err, errNoDecodePath) {
			return fmt.Errorf("%w: no decode path around disk %d", ErrDiskFaulty, d)
		}
		return err
	}
	return nil
}

// ProbeDiskStrip reads one strip directly from disk d's device, bypassing
// read-avoidance and reconstruction — the quarantine manager's recovery
// probe. It fails with ErrDiskFaulty when the strip has no live device.
func (a *Array) ProbeDiskStrip(d int, devStrip int64, p []byte) error {
	a.mu.RLock()
	defer a.mu.RUnlock()
	if d < 0 || d >= len(a.devs) {
		return fmt.Errorf("%w: %d", ErrNoSuchDisk, d)
	}
	dev := a.liveDevice(d, devStrip)
	if dev == nil {
		return fmt.Errorf("%w: disk %d", ErrDiskFaulty, d)
	}
	ops := [1]batchOp{{dev: dev, disk: d, idx: devStrip, buf: p}}
	a.countRead(d)
	a.exec(unbounded, nil, ops[:], false, nil)
	return ops[0].err
}

// recoveryPlan returns the recovery plan of the failed disks and of those
// marked around or higher (ReadDirect: the failed disks alone), computing it
// only when no memo holds the plan of that set — while no disk carries the
// marks that would tell them apart, every pass shares one plan. Caller holds
// mu in either mode: readers that miss together each compute the same plan.
func (a *Array) recoveryPlan(around ReadAvoid) *core.Plan {
	down := func(d int) bool { return a.failed[d] || around != ReadDirect && a.avoidMark(d) >= around }
	n := 0
	for d := range a.devs {
		if down(d) {
			n++
		}
	}
	// As many disks, all of them down: the same set.
	for i := range a.plans {
		if plan := a.plans[i].Load(); plan != nil && len(plan.Failed) == n &&
			!slices.ContainsFunc(plan.Failed, func(d int) bool { return !down(d) }) {
			return plan
		}
	}
	set := make([]int, 0, n)
	for d := range a.devs {
		if down(d) {
			set = append(set, d)
		}
	}
	plan := a.an.Plan(set, core.PlanOptions{})
	a.plans[around].Store(plan)
	return plan
}

// reconstructDeep recovers the target strip in memory (no device writes)
// by running the part of the recovery plan the strip needs: the tasks
// Plan.For extracts, at most one stripe per phase on OI-RAID. It is the slow
// path for failure patterns where no single live stripe covers the strip —
// e.g. reading a group that lost two disks before any rebuild. The disks
// marked around or higher are planned around as if failed, so a
// partition-downed node never stalls the read of a strip that is decodable
// without it. An incomplete plan does not abort the read — the
// plan still rebuilds every recoverable strip, and only a target it does not
// rebuild fails, with ErrStripUnavailable (the per-strip refinement of
// ErrTooManyFailures).
func (a *Array) reconstructDeep(ctx context.Context, cycle int64, target layout.Strip, p []byte, around ReadAvoid, depth int) error {
	plan := a.recoveryPlan(around)
	need := plan.For(target)
	if len(need) == 0 {
		return fmt.Errorf("%w: strip %v under failed disks %v", ErrStripUnavailable, target, plan.Failed)
	}
	// Strips the earlier tasks rebuilt wait in borrowed buffers, kept[i] in
	// held[i], for the tasks that read them.
	rebuilt := 0
	for _, ti := range need {
		rebuilt += len(plan.Tasks[ti].Targets)
	}
	keep := a.getScratch()
	defer a.putScratch(keep)
	held, kept := keep.strips(rebuilt), make([]layout.Strip, 0, rebuilt)
	earlier := func(st layout.Strip, buf []byte) bool {
		i := slices.Index(kept, st)
		if i >= 0 {
			copy(buf, held[i])
		}
		return i >= 0
	}
	sink := func(st layout.Strip, content []byte) {
		if st == target {
			copy(p, content)
		} else {
			copy(held[len(kept)], content)
			kept = append(kept, st)
		}
	}
	run := planRun{ctx: ctx, cycle: cycle, depth: depth, sc: a.getScratch()}
	defer a.putScratch(run.sc)
	for _, ti := range need {
		task := &plan.Tasks[ti]
		if err := a.execTask(&run, task.Via, task.Present, task.TargetPos, earlier, sink); err != nil {
			return err
		}
	}
	return nil
}

// ReadAt implements io.ReaderAt: ReadAtCtx with no deadline.
func (a *Array) ReadAt(p []byte, off int64) (int, error) { return a.ReadAtCtx(unbounded, p, off) }

// ReadAtCtx reads the logical data space, serving degraded reads
// transparently. ctx bounds the device reads that go to a StripBatcher (a
// strip on a storage node): once it is done, a message in flight is cut and
// the read fails with ctx's error, and so does every read after it. Local
// devices answer in microseconds and are not cut. A read's heal write-back
// is never cut.
func (a *Array) ReadAtCtx(ctx context.Context, p []byte, off int64) (int, error) {
	a.mu.RLock()
	defer a.mu.RUnlock()
	if off < 0 {
		return 0, fmt.Errorf("%w: %d", ErrNegativeOffset, off)
	}
	total := 0
	var sc *stripScratch // borrowed by the first partial strip
	defer func() {
		if sc != nil {
			a.putScratch(sc)
		}
	}()
	for total < len(p) {
		pos := off + int64(total)
		if pos >= a.Capacity() {
			return total, io.EOF
		}
		dataIdx := pos / int64(a.stripBytes)
		within := int(pos % int64(a.stripBytes))
		n := a.stripBytes - within
		if n > len(p)-total {
			n = len(p) - total
		}
		d, devStrip := a.locate(dataIdx)
		if n == a.stripBytes {
			// A whole strip lands in the caller's memory directly.
			if err := a.readStrip(ctx, d, devStrip, p[total:total+n]); err != nil {
				return total, err
			}
		} else {
			if sc == nil {
				sc = a.getScratch()
			}
			buf := sc.strips(1)[0]
			if err := a.readStrip(ctx, d, devStrip, buf); err != nil {
				return total, err
			}
			copy(p[total:total+n], buf[within:])
		}
		total += n
	}
	return total, nil
}

// WriteAt implements io.WriterAt over the logical data space. Every
// touched data strip is updated read-modify-write together with its parity
// closure (inner parity, outer parity, and the outer parity's inner parity
// for OI-RAID). Writes during degraded mode update only live strips; the
// rebuild reconstructs the rest.
func (a *Array) WriteAt(p []byte, off int64) (int, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.writeAtLocked(p, off)
}

// ConcurrentWriteAt is WriteAt under the read lock: disjoint writes run in
// parallel with each other and with reads. The caller must guarantee that
// no two concurrent ConcurrentWriteAt calls touch intersecting parity
// closures, that no concurrent read decodes through a stripe an in-flight
// write is updating, and that no write runs on a cycle a background pass
// (RebuildCycle, ScrubCycle, FsckCycle, CopyMirrorCycle) is on — the engine
// in internal/engine provides exactly this exclusion. Structural operations
// (FailDisk, ReplaceDisk, the rebuild's flip) take the write lock and
// therefore remain safe to interleave.
func (a *Array) ConcurrentWriteAt(p []byte, off int64) (int, error) {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return a.writeAtLocked(p, off)
}

func (a *Array) writeAtLocked(p []byte, off int64) (int, error) {
	if a.readOnly {
		return 0, fmt.Errorf("%w: write of %d bytes at %d", ErrReadOnly, len(p), off)
	}
	if off < 0 {
		return 0, fmt.Errorf("%w: %d", ErrNegativeOffset, off)
	}
	total := 0
	for total < len(p) {
		pos := off + int64(total)
		if pos >= a.Capacity() {
			return total, io.ErrShortWrite
		}
		dataIdx := pos / int64(a.stripBytes)
		within := int(pos % int64(a.stripBytes))
		n := a.stripBytes - within
		if n > len(p)-total {
			n = len(p) - total
		}
		if err := a.writeStripRange(dataIdx, within, p[total:total+n]); err != nil {
			return total, err
		}
		total += n
	}
	return total, nil
}

// resolvePendingClosures is the consistency barrier ahead of a
// read-modify-write's snapshot. A commit that failed partway can leave
// the closure half-applied on media — over a network transport a "failed"
// write may in fact have landed (the ack was lost), so after the failure
// some strips hold the new content and some the old. Snapshotting such
// media computes deltas from a mix of bases: in the worst case the target
// reads back its own ghost-landed value, the delta is zero, and the
// commit would rewrite every stale parity strip with its stale value and
// acknowledge — freezing the inconsistency and discarding the very redo
// record that could repair it.
//
// So before reading anything, the write resolves the cycle's pending redo
// records against its own closure, the strips of the target's write plan
// (one fixed list per target — which is what lets a retry recognise the redo
// record its failed predecessor left behind: same target, same strip set):
//
//   - A record whose strips all lie inside the closure is a failed earlier
//     attempt of this same write (the closure of a target is deterministic
//     and contains exactly one data strip — the target — so no other
//     write's record can be a subset). It is replayed onto the live strips,
//     restoring the media to the consistent recorded state, and cleared.
//     The caller's striped locks cover the whole closure, so the replay
//     races with nothing.
//   - A record that merely overlaps the closure belongs to a different
//     in-flight write; committing over it would break the invariant that a
//     pending record is never older than an acknowledged overlapping
//     commit (which is what makes replaying it at recovery, rebuild or
//     node-return time unconditionally safe). The write refuses with
//     ErrIntentConflict and the caller retries; the conflict clears once
//     the record's own writer replays it.
//   - Disjoint records are left alone.
func (a *Array) resolvePendingClosures(cycle int64, closure []layout.Strip) error {
	pending, err := a.journal.PendingClosures()
	if err != nil {
		return err
	}
	for _, pc := range pending {
		if pc.Cycle != cycle || len(pc.Strips) == 0 {
			continue
		}
		inside := 0
		for _, su := range pc.Strips {
			for _, st := range closure {
				if st.Disk == su.Disk && st.Slot == su.Slot {
					inside++
					break
				}
			}
		}
		if inside == 0 {
			continue
		}
		if inside < len(pc.Strips) {
			return fmt.Errorf("%w: cycle %d", ErrIntentConflict, cycle)
		}
		if err := a.replayClosure(pc); err != nil {
			// Consistency not restored; keep the record and fail the op
			// (the caller retries, as it would for the original failure).
			// The cause stays in the chain: a replay refused by a fencing
			// epoch (ErrStaleEpoch) must not masquerade as a disk fault.
			return fmt.Errorf("%w: %w", ErrIntentReplay, err)
		}
	}
	return nil
}

// writeStripRange applies a sub-strip write to logical data strip dataIdx
// as a snapshot-then-commit read-modify-write over the strip's write plan
// (core.WritePlan): first the current values of the data strip and its
// whole parity closure are collected (reconstructing strips on failed
// disks, so both redundancy layers stay mutually consistent in degraded
// mode), then the plan's steps fold the data strip's change into the
// parities in memory, then every strip on a live disk is written — all
// three in plan order, so the device-write sequence of a write is a
// function of its target alone.
//
// The change is one delta, Δ = old ⊕ new over the written byte range,
// computed once. Each step folds its source's Δ into its parities in place,
// and a parity that is itself a later step's source (core.WriteStep.Feeds)
// changes by its code coefficient × its feeder's Δ — the feeder's own slice
// when it has one feeder (WriteStep.Once) at coefficient 1, as on every XOR
// stripe. An OI-RAID small write is thus four passes over the range: the Δ,
// and one fold into each of its three parities.
func (a *Array) writeStripRange(dataIdx int64, within int, data []byte) error {
	target, cycle := a.LocateDataStrip(dataIdx)
	plan := a.an.WritePlan(target)
	base := cycle * int64(a.an.SlotsPerDisk())

	if a.journal != nil {
		if err := a.resolvePendingClosures(cycle, plan.Strips); err != nil {
			return err
		}
	}

	// cur[i] is closure strip i's content: read from media, then updated in
	// place. A whole-strip write's target is the caller's slice, and its
	// media content goes to bufs[n], where it becomes the Δ; delta[i] is
	// strip i's Δ over [within, end), nil until a step needs it.
	n, whole, end := len(plan.Strips), len(data) == a.stripBytes, within+len(data)
	sc := a.getScratch()
	defer a.putScratch(sc)
	bufs, heads := sc.strips(2*n), sc.headers(3*n)
	cur, delta, parity := heads[:n], heads[n:2*n], heads[2*n:]
	// The snapshot never serves a quarantined disk's strip by decoding
	// through a sibling stripe, as the foreground read path would: a derived
	// value equals the media value only while every deriving stripe is
	// consistent, and during retry storms transiently half-committed stripes
	// exist — a delta computed from such a derived value would poison parity
	// for good. A live disk is read directly, all of them as one batch (an
	// unreachable one aborts the write, which the caller retries); only a
	// genuinely failed disk's strip is reconstructed — after the reads ahead
	// of it in plan order — where stripes are kept consistent by
	// replay-before-rebuild.
	ops := sc.opList(n)
	for i, st := range plan.Strips {
		cur[i] = bufs[i]
		media := cur[i]
		if i == 0 && whole {
			media = bufs[n]
		}
		idx := base + int64(st.Slot)
		if dev := a.liveDevice(st.Disk, idx); dev != nil {
			ops = append(ops, batchOp{dev: dev, disk: st.Disk, idx: idx, buf: media})
			continue
		}
		if err := a.readStrips(unbounded, sc, ops, 0); err != nil {
			return err
		}
		ops = ops[:0]
		if err := a.reconstructStripDepth(unbounded, st.Disk, idx, media, 0); err != nil {
			return err
		}
	}
	if err := a.readStrips(unbounded, sc, ops, 0); err != nil {
		return err
	}
	if whole {
		delta[0], cur[0] = bufs[n], data
		gf.XorSlice(data, delta[0])
	} else {
		delta[0] = bufs[n][:len(data)]
		copy(delta[0], data)
		gf.XorSlice(cur[0][within:end], delta[0])
		copy(cur[0][within:], data)
	}
	for _, step := range plan.Steps {
		stripe := a.sch.Stripes()[step.Stripe]
		code := a.codes[[2]int{stripe.Data, stripe.Parity()}]
		feed := delta[step.Source]
		parity = parity[:0]
		for _, pi := range step.Parity {
			parity = append(parity, cur[pi][within:end])
		}
		if err := code.UpdateParity(step.DataPos, feed, parity); err != nil {
			return err
		}
		for j, pi := range step.Parity {
			if !step.Feeds[j] {
				continue
			}
			switch c := code.Coefficient(j, step.DataPos); {
			case step.Once[j] && c == 1:
				delta[pi] = feed
			case delta[pi] == nil:
				delta[pi] = bufs[n+pi][:len(data)]
				gf.MulSlice256(c, feed, delta[pi])
			default:
				gf.MulAddSlice256(c, feed, delta[pi])
			}
		}
	}

	// Commit: write every closure strip that has a live location — a
	// failed disk's strip is written to its replacement once its cycle has
	// been rebuilt, keeping incremental rebuild and online writes
	// coherent. The journal brackets the commit with a redo record
	// carrying the full new closure content, which recovery replays
	// verbatim — sound even when a disk has also failed, where recomputing
	// parity from a half-written stripe would not be.
	var done *PendingClosure
	if a.journal != nil {
		done = &PendingClosure{Cycle: cycle, Strips: make([]StripUpdate, len(plan.Strips))}
		for i, st := range plan.Strips {
			done.Strips[i] = StripUpdate{Disk: st.Disk, Slot: st.Slot, Data: cur[i]}
		}
		if err := a.journal.RecordClosure(cycle, done.Strips); err != nil {
			return err
		}
	}
	// The commit is best-effort across the whole closure: a strip write
	// that errors does not abort the remaining writes. Aborting would
	// leave the stripe half old, half new — and over a network device a
	// "failed" write may in fact have landed (the ack was lost), so a
	// later read-modify-write against that ghost would compute a zero
	// parity delta and freeze parity stale forever. Writing the rest of
	// the closure keeps the live strips mutually consistent with the new
	// content; the op still fails, the caller re-sends, and the retry is
	// an idempotent rewrite of the same closure. The redo record is
	// deliberately left in place on error so recovery can replay it.
	//
	// A failed disk's strip is skipped: its delta still lands on every live
	// parity in the closure (the steps above ran regardless), so
	// reconstruction — degraded reads and the rebuild alike — recovers the
	// post-write value from the live stripes.
	ops = ops[:0]
	for i, st := range plan.Strips {
		idx := base + int64(st.Slot)
		if dev := a.liveDevice(st.Disk, idx); dev != nil {
			ops = append(ops, batchOp{dev: dev, disk: st.Disk, idx: idx, buf: cur[i]})
		}
	}
	// The clear rides with the strips' checksums, scoped to this write's
	// strip set: records of other in-flight writes on the cycle keep their
	// repair content (resolve above guarantees none of them overlapped this
	// closure).
	if err := a.writeStrips(sc, ops, done); err != nil {
		return err
	}
	if a.journal != nil {
		return a.journal.compactIfDue()
	}
	return nil
}
