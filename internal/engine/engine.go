// Package engine is the concurrency layer over store.Array: striped locks
// keyed by stripe id let reads and read-modify-writes on disjoint stripes
// proceed in parallel while the 4-strip update closure of one stripe (data
// strip, inner parity, outer parity, outer parity's inner parity) stays
// atomic; a bounded worker pool fans multi-strip requests out; and the
// background passes — rebuild, scrub, fsck, a migration's copy — walk the
// array one layout cycle at a time beside foreground I/O.
//
// Locking model. Every engine operation holds the engine's mode lock
// shared; structural transitions (FailDisk, rebuild completion) hold it
// exclusive. While at most one disk is failed, every reconstruction path
// decodes through a single stripe that contains the target strip, so
// holding the striped locks of the target's stripe set — read-shared for
// reads, exclusive for the write closure — is a complete exclusion
// protocol, and writes go through Array.ConcurrentWriteAt (the array's
// read lock) to run in parallel. With two or more disks failed, a read may
// take the multi-phase deep-reconstruction path across arbitrary stripes,
// so writes fall back to the exclusive mode lock; reads stay shared (the
// deep path only reads, and read repair is idempotent). A background pass
// keeps writers off the one cycle it is on and never blocks readers: every
// write holds its cycle's writer lock shared, the pass holds it exclusively
// and the array's own lock shared (see walkCycles).
package engine

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/oiraid/oiraid/internal/core"
	"github.com/oiraid/oiraid/internal/layout"
	"github.com/oiraid/oiraid/internal/store"
)

// Engine errors.
var (
	// ErrClosed reports an operation on a closed engine.
	ErrClosed = errors.New("engine: closed")
	// ErrRebuildRunning reports a StartRebuild while one is in flight.
	ErrRebuildRunning = errors.New("engine: rebuild already running")
)

// Options tunes an Engine.
type Options struct {
	// Workers bounds the worker pool that fans multi-strip ReadAt/WriteAt
	// requests out (default 8).
	Workers int
	// Replace provisions a replacement device for a failed disk when a
	// rebuild starts, after the hot-spare pool (AddSpare) is exhausted.
	// Default: a fresh in-memory device of array geometry.
	Replace func(disk int) (store.Device, error)
	// Retry, when set, wraps every device with a bounded retry/backoff
	// policy so transient faults are absorbed below the array.
	Retry *store.RetryPolicy
	// Health, when set, activates auto-eviction: a disk accumulating hard
	// errors past the policy threshold is failed, a spare (or Replace
	// device) is adopted, and a background rebuild runs — no operator
	// action. Per-disk health counters are collected either way.
	Health *HealthPolicy
	// QoS, when set, activates admission control, adaptive rebuild/scrub
	// pacing, and the background scrubber (see QoSConfig). Nil keeps
	// every mechanism off; foreground latency is tracked either way.
	QoS *QoSConfig
}

// lockTable sizes the striped locks, keyed by (cycle, stripe), and the
// cycles' writer locks: aliasing costs parallelism, never correctness.
const lockTable = 128

// Engine wraps a store.Array for concurrent use.
type Engine struct {
	arr *store.Array
	an  *core.Analyzer
	sch layout.Scheme

	stripBytes int
	perCycle   int   // data strips per layout cycle
	strips     int64 // total data strips
	nStripes   int   // stripes per layout cycle

	// writeSets[i] / readSets[i] are the stripe ids (per cycle) an
	// operation on data strip i of a cycle must lock: the full parity
	// closure for writes, the stripes containing the strip for reads.
	writeSets  [][]int
	readSets   [][]int
	locks      [lockTable]sync.RWMutex
	cycleLocks [lockTable]sync.RWMutex

	// mode is held shared by striped operations and exclusive by
	// structural transitions.
	mode sync.RWMutex

	// Degradation plane: failState is the one published evaluation of the
	// failure set — the serving Mode plus the failed-disk bits stripOp and
	// the hedged read branch on (atomic so the advisory pre-admission
	// fence reads it lock-free; recomputeModeLocked republishes it under
	// e.mode exclusive on every structural transition). forcedFloor is
	// the cluster-forced lower bound (quorum loss). A disk's down mark
	// lives beside its other facts in the monitor (diskCounters.down).
	failState   atomic.Uint32
	forcedFloor atomic.Int32
	// avoidMu serialises syncAvoid, so the array's read-avoid mark of a
	// disk always ends at the last evaluation of its down and quarantine
	// facts.
	avoidMu sync.Mutex

	// submitMu is held shared while enqueueing pool tasks and exclusive
	// by Close, so the task channel is never closed under a sender.
	submitMu sync.RWMutex
	tasks    chan func()
	wg       sync.WaitGroup
	closed   atomic.Bool

	replace func(disk int) (store.Device, error)

	// Self-healing state: the monitor observes every device op as the
	// array's observer; the healer goroutine consumes its evictions.
	mon       *monitor
	retryPol  *store.RetryPolicy
	retryMu   sync.Mutex
	retryDevs []*store.RetryDevice
	spareMu   sync.Mutex
	spares    []SpareProvider

	// hedgeWg tracks the cleanup goroutines that reap losing hedge
	// branches so Close can drain them.
	hedgeWg     sync.WaitGroup
	probeCursor atomic.Int64

	// stop closes on Close: the background loops (scrub always; heal and
	// tail iff Options.Health is set) return, and paced background work
	// aborts at its next batch boundary. loops tracks the loops.
	stop  chan struct{}
	loops sync.WaitGroup

	rebuildMu      sync.Mutex
	rebuilding     bool
	rebuildErr     error
	lastRebuildErr error // outcome of the most recent finished rebuild
	rebuildDone    chan struct{}

	// exposure is the risk report of the failed list it was computed for:
	// Status searches the slack once per failure set, not once per call.
	exposure atomic.Pointer[exposureMemo]

	// QoS: admission control, foreground-latency tracking, and the
	// scheduler every background pass takes its grants from.
	qos *qos

	// closers run at the tail of Close, after the metadata seal: transport
	// teardown (network node clients) must stay alive until the seal's
	// superblock writes have gone through them.
	closerMu sync.Mutex
	closers  []func() error

	stats counters
}

// New builds an engine over the array. The array must not be accessed
// directly (other than read-only inspection) while the engine owns it.
func New(arr *store.Array, opts Options) (*Engine, error) {
	an := arr.Analyzer()
	sch := an.Scheme()
	if opts.Workers <= 0 {
		opts.Workers = 8
	}
	e := &Engine{
		arr:        arr,
		an:         an,
		sch:        sch,
		stripBytes: arr.StripBytes(),
		perCycle:   len(sch.DataStrips()),
		nStripes:   len(sch.Stripes()),
		tasks:      make(chan func(), 4*opts.Workers),
		replace:    opts.Replace,
		stop:       make(chan struct{}),
	}
	e.strips = arr.Cycles() * int64(e.perCycle)
	if e.replace == nil {
		slots := int64(an.SlotsPerDisk())
		e.replace = func(int) (store.Device, error) {
			return store.NewMemDevice(arr.Cycles()*slots, e.stripBytes)
		}
	}
	e.buildLockSets()
	var pol HealthPolicy
	if opts.Health != nil {
		pol = *opts.Health
	}
	e.mon = newMonitor(an.Disks(), pol, opts.Health != nil)
	var qcfg QoSConfig
	if opts.QoS != nil {
		qcfg = *opts.QoS
	}
	e.qos = newQoS(qcfg)
	// Derive the initial serving mode from the mounted failure pattern:
	// an array mounted beyond tolerance under a read-only/partial policy
	// starts fenced, matching the store layer's mount-time fence.
	e.mode.Lock()
	e.recomputeModeLocked()
	e.mode.Unlock()
	e.goLoop(e.scrubLoop)
	e.retryPol = opts.Retry
	e.retryDevs = make([]*store.RetryDevice, an.Disks())
	// The monitor sees the array's view of each disk from the first op, and
	// every device access goes through the retry policy.
	arr.SetObserver(e.mon.observe)
	arr.InstrumentDevices(e.wrapDevice)
	if opts.Health != nil {
		e.goLoop(e.healLoop)
		e.goLoop(e.tailLoop)
	}
	for i := 0; i < opts.Workers; i++ {
		e.wg.Add(1)
		go func() {
			defer e.wg.Done()
			for fn := range e.tasks {
				fn()
			}
		}()
	}
	return e, nil
}

// goLoop runs a background loop that returns once e.stop closes; Close
// waits for it.
func (e *Engine) goLoop(loop func()) {
	e.loops.Add(1)
	go func() {
		defer e.loops.Done()
		loop()
	}()
}

// buildLockSets precomputes, per data-strip position within a cycle, the
// stripe ids to lock. The write set is the strip's write plan's stripes:
// every stripe in which a strip of the update closure is a data member —
// which also covers every stripe containing an updated strip as parity,
// since such a stripe is the one that put the parity strip into the
// closure. The read set is the stripes containing the strip, any one of
// which the single-stripe decode path may pick.
func (e *Engine) buildLockSets() {
	e.writeSets = make([][]int, e.perCycle)
	e.readSets = make([][]int, e.perCycle)
	for i, st := range e.sch.DataStrips() {
		e.writeSets[i] = e.an.WritePlan(st).Stripes
		e.readSets[i] = e.an.DataMemberStripes(st)
	}
}

// StripBytes returns the strip size.
func (e *Engine) StripBytes() int { return e.stripBytes }

// Strips returns the number of logical data strips.
func (e *Engine) Strips() int64 { return e.strips }

// Capacity returns the usable capacity in bytes.
func (e *Engine) Capacity() int64 { return e.arr.Capacity() }

// Array exposes the wrapped array for read-only inspection (tests,
// scrubbing a quiesced engine).
func (e *Engine) Array() *store.Array { return e.arr }

// checkStrip validates a logical strip address.
func (e *Engine) checkStrip(addr int64) error {
	if addr < 0 || addr >= e.strips {
		return fmt.Errorf("%w: strip %d of %d", store.ErrStripOutOfRange, addr, e.strips)
	}
	return nil
}

// ReadStrip returns the content of logical data strip addr, reconstructing
// transparently when its disk is failed.
func (e *Engine) ReadStrip(addr int64) ([]byte, error) {
	return e.ReadStripCtx(context.Background(), addr)
}

// ReadStripCtx is ReadStrip bounded by ctx: cancellation and deadlines
// are honored at admission, and admission control (when configured) may
// shed the operation with store.ErrOverloaded.
func (e *Engine) ReadStripCtx(ctx context.Context, addr int64) ([]byte, error) {
	if err := e.checkStrip(addr); err != nil {
		return nil, err
	}
	release, err := e.admit(ctx, false)
	if err != nil {
		return nil, err
	}
	defer release()
	if e.hedging() {
		return e.readStripHedged(addr)
	}
	p := make([]byte, e.stripBytes)
	return p, e.readChunk(addr, 0, p)
}

// WriteStrip replaces logical data strip addr. len(p) must be StripBytes.
func (e *Engine) WriteStrip(addr int64, p []byte) error {
	return e.WriteStripCtx(context.Background(), addr, p)
}

// WriteStripCtx is WriteStrip bounded by ctx; see ReadStripCtx for the
// deadline and admission semantics.
func (e *Engine) WriteStripCtx(ctx context.Context, addr int64, p []byte) error {
	if err := e.checkStrip(addr); err != nil {
		return err
	}
	if len(p) != e.stripBytes {
		return fmt.Errorf("%w: got %d, strip is %d", store.ErrShortBuffer, len(p), e.stripBytes)
	}
	release, err := e.admit(ctx, true)
	if err != nil {
		return err
	}
	defer release()
	return e.writeChunk(addr, 0, p)
}

// writeFence refuses a write while the serving mode is not writable.
func (e *Engine) writeFence() error {
	if m := e.Mode(); !m.Writable() {
		e.stats.writesFenced.Add(1)
		return fmt.Errorf("%w: serving mode %q", store.ErrReadOnly, m)
	}
	return nil
}

// admit is the gate a validated foreground operation passes before it
// touches the array: the engine is open, the caller has not given up, and
// an admission slot is free. A write meets the advisory fence before it
// queues: a fenced write must not consume an admission slot that a read
// could use (the authoritative check runs again under the mode lock inside
// stripOp).
func (e *Engine) admit(ctx context.Context, write bool) (release func(), err error) {
	if e.closed.Load() {
		return nil, ErrClosed
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if write {
		if err := e.writeFence(); err != nil {
			return nil, err
		}
	}
	return e.qos.admit(ctx)
}

// readChunk is the one strip read of an admitted operation: bytes
// [within, within+len(chunk)) of data strip addr under the read protocol.
func (e *Engine) readChunk(addr int64, within int, chunk []byte) error {
	err := e.stripOp(addr, false, func() error {
		_, err := e.arr.ReadAt(chunk, addr*int64(e.stripBytes)+int64(within))
		return err
	})
	if err == nil {
		e.stats.reads.Add(1)
	}
	return err
}

// writeChunk is the one strip write of an admitted operation: chunk lands
// at byte within of data strip addr, atomically with the strip's parity
// closure. A write refused because a pending redo record from another
// (possibly abandoned) write overlaps its closure replays all pending
// records under the array's exclusive lock — safe, since a pending record
// by construction has no overlapping commit acknowledged after it — and
// retries once. No engine lock is held between the attempts.
func (e *Engine) writeChunk(addr int64, within int, chunk []byte) error {
	fn := func() error {
		_, err := e.arr.ConcurrentWriteAt(chunk, addr*int64(e.stripBytes)+int64(within))
		return err
	}
	err := e.stripOp(addr, true, fn)
	if errors.Is(err, store.ErrIntentConflict) {
		if _, rerr := e.arr.RecoverIntent(); rerr == nil {
			err = e.stripOp(addr, true, fn)
		}
	}
	if err == nil {
		e.stats.writes.Add(1)
	}
	return err
}

// stripOp runs fn for one data strip under the engine's exclusion
// protocol: mode lock shared, then the strip's striped locks — shared for
// reads, exclusive for the write closure. With ≥2 disks failed, writes
// escalate to the exclusive mode lock instead (deep reconstruction may
// cross arbitrary stripes; see the package comment). It reads the clock on
// entry and on exit, and in between only after waiting for a lock.
func (e *Engine) stripOp(addr int64, write bool, fn func() error) error {
	t := nowNano()
	defer func() { e.qos.observe(time.Duration(nowNano() - t)) }()
	e.mode.RLock()
	if write && e.state().deep() {
		e.mode.RUnlock()
		if !e.mode.TryLock() {
			e.mode.Lock()
			e.stats.lockWaitNs.Add(nowNano() - t)
		}
		defer e.mode.Unlock()
		if err := e.writeFence(); err != nil {
			return err
		}
		return fn()
	}
	defer e.mode.RUnlock()
	// Authoritative write fence: the mode cannot change while this shared
	// hold lasts, so a write admitted here runs wholly within a writable
	// mode.
	if write {
		if err := e.writeFence(); err != nil {
			return err
		}
	}
	cycle := addr / int64(e.perCycle)
	pos := int(addr % int64(e.perCycle))
	set := e.readSets[pos]
	if write {
		set = e.writeSets[pos]
	}
	var room [8]int // every shipped scheme's lock set fits
	held := e.lockStripes(room[:0], cycle, set, write, t)
	defer e.unlockStripes(held, cycle, write)
	return fn()
}

// lockStripes acquires the striped locks for the given stripe ids of one
// cycle in ascending table order (deadlock-free against every other
// acquisition, which uses the same order) and returns their table indexes
// appended to held, for unlockStripes; a caller that passes room on its
// stack allocates nothing. A write first takes the cycle's writer lock
// shared, so it waits while a background pass walks the cycle. A lock that
// is not free at once is waited for, and the wait is charged from since, the
// caller's entry reading: an op that waits for nothing reads no clock here.
func (e *Engine) lockStripes(held []int, cycle int64, stripes []int, write bool, since int64) []int {
	for _, si := range stripes {
		held = append(held, int((cycle*int64(e.nStripes)+int64(si))%lockTable))
	}
	slices.Sort(held)
	held = slices.Compact(held)
	lock, try := (*sync.RWMutex).RLock, (*sync.RWMutex).TryRLock
	if write {
		lock, try = (*sync.RWMutex).Lock, (*sync.RWMutex).TryLock
	}
	cl := &e.cycleLocks[cycle%lockTable]
	waited := write && !cl.TryRLock()
	if waited {
		cl.RLock()
	}
	for _, i := range held {
		if !try(&e.locks[i]) {
			lock(&e.locks[i])
			waited = true
		}
	}
	if waited {
		e.stats.lockWaitNs.Add(nowNano() - since)
	}
	return held
}

// unlockStripes releases the locks lockStripes returned as held.
func (e *Engine) unlockStripes(held []int, cycle int64, write bool) {
	unlock := (*sync.RWMutex).RUnlock
	if write {
		unlock = (*sync.RWMutex).Unlock
	}
	for _, i := range held {
		unlock(&e.locks[i])
	}
	if write {
		e.cycleLocks[cycle%lockTable].RUnlock()
	}
}

// lockCycle keeps writers off one layout cycle: the mode lock shared, like
// any striped operation, then the cycle's writer lock exclusively. Reads
// take neither exclusively and proceed.
func (e *Engine) lockCycle(cycle int64) (unlock func()) {
	e.mode.RLock()
	cl := &e.cycleLocks[cycle%lockTable]
	cl.Lock()
	return func() {
		cl.Unlock()
		e.mode.RUnlock()
	}
}

// walkCycles is the one walk of a background pass (rebuild, scrub, fsck, a
// migration's copy): up to batch cycles from the pass's cursor, each under
// its own lockCycle, until a step reports the pass done or fails. A cursor
// that moved meanwhile means another walker did that cycle.
func (e *Engine) walkCycles(batch int64, cursor func() (cycle, total int64),
	step func(cycle int64) (done bool, err error)) (done bool, err error) {
	for n := int64(0); n < batch && !done && err == nil; {
		cycle, _ := cursor()
		unlock := e.lockCycle(cycle)
		if now, _ := cursor(); now == cycle {
			done, err = step(cycle)
			n++
		}
		unlock()
	}
	return done, err
}

// ReadAt reads the byte range [off, off+len(p)) from the logical data
// space, fanning per-strip reads out over the worker pool. Each strip is
// read atomically; the range as a whole is not a snapshot.
func (e *Engine) ReadAt(p []byte, off int64) (int, error) {
	return e.rangeOp(context.Background(), p, off, false)
}

// ReadAtCtx is ReadAt bounded by ctx: the range is admitted as one
// operation, and cancellation or an expired deadline stops the per-strip
// fan-out at the next strip boundary.
func (e *Engine) ReadAtCtx(ctx context.Context, p []byte, off int64) (int, error) {
	return e.rangeOp(ctx, p, off, false)
}

// WriteAt writes the byte range [off, off+len(p)), fanning per-strip
// read-modify-writes out over the worker pool. Each strip updates
// atomically with its parity closure; the range as a whole is not atomic.
func (e *Engine) WriteAt(p []byte, off int64) (int, error) {
	return e.rangeOp(context.Background(), p, off, true)
}

// WriteAtCtx is WriteAt bounded by ctx; see ReadAtCtx for the deadline
// semantics. Strips already submitted when the deadline expires complete
// atomically with their parity closure — cancellation never tears a
// strip.
func (e *Engine) WriteAtCtx(ctx context.Context, p []byte, off int64) (int, error) {
	return e.rangeOp(ctx, p, off, true)
}

func (e *Engine) rangeOp(ctx context.Context, p []byte, off int64, write bool) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("%w: %d", store.ErrNegativeOffset, off)
	}
	capacity := e.arr.Capacity()
	if off+int64(len(p)) > capacity {
		return 0, fmt.Errorf("%w: range [%d, %d) beyond capacity %d",
			store.ErrStripOutOfRange, off, off+int64(len(p)), capacity)
	}
	// The whole range is one admitted unit: a range op that passed
	// admission must not be shed halfway through its strips.
	release, err := e.admit(ctx, write)
	if err != nil {
		return 0, err
	}
	defer release()
	var (
		wg    sync.WaitGroup
		errMu sync.Mutex
		opErr error
	)
	fail := func(err error) {
		errMu.Lock()
		if opErr == nil {
			opErr = err
		}
		errMu.Unlock()
	}
	total := 0
	for total < len(p) {
		// Deadline checkpoint at every strip boundary: stop fanning out
		// once the caller's budget is spent.
		if err := ctx.Err(); err != nil {
			fail(err)
			break
		}
		pos := off + int64(total)
		within := int(pos % int64(e.stripBytes))
		n := e.stripBytes - within
		if n > len(p)-total {
			n = len(p) - total
		}
		addr := pos / int64(e.stripBytes)
		chunk := p[total : total+n]
		wg.Add(1)
		task := func() {
			defer wg.Done()
			if err := ctx.Err(); err != nil {
				fail(err)
				return
			}
			var err error
			if write {
				err = e.writeChunk(addr, within, chunk)
			} else {
				err = e.readChunk(addr, within, chunk)
			}
			if err != nil {
				fail(err)
			}
		}
		if err := e.submit(task); err != nil {
			wg.Done()
			fail(err)
			break
		}
		total += n
	}
	wg.Wait()
	errMu.Lock()
	defer errMu.Unlock()
	if opErr != nil {
		return 0, opErr
	}
	return total, nil
}

// submit enqueues a pool task, refusing once the engine is closed.
func (e *Engine) submit(fn func()) error {
	e.submitMu.RLock()
	defer e.submitMu.RUnlock()
	if e.closed.Load() {
		return ErrClosed
	}
	e.tasks <- fn
	return nil
}

// FailDisk marks disk d failed. In-flight operations drain first (the
// transition holds the mode lock exclusively), so no striped write runs
// against a failure set it did not admit under.
func (e *Engine) FailDisk(d int) error {
	if e.closed.Load() {
		return ErrClosed
	}
	e.mode.Lock()
	defer e.mode.Unlock()
	if err := e.arr.FailDisk(d); err != nil {
		return err
	}
	e.recomputeModeLocked()
	return nil
}

// StartRebuild provisions replacement devices for every failed disk
// lacking one (via Options.Replace) and launches the background rebuild
// goroutine, which walks Array.RebuildCycle up to batch layout cycles per
// scheduler grant (QoSConfig.RebuildBatch when batch < 1). The rebuild is
// the scheduler's first pass: from here until it ends no other background
// pass is granted a batch. It returns immediately; RebuildWait blocks
// until completion. Starting with no failed disks is a no-op that
// completes immediately.
func (e *Engine) StartRebuild(batch int64) error {
	if e.closed.Load() {
		return ErrClosed
	}
	if batch < 1 {
		batch = e.qos.rebuildBatch
	}
	e.rebuildMu.Lock()
	defer e.rebuildMu.Unlock()
	if e.rebuilding {
		return ErrRebuildRunning
	}
	if err := e.attachReplacements(); err != nil {
		return err
	}
	e.rebuilding = true
	e.rebuildErr = nil
	done := make(chan struct{})
	e.rebuildDone = done
	e.qos.hold(passRebuild, 1)
	go e.rebuildLoop(batch, done)
	return nil
}

// attachReplacements provisions a device for every failed disk lacking
// one: the hot-spare pool first (FIFO), then Options.Replace. Adopted
// devices get the same retry wrapping as the originals, and the monitor
// follows the disk across the swap.
func (e *Engine) attachReplacements() error {
	for _, d := range e.arr.NeedsReplacement() {
		var dev store.Device
		var err error
		if p, ok := e.takeSpare(); ok {
			dev, err = p(d)
			if err != nil {
				return fmt.Errorf("engine: materialise spare for disk %d: %w", d, err)
			}
			e.mon.sparesUsed.Add(1)
		} else {
			dev, err = e.replace(d)
			if err != nil {
				return fmt.Errorf("engine: provision replacement for disk %d: %w", d, err)
			}
		}
		e.mon.adopt(d)
		if err := e.arr.ReplaceDisk(d, e.wrapDevice(d, dev)); err != nil {
			return err
		}
		// The slot now holds a fresh device: a stale down-mark from the old
		// disk's path must not pin the mode degraded after the rebuild.
		e.mode.Lock()
		e.markDownLocked(d, false)
		e.mode.Unlock()
	}
	return nil
}

func (e *Engine) rebuildLoop(batch int64, done chan struct{}) {
	var err error
	for {
		// Pacing gate: blocks while the token bucket refills at the
		// adaptive rate, yields to foreground work even unpaced, and
		// aborts the rebuild at a batch boundary when the engine closes.
		if !e.qos.grant(passRebuild, e.stop) {
			err = ErrClosed
			break
		}
		var finished bool
		finished, err = e.walkCycles(batch, e.arr.RebuildProgress, e.arr.RebuildCycle)
		if err != nil {
			// A disk that failed mid-rebuild invalidated the plan and has
			// no replacement yet; provision one and re-plan.
			if errors.Is(err, store.ErrNoReplacement) {
				if aerr := e.attachReplacements(); aerr == nil {
					continue
				} else {
					err = aerr
				}
			}
			// RebuildCycle closes the write hole before decoding — it
			// replays the cycle's pending redo records of half-applied
			// commits — and aborts if a replay write is still unreachable.
			// That is a wait, not a failure: retry at the next grant
			// (the flapping node either returns or gets evicted, at which
			// point its strips are skipped).
			if errors.Is(err, store.ErrIntentReplay) {
				continue
			}
			break
		}
		if finished {
			break
		}
	}
	// Re-evaluate the failure set under the mode lock: the rebuild either
	// cleared every failure or aborted, and FailDisk may have raced in a
	// new one.
	e.mode.Lock()
	e.recomputeModeLocked()
	e.mode.Unlock()
	e.qos.hold(passRebuild, -1)
	e.rebuildMu.Lock()
	e.rebuildErr = err
	e.lastRebuildErr = err
	e.rebuilding = false
	e.rebuildMu.Unlock()
	close(done)
}

// RebuildWait blocks until the current rebuild (if any) finishes and
// returns its error.
func (e *Engine) RebuildWait() error {
	e.rebuildMu.Lock()
	done := e.rebuildDone
	e.rebuildMu.Unlock()
	if done == nil {
		return nil
	}
	<-done
	e.rebuildMu.Lock()
	defer e.rebuildMu.Unlock()
	return e.rebuildErr
}

// Rebuilding reports whether a background rebuild is in flight.
func (e *Engine) Rebuilding() bool {
	e.rebuildMu.Lock()
	defer e.rebuildMu.Unlock()
	return e.rebuilding
}

// Status is the operational snapshot served by GET /v1/status.
type Status struct {
	Disks      int   `json:"disks"`
	StripBytes int   `json:"strip_bytes"`
	Strips     int64 `json:"strips"`
	Capacity   int64 `json:"capacity"`
	Failed     []int `json:"failed,omitempty"`
	// Mode is the serving mode ("normal", "degraded-rw", "read-only",
	// "partial-read"); Down lists disks whose paths are marked down
	// (unreachable but not failed); WritesFenced counts writes refused
	// with store.ErrReadOnly while the mode was not writable.
	Mode         string        `json:"mode"`
	Down         []int         `json:"down,omitempty"`
	WritesFenced int64         `json:"writes_fenced,omitempty"`
	Rebuilding   bool          `json:"rebuilding"`
	Rebuilt      int64         `json:"rebuilt_cycles"`
	Cycles       int64         `json:"total_cycles"`
	Exposure     core.Exposure `json:"exposure"`
	// Spares is the number of hot spares available in the pool.
	Spares int `json:"spares"`
	// Evictions counts disks auto-evicted by the health policy.
	Evictions int64 `json:"evictions"`
	// AutoRebuilds counts rebuilds launched by the self-healing loop.
	AutoRebuilds int64 `json:"auto_rebuilds"`
	// LastRebuildError is the outcome of the most recent finished
	// rebuild, empty when it succeeded or none has run.
	LastRebuildError string `json:"last_rebuild_error,omitempty"`
	// ScrubScanned/ScrubCycles report background-scrub progress through
	// the current pass; ScrubPasses counts completed passes.
	ScrubScanned int64 `json:"scrub_scanned"`
	ScrubCycles  int64 `json:"scrub_cycles"`
	ScrubPasses  int64 `json:"scrub_passes"`
	// ArrayUUID/MetaEpoch identify the durable metadata plane (empty/0
	// for a volatile array with no superblocks).
	ArrayUUID string `json:"array_uuid,omitempty"`
	MetaEpoch uint64 `json:"meta_epoch,omitempty"`
}

// exposureMemo is core.MeasureExposure(failed, 2) beside its argument.
type exposureMemo struct {
	failed []int
	report core.Exposure
}

// Status reports the current operational state, including the exposure
// report from core.MeasureExposure (slack searched up to 2 additional
// failures), computed by the first call after the failed set changed and
// outside every engine lock.
func (e *Engine) Status() Status {
	failed := e.arr.FailedDisks()
	exp := e.exposure.Load()
	if exp == nil || !slices.Equal(exp.failed, failed) {
		exp = &exposureMemo{failed: slices.Clone(failed), report: e.an.MeasureExposure(failed, 2)}
		e.exposure.Store(exp)
	}
	rebuilt, cycles := e.arr.RebuildProgress()
	scanned, scrubTotal := e.arr.ScrubProgress()
	var lastErr string
	e.rebuildMu.Lock()
	if e.lastRebuildErr != nil {
		lastErr = e.lastRebuildErr.Error()
	}
	e.rebuildMu.Unlock()
	var uuid string
	var epoch uint64
	if meta := e.arr.Meta(); meta != nil {
		uuid = meta.UUIDString()
		epoch = meta.Epoch()
	}
	return Status{
		ArrayUUID:        uuid,
		MetaEpoch:        epoch,
		Disks:            e.an.Disks(),
		StripBytes:       e.stripBytes,
		Strips:           e.strips,
		Capacity:         e.arr.Capacity(),
		Failed:           failed,
		Mode:             e.Mode().String(),
		Down:             e.DownDisks(),
		WritesFenced:     e.stats.writesFenced.Load(),
		Rebuilding:       e.Rebuilding(),
		Rebuilt:          rebuilt,
		Cycles:           cycles,
		Exposure:         exp.report,
		Spares:           e.SpareCount(),
		Evictions:        e.mon.evictions.Load(),
		AutoRebuilds:     e.mon.autoRebuilds.Load(),
		LastRebuildError: lastErr,
		ScrubScanned:     scanned,
		ScrubCycles:      scrubTotal,
		ScrubPasses:      e.stats.scrubPasses.Load(),
	}
}

// Close stops the background loops, waits for a running rebuild, drains
// the worker pool, and seals the durable metadata plane (when the array
// has one) so the next mount sees a clean shutdown. Further operations
// return ErrClosed.
func (e *Engine) Close() error {
	if e.closed.Swap(true) {
		return nil
	}
	// Closing stop ends the heal, tail and scrub loops and aborts a paced
	// rebuild at its next batch boundary (RebuildWait then reports
	// ErrClosed).
	close(e.stop)
	e.loops.Wait()
	e.RebuildWait()
	e.submitMu.Lock()
	close(e.tasks)
	e.submitMu.Unlock()
	e.wg.Wait()
	// Losing hedge branches still touch the array; drain their reapers
	// before sealing.
	e.hedgeWg.Wait()
	err := e.arr.SealMeta()
	// Transport teardown last: the seal above writes superblocks through
	// whatever device/blob transports the array rides on, so node clients
	// (and their background probes/retries) must outlive it. Closers also
	// make the goroutine-leak guard in cluster tests meaningful — a probe
	// still in flight after Close returns is a bug.
	e.closerMu.Lock()
	closers := e.closers
	e.closers = nil
	e.closerMu.Unlock()
	for _, c := range closers {
		if cerr := c(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
}

// OnClose registers fn to run at the tail of Close, after the worker
// pool has drained and the metadata plane is sealed. The cluster layer
// uses it to tear down node clients — closing their idle connections and
// draining their background probe goroutines — once the last superblock
// write has gone over the wire. Closers run in registration order; the
// first error is returned from Close (a seal error wins).
func (e *Engine) OnClose(fn func() error) {
	e.closerMu.Lock()
	e.closers = append(e.closers, fn)
	e.closerMu.Unlock()
}
