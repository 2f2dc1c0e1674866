package engine

import (
	"fmt"

	"github.com/oiraid/oiraid/internal/store"
)

// Mode is the engine's serving mode — the lattice the degradation plane
// moves the array through as disks fail, paths drop, and heals complete:
//
//	normal → degraded-rw → read-only → partial-read
//
// The mode is recomputed from the availability of the effective
// unavailable set U = failed ∪ down on every structural transition
// (FailDisk, rebuild completion, SetDiskDown, ForceMode):
//
//   - ModeNormal: U is empty and no floor is forced.
//   - ModeDegraded ("degraded-rw"): U is non-empty but every strip is
//     decodable; reads reconstruct, writes flow.
//   - ModeReadOnly: U is beyond tolerance but the losses are confined
//     to parity (every data strip decodable), or a floor is forced
//     (cluster quorum loss); the full address space serves read-only
//     and writes are fenced with store.ErrReadOnly.
//   - ModePartial ("partial-read"): some data strips are undecodable;
//     the decodable subset serves, undecodable strips return
//     store.ErrStripUnavailable, writes are fenced.
//
// Promotion is automatic: when a downed path returns or a rebuild
// clears the failed set, the mode recomputes toward normal and the
// write fence lifts.
type Mode int32

const (
	ModeNormal Mode = iota
	ModeDegraded
	ModeReadOnly
	ModePartial
)

// String renders the mode the way /v1/status and X-Oiraid-Mode spell it.
func (m Mode) String() string {
	switch m {
	case ModeNormal:
		return "normal"
	case ModeDegraded:
		return "degraded-rw"
	case ModeReadOnly:
		return "read-only"
	case ModePartial:
		return "partial-read"
	default:
		return fmt.Sprintf("mode(%d)", int32(m))
	}
}

// Writable reports whether the mode admits writes.
func (m Mode) Writable() bool { return m < ModeReadOnly }

// failState is one evaluation of the failure set: the serving Mode in the
// low byte, and above it how deep the failed set is. A later plan cache
// can key on the same value.
type failState uint32

const (
	stateFailed failState = 1 << (8 + iota) // ≥ 1 disk failed: reads may reconstruct, hedging adds nothing
	stateDeep                               // ≥ 2 disks failed: writes take the mode lock exclusively
)

func (s failState) mode() Mode      { return Mode(s & 0xff) }
func (s failState) anyFailed() bool { return s&stateFailed != 0 }
func (s failState) deep() bool      { return s&stateDeep != 0 }

func (e *Engine) state() failState { return failState(e.failState.Load()) }

// Mode returns the current serving mode.
func (e *Engine) Mode() Mode { return e.state().mode() }

// SetDiskDown marks disk d's path down (true) or restored (false) — the
// cluster's node-unreachability signal, distinct from both failure (the
// disk's content is intact behind the partition) and slow-disk quarantine
// (a verdict on the disk's speed). A down disk is read-avoided, so reads
// reconstruct around it instead of stalling on the dead path, and it joins
// the failed set in the serving-mode computation, so enough downed paths
// demote the array to read-only or partial-read service from the
// survivors; when the path returns the mode recomputes toward normal and,
// if failed disks remain recoverable, an automatic rebuild kicks.
func (e *Engine) SetDiskDown(d int, down bool) error {
	if err := e.checkDisk(d); err != nil {
		return err
	}
	e.mode.Lock()
	if e.mon.disks[d].down.Load() == down {
		e.mode.Unlock()
		return nil
	}
	e.markDownLocked(d, down)
	promoted := !down && e.Mode() == ModeDegraded
	e.mode.Unlock()
	if promoted {
		_ = e.autoRebuild() // best effort: an unstarted heal stays visible in Status
	}
	return nil
}

// checkDisk gates the per-disk verbs: the engine is open and d a disk.
func (e *Engine) checkDisk(d int) error {
	if e.closed.Load() {
		return ErrClosed
	}
	if d < 0 || d >= len(e.mon.disks) {
		return fmt.Errorf("%w: disk %d", store.ErrNoSuchDisk, d)
	}
	return nil
}

// markDownLocked records disk d's path state, then re-derives its
// read-avoid mark and the serving mode. Caller holds e.mode exclusively.
func (e *Engine) markDownLocked(d int, down bool) {
	e.mon.disks[d].down.Store(down)
	e.syncAvoid(d)
	e.recomputeModeLocked()
}

// syncAvoid sets the array's read-avoid mark of disk d (callers have
// validated d): down outranks quarantined. It is the one writer of that
// mark: path-down marks, quarantine entry and release all end here.
func (e *Engine) syncAvoid(d int) {
	e.avoidMu.Lock()
	defer e.avoidMu.Unlock()
	_ = e.arr.SetReadAvoid(d, e.mon.disks[d].readMark())
}

// DownDisks returns the disks whose paths are currently marked down.
func (e *Engine) DownDisks() []int {
	var out []int
	for d := range e.mon.disks {
		if e.mon.disks[d].down.Load() {
			out = append(out, d)
		}
	}
	return out
}

// ForceMode sets a lower bound on the serving mode, or clears it with
// ModeNormal. The cluster layer forces ModeReadOnly when the
// coordinator's quorum lease is suspended or deposed: the data path may
// be healthy, but admitting writes could race a newer leader. The
// computed mode still applies when it is more degraded than the floor.
func (e *Engine) ForceMode(floor Mode) {
	if e.closed.Load() {
		return
	}
	e.forcedFloor.Store(int32(floor))
	e.mode.Lock()
	e.recomputeModeLocked()
	e.mode.Unlock()
}

// recomputeModeLocked re-evaluates the failure set: the serving mode from
// the availability of failed ∪ down, and the failed-disk bits from failed
// alone. Caller holds e.mode exclusively, so in-flight striped operations
// have drained and no write admitted under the old mode is still running.
func (e *Engine) recomputeModeLocked() {
	failed := e.arr.FailedDisks()
	u := append(failed, e.DownDisks()...)
	mode := ModeNormal
	if len(u) > 0 {
		av := e.an.Availability(u)
		switch {
		case av.Recoverable:
			mode = ModeDegraded
		case av.DataComplete:
			mode = ModeReadOnly
		default:
			mode = ModePartial
		}
	}
	mode = max(mode, Mode(e.forcedFloor.Load()))
	next := failState(mode)
	if len(failed) >= 1 {
		next |= stateFailed
	}
	if len(failed) >= 2 {
		next |= stateDeep
	}
	// Publish, then keep the array's write fence in sync, and quiesce the
	// metadata journal on entry to a fenced mode so every acked write's
	// redo record and checksum is durable before the array stops accepting
	// new ones.
	old := failState(e.failState.Swap(uint32(next))).mode()
	e.qos.setFailed(len(failed) > 0)
	if old == mode {
		return
	}
	e.stats.modeChanges.Add(1)
	e.arr.SetReadOnly(!mode.Writable())
	if !mode.Writable() && old.Writable() {
		if meta := e.arr.Meta(); meta != nil {
			_ = meta.Journal().Sync() // best-effort: the fence holds either way
		}
	}
}

// autoRebuild starts a background rebuild on the self-healing loop's
// behalf, and counts it, when the loop is active, failed disks remain, and
// the pattern is recoverable; otherwise it does nothing. The healer starts
// its rebuilds here, and so does the promotion path after a partition
// heals mid-heal (the healer's bounded retries may have given up while the
// partition starved rebuild reads). Must be called without e.mode held.
func (e *Engine) autoRebuild() error {
	failed := e.arr.FailedDisks()
	if !e.mon.autoMon || len(failed) == 0 || !e.an.Recoverable(failed) {
		return nil
	}
	err := e.StartRebuild(0)
	if err == nil {
		e.mon.autoRebuilds.Add(1)
	}
	return err
}
