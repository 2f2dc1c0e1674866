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
// disk's content is intact behind the partition) and slow-disk
// quarantine (a quarantined disk still serves direct reads). Down disks
// join the failed set in the serving-mode computation, so enough downed
// paths demote the array to read-only or partial-read service from the
// survivors; when the path returns the mode recomputes toward normal
// and, if failed disks remain recoverable, an automatic rebuild kicks.
func (e *Engine) SetDiskDown(d int, down bool) error {
	if e.closed.Load() {
		return ErrClosed
	}
	if d < 0 || d >= e.an.Disks() {
		return fmt.Errorf("%w: %d", store.ErrNoSuchDisk, d)
	}
	e.mode.Lock()
	if e.downDisks[d] == down {
		e.mode.Unlock()
		return nil
	}
	e.downDisks[d] = down
	e.recomputeModeLocked()
	promoted := !down && e.Mode() == ModeDegraded
	e.mode.Unlock()
	if promoted {
		e.maybeAutoRebuild()
	}
	return nil
}

// DownDisks returns the disks whose paths are currently marked down.
func (e *Engine) DownDisks() []int {
	e.mode.RLock()
	defer e.mode.RUnlock()
	var out []int
	for d, dn := range e.downDisks {
		if dn {
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
	u := append([]int(nil), failed...)
	for d, dn := range e.downDisks {
		if dn {
			u = append(u, d)
		}
	}
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
	if floor := Mode(e.forcedFloor.Load()); mode < floor {
		mode = floor
	}
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

// maybeAutoRebuild launches a background rebuild when the self-healing
// loop is active, failed disks remain, and the pattern is recoverable —
// the promotion path after a partition heals mid-heal (the healer's
// bounded retries may have given up while the partition starved rebuild
// reads). Must be called without e.mode held.
func (e *Engine) maybeAutoRebuild() {
	if !e.mon.autoMon || e.closed.Load() {
		return
	}
	failed := e.arr.FailedDisks()
	if len(failed) == 0 || !e.an.Recoverable(failed) {
		return
	}
	if err := e.StartRebuild(e.mon.pol.RebuildBatch); err == nil {
		e.mon.autoRebuilds.Add(1)
	}
}
