// Migration hooks: the engine-side half of online membership changes.
// A strip migration copies a healthy disk to a new node while foreground
// I/O keeps flowing; the engine contributes exactly three things —
// pacing (a copy pass of the background scheduler: it shares the
// rebuild's token bucket, so a migration cannot crowd out foreground
// latency, and yields to a rebuild, so a degraded array heals first),
// per-cycle write exclusion (so a copied cycle is a consistent
// snapshot), and the atomic device flip at
// the end (under the exclusive mode lock, so no write is in flight when
// the source stops receiving them). Read-path awareness is inherited:
// the array's migration mirror serves reads from the source for the whole
// copy, and destination ops are never observed, so an in-flight move can
// neither slow reads down nor trigger a false eviction.

package engine

import (
	"github.com/oiraid/oiraid/internal/store"
)

// PaceBackground blocks until the background scheduler grants the copy
// pass its next unit of work: never while a rebuild is active, and at the
// rebuild's pace. The caller's stop channel (a cluster migration's) ends
// the wait: false means the caller must park its work.
func (e *Engine) PaceBackground(stop <-chan struct{}) bool { return e.qos.grant(passCopy, stop) }

// StartMirror installs a migration mirror on disk d: every subsequent
// write lands on dst too, reads stay on the source. Its copy is a held
// pass until CompleteMigration or AbortMigration ends it — each migration
// ends exactly once — so operator passes and the scrubber wait for it.
func (e *Engine) StartMirror(d int, dst store.Device) error {
	if err := e.arr.StartMirror(d, dst); err != nil {
		return err
	}
	e.qos.hold(passCopy, 1)
	return nil
}

// CopyMirrorCycle copies one layout cycle of migrating disk d to the
// mirror's destination: the background walk over that one cycle, whose
// cursor and pacing are the caller's. No writer touches the cycle meanwhile,
// so what lands is a consistent snapshot.
func (e *Engine) CopyMirrorCycle(d int, cycle int64) error {
	_, err := e.walkCycles(1, func() (int64, int64) { return cycle, 0 },
		func(c int64) (bool, error) { return true, e.arr.CopyMirrorCycle(d, c) })
	return err
}

// AbortMigration drops disk d's mirror, restoring the pre-migration
// device — the unwind when a copy cannot finish (destination lost,
// coordinator deposed).
func (e *Engine) AbortMigration(d int) error {
	e.qos.hold(passCopy, -1)
	return e.arr.DropMirror(d)
}

// CompleteMigration is the flip: under the exclusive mode lock (every
// foreground operation drained, none can start, so the mirror's dirty set
// is final) it re-copies the dirty strips, runs finish — the caller's
// last-mile work: cloning the superblock to the destination, committing
// the new placement — and then swaps disk d's device to dev. If the
// drain or finish fails the mirror stays installed and the source remains
// authoritative.
func (e *Engine) CompleteMigration(d int, dev store.Device, finish func() error) error {
	e.mode.Lock()
	defer e.mode.Unlock()
	if err := e.arr.DrainMirror(d); err != nil {
		return err
	}
	if finish != nil {
		if err := finish(); err != nil {
			return err
		}
	}
	if err := e.arr.SwapDisk(d, dev); err != nil {
		return err
	}
	e.qos.hold(passCopy, -1)
	return nil
}
