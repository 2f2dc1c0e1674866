package engine

import (
	"context"

	"github.com/oiraid/oiraid/internal/store"
)

// Fsck runs the two-layer verification (store.Array.FsckCycle) over every
// cycle of the array: every strip against its durable checksum, every stripe
// of both redundancy layers against its parity; with repair set, damage is
// fixed in place. It is a background walk (walkCycles) beside foreground
// I/O: only writers of the cycle being checked wait, readers never do. It
// is an operator pass: one scheduler grant per cycle, after any running
// rebuild or migration copy, ending with ctx.Err() once ctx is done.
func (e *Engine) Fsck(ctx context.Context, repair bool) (*store.FsckReport, error) {
	rep := &store.FsckReport{Cycles: e.arr.Cycles()}
	var cycle int64
	err := e.operatorPass(ctx, func() (bool, error) {
		_, err := e.walkCycles(1, func() (int64, int64) { return cycle, rep.Cycles },
			func(c int64) (bool, error) { return true, e.arr.FsckCycle(c, repair, rep) })
		cycle++
		return cycle == rep.Cycles, err
	})
	if err != nil {
		return rep, err
	}
	e.stats.fsckRuns.Add(1)
	return rep, nil
}
