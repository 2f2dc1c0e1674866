package store

import (
	"errors"
	"fmt"

	"github.com/oiraid/oiraid/internal/layout"
)

// FsckIssue is one inconsistency found by Fsck.
type FsckIssue struct {
	// Kind is "checksum" (a strip failing its durable checksum) or
	// "parity" (a stripe whose members do not verify).
	Kind string `json:"kind"`
	// Cycle locates the damage in the layout.
	Cycle int64 `json:"cycle"`
	// Stripe is the stripe index within the cycle (parity issues).
	Stripe int `json:"stripe,omitempty"`
	// Layer is "outer" or "inner" (parity issues).
	Layer string `json:"layer,omitempty"`
	// Disk/Slot locate the strip (checksum issues).
	Disk int `json:"disk,omitempty"`
	Slot int `json:"slot,omitempty"`
	// Repaired reports whether the repair pass fixed it.
	Repaired bool `json:"repaired"`
}

func (is FsckIssue) String() string {
	state := "damaged"
	if is.Repaired {
		state = "repaired"
	}
	if is.Kind == "checksum" {
		return fmt.Sprintf("checksum: cycle %d disk %d slot %d (%s)", is.Cycle, is.Disk, is.Slot, state)
	}
	return fmt.Sprintf("parity: cycle %d stripe %d [%s] (%s)", is.Cycle, is.Stripe, is.Layer, state)
}

// FsckReport summarises a full two-layer verification pass.
type FsckReport struct {
	Cycles         int64 `json:"cycles"`
	StripsChecked  int64 `json:"strips_checked"`
	StripesChecked int64 `json:"stripes_checked"`
	ChecksumErrors int   `json:"checksum_errors"`
	ParityErrors   int   `json:"parity_errors"`
	Repaired       int   `json:"repaired"`
	// Clean is true when no damage remains: nothing found, or everything
	// found was repaired.
	Clean bool `json:"clean"`
	// Truncated reports that Issues was capped (the counters still cover
	// everything).
	Truncated bool        `json:"truncated,omitempty"`
	Issues    []FsckIssue `json:"issues,omitempty"`
}

// maxFsckIssues caps the itemised issue list in a report.
const maxFsckIssues = 1024

// Fsck walks both redundancy layers of the whole array, verifying every
// strip against its durable checksum and every stripe (outer BIBD layer
// and inner RAID5 layer) against its parity. With repair set, checksum
// failures are reconstructed from parity and rewritten, and inconsistent
// stripes get their parity recomputed from data (outer layer first, since
// outer parity strips are data members of inner stripes).
//
// The checksum pass trusts parity (it reconstructs from it, as read repair
// does) and the parity pass trusts data. The array must be healthy; it is
// locked for the duration, so route calls through Engine.Fsck on a serving
// array.
func (a *Array) Fsck(repair bool) (*FsckReport, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.failedListLocked()) > 0 {
		return nil, ErrDiskFaulty
	}
	rep := &FsckReport{Cycles: a.cycles}
	slots := int64(a.an.SlotsPerDisk())
	addIssue := func(is FsckIssue) {
		if len(rep.Issues) >= maxFsckIssues {
			rep.Truncated = true
			return
		}
		rep.Issues = append(rep.Issues, is)
	}

	sc := a.getScratch()
	defer a.putScratch(sc)
	bufs := sc.strips(min(a.windowStrips(1), len(a.devs)*int(slots)))
	for cycle := int64(0); cycle < a.cycles; cycle++ {
		// Pass A: durable checksums, healed from parity when repairing. The
		// cycle's strips are read disk by disk, a window's worth per batch.
		checkSum := func(op *batchOp) error {
			rep.StripsChecked++
			a.countRead(op.disk)
			if op.err == nil {
				return nil
			}
			if !errors.Is(op.err, ErrCorrupt) {
				return op.err
			}
			a.stats.corruptStrips.Add(1)
			rep.ChecksumErrors++
			is := FsckIssue{Kind: "checksum", Cycle: cycle, Disk: op.disk, Slot: int(op.idx % slots)}
			if repair {
				if herr := a.healStrip(op.dev, op.disk, op.idx, op.buf, 0, op.err); herr == nil {
					is.Repaired = true
					rep.Repaired++
				} else if !errors.Is(herr, ErrCorrupt) {
					return herr // the write-back failed
				}
			}
			addIssue(is)
			return nil
		}
		ops := sc.opList(len(bufs))
		for n, total := int64(0), int64(len(a.devs))*slots; n < total; n++ {
			d := int(n / slots)
			ops = append(ops, batchOp{dev: a.device(d), disk: d, idx: cycle*slots + n%slots, buf: bufs[len(ops)]})
			if len(ops) < len(bufs) && n < total-1 {
				continue
			}
			a.exec(sc, ops, false, false)
			for i := range ops {
				if err := checkSum(&ops[i]); err != nil {
					return rep, err
				}
			}
			ops = ops[:0]
		}

		// Pass B: parity consistency, read under the checksums so that a
		// (reported) checksum issue neither masks the parity verdict nor gets
		// healed unasked; with repair, parity is recomputed from data, which
		// the walk's outer-first order makes cascade.
		err := a.walkStripes(cycle, true, func(si int, stripe layout.Stripe, shards [][]byte) error {
			rep.ParityErrors++
			is := FsckIssue{Kind: "parity", Cycle: cycle, Stripe: si, Layer: stripe.Layer.String()}
			if repair {
				if err := a.codes[[2]int{stripe.Data, stripe.Parity()}].Encode(shards); err != nil {
					return err
				}
				ops := sc.opList(stripe.Parity())
				for mi := stripe.Data; mi < len(stripe.Strips); mi++ {
					st := stripe.Strips[mi]
					ops = append(ops, batchOp{dev: a.device(st.Disk), disk: st.Disk, idx: cycle*slots + int64(st.Slot), buf: shards[mi]})
				}
				if failed := a.writeStrips(sc, ops); failed != nil {
					return failed.err
				}
				is.Repaired = true
				rep.Repaired++
			}
			addIssue(is)
			return nil
		})
		if err != nil {
			return rep, err
		}
		rep.StripesChecked += int64(len(a.sch.Stripes()))
	}
	rep.Clean = rep.ChecksumErrors+rep.ParityErrors == rep.Repaired
	return rep, nil
}
