package store

import (
	"fmt"
	"slices"
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

// add counts is in the report and, up to maxFsckIssues, lists it.
func (r *FsckReport) add(is FsckIssue) {
	if is.Kind == "checksum" {
		r.ChecksumErrors++
	} else {
		r.ParityErrors++
	}
	if is.Repaired {
		r.Repaired++
	}
	if len(r.Issues) >= maxFsckIssues {
		r.Truncated = true
		return
	}
	r.Issues = append(r.Issues, is)
}

// Fsck verifies both redundancy layers of the whole array: FsckCycle over
// every cycle, the way Scrub runs ScrubCycle. It takes no lock across
// cycles, so it is for an array no writer is using; route calls through
// Engine.Fsck on a serving array.
func (a *Array) Fsck(repair bool) (*FsckReport, error) {
	rep := &FsckReport{Cycles: a.cycles}
	for cycle := int64(0); cycle < a.cycles; cycle++ {
		if err := a.FsckCycle(cycle, repair, rep); err != nil {
			return rep, err
		}
	}
	return rep, nil
}

// FsckCycle verifies one cycle with the scrub's check (walkStripes) and adds
// what it finds to rep: every strip against its durable checksum, every
// stripe of the outer BIBD layer and the inner RAID5 layer against its
// parity. With repair set, a checksum failure is reconstructed from parity
// and rewritten, as read repair does, and an inconsistent stripe gets its
// parity recomputed from data (outer layer first, since outer parity strips
// are data members of inner stripes). It holds the array lock shared and the
// caller keeps writers off the cycle, as for ScrubCycle. The array must be
// healthy.
func (a *Array) FsckCycle(cycle int64, repair bool, rep *FsckReport) error {
	a.mu.RLock()
	defer a.mu.RUnlock()
	if slices.Contains(a.failed, true) {
		return ErrDiskFaulty
	}
	if err := a.walkStripes(cycle, repair, repair, rep); err != nil {
		return err
	}
	rep.StripsChecked += int64(len(a.devs) * a.an.SlotsPerDisk())
	rep.StripesChecked += int64(len(a.sch.Stripes()))
	rep.Clean = rep.ChecksumErrors+rep.ParityErrors == rep.Repaired
	return nil
}
