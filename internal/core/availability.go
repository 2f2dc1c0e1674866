package core

import (
	"fmt"
	"sort"

	"github.com/oiraid/oiraid/internal/layout"
)

// Availability is the per-strip refinement of Recoverable: for one
// concrete failure pattern it classifies every strip of the cycle as
// decodable (surviving, or producible by the peeling decoder from
// survivors) or lost. The degraded serving plane consults it to keep
// decodable strips online when the pattern as a whole is beyond
// tolerance, instead of refusing on the flat failure count.
type Availability struct {
	// Failed is the input pattern, deduplicated and sorted.
	Failed []int
	// Recoverable is true when every strip is decodable — the same
	// predicate as Analyzer.Recoverable on the same pattern.
	Recoverable bool
	// DataComplete is true when every *data* strip is decodable: the
	// losses, if any, are confined to parity. A data-complete pattern
	// can serve the full address space read-only.
	DataComplete bool
	// Lost lists the undecodable strips in (disk, slot) order.
	Lost []layout.Strip
	// LostData counts the entries of Lost that are data strips.
	LostData int
	// StuckGroups lists the distinct surviving-member disk sets of the
	// inner stripes left with more losses than parity once peeling
	// stops — the inner groups whose failure pattern violates
	// tolerance. Each entry is the sorted disk set of one such group.
	StuckGroups [][]int

	slots   int
	lostSet map[int32]bool
}

// Availability runs the peeling decoder on the failure pattern and
// returns the full per-strip classification: the report is built from the
// residual of the same peel Recoverable runs.
func (a *Analyzer) Availability(failed []int) *Availability {
	av := &Availability{slots: a.slots}
	seen := make(map[int]bool, len(failed))
	for _, d := range failed {
		if d < 0 || d >= a.disks || seen[d] {
			continue
		}
		seen[d] = true
		av.Failed = append(av.Failed, d)
	}
	sort.Ints(av.Failed)

	lost, lostCount, remaining := a.peel(av.Failed)

	av.lostSet = make(map[int32]bool, remaining)
	ids := make([]int32, 0, remaining)
	for id, still := range lost {
		if !still {
			continue
		}
		av.lostSet[id] = true
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		av.Lost = append(av.Lost, a.strip(id))
	}
	av.Recoverable = len(av.Lost) == 0

	// Data strips are per-cycle positions; a data strip is available iff
	// its position survived peeling.
	av.DataComplete = true
	dataSet := make(map[int32]bool)
	for _, st := range a.scheme.DataStrips() {
		dataSet[a.stripID(st)] = true
	}
	for id := range av.lostSet {
		if dataSet[id] {
			av.DataComplete = false
			av.LostData++
		}
	}

	// Name the violating inner groups: inner stripes still holding a
	// lost strip with losses beyond parity.
	seenGroup := make(map[string]bool)
	for si, stripe := range a.stripes {
		if stripe.Layer != layout.LayerInner {
			continue
		}
		if lostCount[si] == 0 || int(lostCount[si]) <= stripe.Parity() {
			continue
		}
		group := make([]int, 0, len(a.members[si]))
		gs := make(map[int]bool)
		for _, id := range a.members[si] {
			d := int(id) / a.slots
			if !gs[d] {
				gs[d] = true
				group = append(group, d)
			}
		}
		sort.Ints(group)
		key := fmt.Sprint(group)
		if !seenGroup[key] {
			seenGroup[key] = true
			av.StuckGroups = append(av.StuckGroups, group)
		}
	}
	sort.Slice(av.StuckGroups, func(i, j int) bool {
		return fmt.Sprint(av.StuckGroups[i]) < fmt.Sprint(av.StuckGroups[j])
	})
	return av
}

// StripAvailable reports whether the (per-cycle) strip survived the
// pattern or is decodable from survivors.
func (av *Availability) StripAvailable(st layout.Strip) bool {
	return !av.lostSet[int32(st.Disk*av.slots+st.Slot)]
}

// Describe renders the pattern for operator-facing errors: the failed
// disks plus, when tolerance is violated, the inner groups that broke
// and the residual loss counts.
func (av *Availability) Describe() string {
	if av.Recoverable {
		return fmt.Sprintf("disks %v failed (recoverable)", av.Failed)
	}
	s := fmt.Sprintf("disks %v failed; %d strips undecodable (%d data)", av.Failed, len(av.Lost), av.LostData)
	if len(av.StuckGroups) > 0 {
		s += fmt.Sprintf("; violating inner groups %v", av.StuckGroups)
	}
	return s
}

// String implements fmt.Stringer.
func (av *Availability) String() string { return av.Describe() }
