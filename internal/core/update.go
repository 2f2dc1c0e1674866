package core

import (
	"fmt"
	"slices"

	"github.com/oiraid/oiraid/internal/layout"
)

// WriteStep is one parity update of a small write: stripe Stripe folds the
// change of its data member at DataPos into its parity strips.
type WriteStep struct {
	// Stripe indexes into Scheme().Stripes().
	Stripe int
	// DataPos is the changed strip's position among the stripe's members.
	DataPos int
	// Source indexes WritePlan.Strips: the strip whose change is folded in.
	// Its new content is final when the step runs.
	Source int
	// Parity indexes WritePlan.Strips: the stripe's parity strips in member
	// order (the order erasure.Code.UpdateParity takes).
	Parity []int
	// Feeds marks, by position in Parity, each parity that is the Source of
	// a later step: its change outlives this step.
	Feeds []bool
	// Once marks, by position in Parity, each parity that no other step
	// updates: its change is this step's alone.
	Once []bool
}

// WritePlan is everything a small write of one data strip touches — the
// "update complexity" of the scheme as one fixed fact per strip. For
// OI-RAID it has four strips (data, inner parity, outer parity, the outer
// parity's inner parity), three steps and three stripes; for RAID5 two
// strips, for RAID6 three.
type WritePlan struct {
	// Strips is the parity closure: the written strip first, then every
	// parity strip its change reaches, each after the strips that feed it.
	// Reads, redo records and device writes all follow this order.
	Strips []layout.Strip
	// Steps are the parity updates in an order in which every step's Source
	// has already absorbed all of its own updates.
	Steps []WriteStep
	// Stripes are the ascending ids of the stripes of Steps: the stripes
	// whose consistency the write changes, hence its lock set.
	Stripes []int
}

// maxClosureDepth bounds how many parity levels a small write may cascade
// through (OI-RAID needs 2). A parity graph that exceeds it — a cyclic one
// always does — is refused at NewAnalyzer.
const maxClosureDepth = 8

// buildWritePlans fills writePlans for every user-data strip: the one
// transitive walk of the parity graph. Each stripe in which a changed strip
// is a data member has its parities changed too, and those propagate (outer
// parity is a data member of its inner stripe).
func (a *Analyzer) buildWritePlans() error {
	a.writePlans = make([]WritePlan, a.disks*a.slots)
	// Per-target scratch, -1 outside the closure: depth[id] is the longest
	// update chain from the target to the strip, index[id] its place in
	// the plan.
	depth := make([]int, a.disks*a.slots)
	index := make([]int, a.disks*a.slots)
	for i := range depth {
		depth[i], index[i] = -1, -1
	}
	for _, target := range a.scheme.DataStrips() {
		start := a.stripID(target)
		depth[start] = 0
		ids := []int32{start}
		for work := []int32{start}; len(work) > 0; work = work[1:] {
			id := work[0]
			for _, si := range a.dataMemberOf[id] {
				for _, pid := range a.members[si][a.stripes[si].Data:] {
					if depth[pid] > depth[id] {
						continue
					}
					if depth[id] == maxClosureDepth {
						return fmt.Errorf("core: layout %s: parity closure of strip %+v is cyclic or deeper than %d levels",
							a.scheme.Name(), target, maxClosureDepth)
					}
					if depth[pid] < 0 {
						ids = append(ids, pid)
					}
					depth[pid] = depth[id] + 1
					work = append(work, pid)
				}
			}
		}
		// Shallower strips first: every strip that feeds a parity precedes
		// it, so the steps out of a strip see its final content.
		slices.SortStableFunc(ids, func(x, y int32) int { return depth[x] - depth[y] })
		plan := &a.writePlans[start]
		for i, id := range ids {
			plan.Strips = append(plan.Strips, a.strip(id))
			index[id] = i
		}
		for src, id := range ids {
			for _, si := range a.dataMemberOf[id] {
				mem, data := a.members[si], a.stripes[si].Data
				step := WriteStep{Stripe: int(si), Source: src}
				for mem[step.DataPos] != id {
					step.DataPos++
				}
				for _, pid := range mem[data:] {
					step.Parity = append(step.Parity, index[pid])
				}
				plan.Steps = append(plan.Steps, step)
				plan.Stripes = append(plan.Stripes, int(si))
			}
		}
		slices.Sort(plan.Stripes)
		plan.Stripes = slices.Compact(plan.Stripes)
		markDeltaUse(plan)
		for _, id := range ids {
			depth[id], index[id] = -1, -1
		}
	}
	return nil
}

// markDeltaUse fills the Feeds and Once marks of plan's steps. Every step
// out of a strip follows every step into it, so a parity that is the Source
// of any step is the Source of one after each step that updates it.
func markDeltaUse(plan *WritePlan) {
	source := make([]bool, len(plan.Strips))
	updates := make([]int, len(plan.Strips))
	for _, step := range plan.Steps {
		source[step.Source] = true
		for _, p := range step.Parity {
			updates[p]++
		}
	}
	for i := range plan.Steps {
		step := &plan.Steps[i]
		for _, p := range step.Parity {
			step.Feeds = append(step.Feeds, source[p])
			step.Once = append(step.Once, updates[p] == 1)
		}
	}
}

// WritePlan returns the precomputed small-write plan of a user-data strip
// (one of Scheme().DataStrips()). The plan is shared; callers must not
// mutate it.
func (a *Analyzer) WritePlan(target layout.Strip) *WritePlan {
	return &a.writePlans[a.stripID(target)]
}

// UpdateStrips returns every strip written when the given data strip is
// updated: WritePlan(target).Strips, the target first. The slice is shared;
// callers must not mutate it.
func (a *Analyzer) UpdateStrips(target layout.Strip) []layout.Strip {
	return a.WritePlan(target).Strips
}

// DecodeInfo tells a data plane how to reconstruct one strip: which
// stripe to decode and where the target sits among its members.
type DecodeInfo struct {
	// Stripe indexes into Scheme().Stripes().
	Stripe int
	// Members is the stripe's member list (data first, parity last).
	Members []layout.Strip
	// Target is the index of the strip being reconstructed within Members.
	Target int
	// Present marks every other member on a disk accepted by alive (the
	// mask erasure.Code.Reconstruct takes); any Data-many of them decode
	// Target.
	Present []bool
}

// DecodePath selects a stripe that can reconstruct the target strip using
// only disks accepted by alive, preferring the inner layer. ok is false
// when no stripe qualifies.
func (a *Analyzer) DecodePath(target layout.Strip, alive func(disk int) bool) (DecodeInfo, bool) {
	id := a.stripID(target)
	best := -1
	for _, si := range a.stripesOf[id] {
		live := 0
		for _, mid := range a.members[si] {
			if mid != id && alive(int(mid)/a.slots) {
				live++
			}
		}
		if live < a.stripes[si].Data {
			continue
		}
		if best < 0 || (a.stripes[si].Layer == layout.LayerInner && a.stripes[best].Layer != layout.LayerInner) {
			best = int(si)
		}
	}
	if best < 0 {
		return DecodeInfo{}, false
	}
	mem := a.members[best]
	info := DecodeInfo{Stripe: best, Members: a.stripes[best].Strips, Present: make([]bool, len(mem))}
	for mi, mid := range mem {
		if mid == id {
			info.Target = mi
		} else {
			info.Present[mi] = alive(int(mid) / a.slots)
		}
	}
	return info, true
}

// StripeShapes returns the distinct (data, parity) shard-count pairs of
// the scheme's stripes, so a data plane can instantiate one erasure code
// per shape.
func (a *Analyzer) StripeShapes() [][2]int {
	seen := make(map[[2]int]bool)
	var out [][2]int
	for _, s := range a.stripes {
		shape := [2]int{s.Data, s.Parity()}
		if !seen[shape] {
			seen[shape] = true
			out = append(out, shape)
		}
	}
	return out
}

// UpdateCost summarises small-write amplification over all data strips of
// one cycle.
type UpdateCost struct {
	// MinWrites/MaxWrites/MeanWrites are strip writes per data-strip
	// update (read-modify-write doubles these into I/Os).
	MinWrites  int
	MaxWrites  int
	MeanWrites float64
}

// UpdateCostSummary computes the write-amplification statistics of the
// scheme's data strips.
func (a *Analyzer) UpdateCostSummary() UpdateCost {
	data := a.scheme.DataStrips()
	c := UpdateCost{MinWrites: int(^uint(0) >> 1)}
	total := 0
	for _, st := range data {
		w := len(a.UpdateStrips(st))
		total += w
		if w < c.MinWrites {
			c.MinWrites = w
		}
		if w > c.MaxWrites {
			c.MaxWrites = w
		}
	}
	if len(data) > 0 {
		c.MeanWrites = float64(total) / float64(len(data))
	} else {
		c.MinWrites = 0
	}
	return c
}
