package core

import (
	"sort"

	"github.com/oiraid/oiraid/internal/layout"
)

// UpdateStrips returns every strip written when the given data strip is
// updated: the strip itself plus the transitive closure of parity strips —
// each stripe in which a written strip is a data member must have its
// parity strips updated too.
//
// For OI-RAID the closure of a user-data strip has exactly four elements:
// the data strip, its inner parity, its outer parity, and the outer
// parity's inner parity. For RAID5 it has two, for RAID6 three.
//
// The returned strips are sorted by (disk, slot).
func (a *Analyzer) UpdateStrips(target layout.Strip) []layout.Strip {
	start := a.stripID(target)
	visited := map[int32]bool{start: true}
	frontier := []int32{start}
	for len(frontier) > 0 {
		id := frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		for _, si := range a.dataMemberOf[id] {
			stripe := a.stripes[si]
			for mi := stripe.Data; mi < len(stripe.Strips); mi++ {
				pid := a.stripID(stripe.Strips[mi])
				if !visited[pid] {
					visited[pid] = true
					frontier = append(frontier, pid)
				}
			}
		}
	}
	out := make([]layout.Strip, 0, len(visited))
	for id := range visited {
		out = append(out, a.strip(id))
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Disk != out[j].Disk {
			return out[i].Disk < out[j].Disk
		}
		return out[i].Slot < out[j].Slot
	})
	return out
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
