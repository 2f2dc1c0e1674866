// Package core implements the algorithmic heart of the reproduction: the
// analyses and planners that operate on any layout.Scheme — OI-RAID or a
// baseline — through its stripe graph:
//
//   - Analyzer: a precomputed strip↔stripe adjacency index;
//   - Recoverable / ExactTolerance / EstimateUnrecoverable: peeling-decoder
//     fault-tolerance analysis (OI-RAID recovery is peeling: repair a
//     stripe whenever its losses do not exceed its parity count, alternate
//     layers to a fixed point);
//   - Plan: multi-phase, load-balanced recovery planning with
//     per-disk read accounting and run-length (sequentiality) metadata;
//   - WritePlan: the parity closure of a small write — strips, update
//     steps and stripes — computed once per data strip.
//
// The same Analyzer backs the event-driven simulator (package sim), the
// byte-accurate array (package store), and the reliability models
// (package reliability).
package core

import (
	"fmt"

	"github.com/oiraid/oiraid/internal/layout"
)

// Analyzer indexes a scheme's stripe graph for fast repeated analysis.
// It is immutable after construction and safe for concurrent use.
type Analyzer struct {
	scheme layout.Scheme
	disks  int
	slots  int

	stripes []layout.Stripe
	// members[si] lists the strip ids of stripe si (data first, parity last).
	members [][]int32
	// stripesOf[strip id] lists the stripes containing the strip.
	stripesOf [][]int32
	// dataMemberOf[strip id] lists the stripes where the strip is a data
	// member: the edges of the parity graph the write plans walk.
	dataMemberOf [][]int32
	// parityOf[strip id] is the stripe the strip is parity of, or -1.
	parityOf []int32
	// writePlans[strip id] is the small-write plan of a user-data strip
	// (zero for parity strips).
	writePlans []WritePlan
}

// NewAnalyzer validates the scheme and builds the index, refusing a scheme
// whose parity graph no small write can follow (see maxClosureDepth).
func NewAnalyzer(s layout.Scheme) (*Analyzer, error) {
	if err := layout.Validate(s); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	a := &Analyzer{
		scheme:  s,
		disks:   s.Disks(),
		slots:   s.SlotsPerDisk(),
		stripes: s.Stripes(),
	}
	n := a.disks * a.slots
	a.stripesOf = make([][]int32, n)
	a.dataMemberOf = make([][]int32, n)
	a.parityOf = make([]int32, n)
	for i := range a.parityOf {
		a.parityOf[i] = -1
	}
	a.members = make([][]int32, len(a.stripes))
	for si, stripe := range a.stripes {
		mem := make([]int32, len(stripe.Strips))
		for mi, st := range stripe.Strips {
			id := int32(st.Disk*a.slots + st.Slot)
			mem[mi] = id
			a.stripesOf[id] = append(a.stripesOf[id], int32(si))
			if mi < stripe.Data {
				a.dataMemberOf[id] = append(a.dataMemberOf[id], int32(si))
			} else {
				a.parityOf[id] = int32(si)
			}
		}
		a.members[si] = mem
	}
	if err := a.buildWritePlans(); err != nil {
		return nil, err
	}
	return a, nil
}

// Scheme returns the underlying layout.
func (a *Analyzer) Scheme() layout.Scheme { return a.scheme }

// Disks returns the disk count.
func (a *Analyzer) Disks() int { return a.disks }

// SlotsPerDisk returns the cycle length.
func (a *Analyzer) SlotsPerDisk() int { return a.slots }

// stripID flattens a strip to its dense id.
func (a *Analyzer) stripID(st layout.Strip) int32 { return int32(st.Disk*a.slots + st.Slot) }

// strip expands a dense id.
func (a *Analyzer) strip(id int32) layout.Strip {
	return layout.Strip{Disk: int(id) / a.slots, Slot: int(id) % a.slots}
}

// DataMemberStripes returns the indices of the stripes in which the strip
// is a data member (for data strips: its inner and outer stripes; for
// parity strips that are protected by another layer: that layer's stripe).
func (a *Analyzer) DataMemberStripes(st layout.Strip) []int {
	src := a.dataMemberOf[a.stripID(st)]
	out := make([]int, len(src))
	for i, si := range src {
		out[i] = int(si)
	}
	return out
}

// Recoverable reports whether the peeling decoder recovers every strip of
// the cycle after the given disks fail. It is the fast path used by the
// reliability Monte Carlo; Availability reports which strips stay lost and
// Plan produces the full schedule.
func (a *Analyzer) Recoverable(failed []int) bool {
	_, _, remaining := a.peel(failed)
	return remaining == 0
}

// peel is the peeling decoder: repair a stripe whenever its losses fit its
// parity, to a fixed point. It returns the residual — lost maps each strip of
// a failed disk to whether it is still lost, lostCount[si] is the number of
// still-lost members of stripe si, remaining the number of still-lost strips.
func (a *Analyzer) peel(failed []int) (map[int32]bool, []int32, int) {
	lost, lostCount := a.initLoss(failed)
	remaining := len(lost)
	if remaining == 0 {
		return lost, lostCount, 0
	}

	// Queue of stripes that can currently repair their losses.
	var queue []int32
	inQueue := make(map[int32]bool)
	push := func(si int32) {
		if !inQueue[si] && lostCount[si] > 0 && int(lostCount[si]) <= a.stripes[si].Parity() {
			inQueue[si] = true
			queue = append(queue, si)
		}
	}
	for si := range a.stripes {
		push(int32(si))
	}
	for len(queue) > 0 {
		si := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		inQueue[si] = false
		if lostCount[si] == 0 || int(lostCount[si]) > a.stripes[si].Parity() {
			continue
		}
		for _, id := range a.members[si] {
			if !lost[id] {
				continue
			}
			lost[id] = false
			remaining--
			for _, sj := range a.stripesOf[id] {
				lostCount[sj]--
				if sj != si {
					push(sj)
				}
			}
		}
	}
	return lost, lostCount, remaining
}

// initLoss computes the lost-strip set and per-stripe loss counts for a
// set of failed disks.
func (a *Analyzer) initLoss(failed []int) (map[int32]bool, []int32) {
	lost := make(map[int32]bool, len(failed)*a.slots)
	lostCount := make([]int32, len(a.stripes))
	for _, d := range failed {
		for slot := 0; slot < a.slots; slot++ {
			id := int32(d*a.slots + slot)
			if lost[id] {
				continue // duplicate disk in input
			}
			lost[id] = true
			for _, si := range a.stripesOf[id] {
				lostCount[si]++
			}
		}
	}
	return lost, lostCount
}
