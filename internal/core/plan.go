package core

import (
	"fmt"
	"slices"
	"sort"

	"github.com/oiraid/oiraid/internal/layout"
)

// RepairTask reconstructs one or more lost strips of a single stripe.
type RepairTask struct {
	// Targets are the strips reconstructed by this task.
	Targets []layout.Strip
	// Via is the index (into Scheme().Stripes()) of the stripe used.
	Via int
	// Layer of the repairing stripe.
	Layer layout.Layer
	// Reads are the source strips, all alive or recovered in an earlier
	// phase. MDS coding needs exactly Data many sources per stripe.
	Reads []layout.Strip
	// TargetPos gives each target's member position within stripe Via
	// (parallel to Targets), and Present marks the positions of Reads —
	// the mask erasure.Code.Reconstruct takes — so an executor places
	// shards without searching the stripe.
	TargetPos []int
	Present   []bool
	// Phase is the dependency level: phase p reads only disks that
	// survived or strips recovered in phases < p.
	Phase int
}

// Plan is a complete multi-phase recovery schedule.
type Plan struct {
	// Failed lists the failed disks.
	Failed []int
	// Tasks in phase order.
	Tasks []RepairTask
	// Phases is the number of dependency levels (1 for single failures).
	Phases int
	// Complete is false when peeling got stuck; Unrecovered then lists the
	// strips that remain lost (data loss).
	Complete    bool
	Unrecovered []layout.Strip
	// ReadsPerDisk counts source strips read from each surviving disk
	// (index = disk id; failed disks stay 0).
	ReadsPerDisk []int
	// RecoveredReads counts reads that hit strips recovered in an earlier
	// phase (charged to spare or rebuilt locations by the simulator).
	RecoveredReads int
	// WriteStrips is the number of strips to re-materialise (== number of
	// lost strips when Complete).
	WriteStrips int
	// ReadRuns[d] lists the sorted maximal runs of consecutive slots read
	// from disk d, as [start, length] pairs — the simulator's
	// sequentiality input.
	ReadRuns [][][2]int

	// producer[strip id] is one more than the index of the task that
	// rebuilds the strip, 0 for a strip no task targets; slots is the id
	// stride (strip id = disk·slots + slot).
	producer []int32
	slots    int
}

// For returns the indices into Tasks, in execution order, of the tasks
// target transitively needs and nothing else: the task that rebuilds it and,
// for every lost strip such a task reads, the task that rebuilds that. A
// strip one stripe decodes yields one task; a strip the plan does not
// rebuild (never lost, or in Unrecovered) yields none.
func (p *Plan) For(target layout.Strip) []int {
	first := p.producerOf(target)
	if first < 0 {
		return nil
	}
	need := append(make([]int, 0, p.Phases), first)
	for i := 0; i < len(need); i++ {
		for _, src := range p.Tasks[need[i]].Reads {
			if ti := p.producerOf(src); ti >= 0 && !slices.Contains(need, ti) {
				need = append(need, ti)
			}
		}
	}
	// A task reads only strips of earlier phases and Tasks is in phase
	// order, so ascending index is an execution order.
	sort.Ints(need)
	return need
}

// producerOf returns the index of the task that rebuilds st, or -1.
func (p *Plan) producerOf(st layout.Strip) int {
	if st.Disk < 0 || st.Slot < 0 || st.Slot >= p.slots {
		return -1
	}
	id := st.Disk*p.slots + st.Slot
	if id >= len(p.producer) {
		return -1
	}
	return int(p.producer[id]) - 1
}

// MaxReadStrips returns the largest per-survivor read load, the quantity
// that bounds read-phase rebuild time.
func (p *Plan) MaxReadStrips() int {
	m := 0
	for _, r := range p.ReadsPerDisk {
		if r > m {
			m = r
		}
	}
	return m
}

// ReadBalance returns min/max read load over surviving disks that read at
// least nothing — specifically over all surviving disks, including idle
// ones. max == 0 yields (0, 0).
func (p *Plan) ReadBalance() (min, max int) {
	failedSet := make(map[int]bool, len(p.Failed))
	for _, d := range p.Failed {
		failedSet[d] = true
	}
	first := true
	for d, r := range p.ReadsPerDisk {
		if failedSet[d] {
			continue
		}
		if first {
			min, max = r, r
			first = false
			continue
		}
		if r < min {
			min = r
		}
		if r > max {
			max = r
		}
	}
	return min, max
}

// PlanOptions tunes recovery planning.
type PlanOptions struct {
	// PreferLayer biases stripe choice toward the given layer when load
	// scores tie. OI-RAID prefers the inner layer: its reads are
	// sequential within one partition. Default LayerInner.
	PreferLayer layout.Layer
}

// Plan computes a multi-phase, load-balanced recovery schedule for the
// failed disks. The planner is greedy: within each phase it assigns each
// repairable strip the candidate stripe that minimises the resulting
// maximum per-disk read load (ties: total load, then preferred layer,
// then stripe order).
func (a *Analyzer) Plan(failed []int, opts PlanOptions) *Plan {
	plan := &Plan{
		Failed:       append([]int(nil), failed...),
		Complete:     true,
		ReadsPerDisk: make([]int, a.disks),
		slots:        a.slots,
	}

	lost, _ := a.initLoss(failed)
	plan.WriteStrips = len(lost)
	if len(lost) == 0 {
		return plan
	}
	plan.producer = make([]int32, a.disks*a.slots)

	// recoveredBefore: strips recovered in a previous phase (readable).
	recoveredBefore := make(map[int32]bool)
	load := plan.ReadsPerDisk
	readSlots := make([][]int, a.disks)

	for phase := 0; ; phase++ {
		// Strips repairable this phase: member of a stripe whose losses
		// (counting only strips not yet recovered before this phase) fit
		// within parity and whose sources are alive or recovered earlier.
		// targets and sources hold member positions within stripe si.
		type cand struct {
			si      int32
			targets []int32
			sources []int32
		}
		var phaseCands []cand
		seenStripe := make(map[int32]bool)
		for id := range lost {
			for _, si := range a.stripesOf[id] {
				if seenStripe[si] {
					continue
				}
				seenStripe[si] = true
				stripe := a.stripes[si]
				var targets, sources []int32
				for mi, mid := range a.members[si] {
					if lost[mid] {
						targets = append(targets, int32(mi))
					} else {
						sources = append(sources, int32(mi))
					}
				}
				if len(targets) == 0 || len(targets) > stripe.Parity() {
					continue
				}
				phaseCands = append(phaseCands, cand{si: si, targets: targets, sources: sources})
			}
		}
		if len(phaseCands) == 0 {
			break
		}
		// Deterministic order: by stripe index.
		sort.Slice(phaseCands, func(i, j int) bool { return phaseCands[i].si < phaseCands[j].si })

		// Greedy assignment: for each still-lost strip (in id order), pick
		// the best candidate stripe covering it.
		assigned := make(map[int32]bool)
		var phaseTasks []RepairTask
		ids := make([]int32, 0, len(lost))
		for id := range lost {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

		candsOf := make(map[int32][]int, len(lost))
		for ci, c := range phaseCands {
			for _, tp := range c.targets {
				tid := a.members[c.si][tp]
				candsOf[tid] = append(candsOf[tid], ci)
			}
		}

		for _, id := range ids {
			if assigned[id] {
				continue
			}
			usable := func(c *cand) bool {
				// Skip stripes that overlap an already-planned target (a
				// strip is rebuilt by exactly one task per plan) or that
				// lack the Data sources MDS decoding needs.
				for _, tp := range c.targets {
					if tid := a.members[c.si][tp]; tid != id && assigned[tid] {
						return false
					}
				}
				return a.stripes[c.si].Data <= len(c.sources)
			}
			// When the preferred layer can repair the strip, use only it:
			// for OI-RAID single failures this pins recovery to the inner
			// layer, whose reads are perfectly balanced and sequential.
			preferredOnly := false
			for _, ci := range candsOf[id] {
				c := &phaseCands[ci]
				if a.stripes[c.si].Layer == opts.PreferLayer && usable(c) {
					preferredOnly = true
					break
				}
			}
			best := -1
			bestMax, bestSum := 0, 0
			var bestSrcs []int32
			for _, ci := range candsOf[id] {
				c := &phaseCands[ci]
				if !usable(c) {
					continue
				}
				if preferredOnly && a.stripes[c.si].Layer != opts.PreferLayer {
					continue
				}
				mem := a.members[c.si]
				srcs := a.chooseSources(mem, c.sources, a.stripes[c.si].Data, load, recoveredBefore)
				maxL, sumL := 0, 0
				for _, sp := range srcs {
					sid := mem[sp]
					if recoveredBefore[sid] {
						continue
					}
					d := int(sid) / a.slots
					l := load[d] + 1
					if l > maxL {
						maxL = l
					}
					sumL += l
				}
				better := false
				switch {
				case best < 0:
					better = true
				case maxL != bestMax:
					better = maxL < bestMax
				case sumL != bestSum:
					better = sumL < bestSum
				default:
					better = a.stripes[c.si].Layer == opts.PreferLayer &&
						a.stripes[phaseCands[best].si].Layer != opts.PreferLayer
				}
				if better {
					best, bestMax, bestSum, bestSrcs = ci, maxL, sumL, srcs
				}
			}
			if best < 0 {
				continue // not repairable this phase
			}
			c := &phaseCands[best]
			mem := a.members[c.si]
			nt := len(c.targets)
			strips := make([]layout.Strip, nt+len(bestSrcs)) // one backing array for Targets and Reads
			task := RepairTask{
				Via:       int(c.si),
				Layer:     a.stripes[c.si].Layer,
				Phase:     phase,
				Targets:   strips[:nt:nt],
				Reads:     strips[nt:],
				TargetPos: make([]int, nt),
				Present:   make([]bool, len(mem)),
			}
			for i, tp := range c.targets {
				tid := mem[tp]
				assigned[tid] = true
				task.Targets[i], task.TargetPos[i] = a.strip(tid), int(tp)
				plan.producer[tid] = int32(len(plan.Tasks) + len(phaseTasks) + 1)
			}
			for i, sp := range bestSrcs {
				sid := mem[sp]
				task.Reads[i], task.Present[sp] = a.strip(sid), true
				if recoveredBefore[sid] {
					plan.RecoveredReads++
					continue
				}
				d := int(sid) / a.slots
				load[d]++
				readSlots[d] = append(readSlots[d], int(sid)%a.slots)
			}
			phaseTasks = append(phaseTasks, task)
		}
		if len(phaseTasks) == 0 {
			break
		}
		// Commit the phase.
		for _, t := range phaseTasks {
			for _, st := range t.Targets {
				id := a.stripID(st)
				delete(lost, id)
				recoveredBefore[id] = true
			}
		}
		plan.Tasks = append(plan.Tasks, phaseTasks...)
		plan.Phases = phase + 1
		if len(lost) == 0 {
			break
		}
	}

	if len(lost) > 0 {
		plan.Complete = false
		ids := make([]int32, 0, len(lost))
		for id := range lost {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, id := range ids {
			plan.Unrecovered = append(plan.Unrecovered, a.strip(id))
		}
	}
	plan.ReadRuns = buildRuns(readSlots)
	return plan
}

// chooseSources picks need sources from the available survivors (member
// positions within mem), preferring already-recovered strips (free reads)
// and then the least loaded disks. Deterministic for equal loads.
func (a *Analyzer) chooseSources(mem, avail []int32, need int, load []int, recovered map[int32]bool) []int32 {
	if len(avail) == need {
		return avail
	}
	srcs := append([]int32(nil), avail...)
	sort.SliceStable(srcs, func(i, j int) bool {
		si, sj := mem[srcs[i]], mem[srcs[j]]
		if ri, rj := recovered[si], recovered[sj]; ri != rj {
			return ri
		}
		li := load[int(si)/a.slots]
		lj := load[int(sj)/a.slots]
		if li != lj {
			return li < lj
		}
		return si < sj
	})
	return srcs[:need]
}

// buildRuns converts per-disk slot lists into sorted maximal [start,len]
// runs of consecutive slots.
func buildRuns(readSlots [][]int) [][][2]int {
	runs := make([][][2]int, len(readSlots))
	for d, slots := range readSlots {
		if len(slots) == 0 {
			continue
		}
		sort.Ints(slots)
		start, length := slots[0], 1
		for _, s := range slots[1:] {
			if s == start+length {
				length++
				continue
			}
			if s == start+length-1 {
				continue // duplicate slot (shared source)
			}
			runs[d] = append(runs[d], [2]int{start, length})
			start, length = s, 1
		}
		runs[d] = append(runs[d], [2]int{start, length})
	}
	return runs
}

// String summarises the plan.
func (p *Plan) String() string {
	min, max := p.ReadBalance()
	return fmt.Sprintf("plan(failed=%v tasks=%d phases=%d complete=%v reads[min=%d max=%d] writes=%d)",
		p.Failed, len(p.Tasks), p.Phases, p.Complete, min, max, p.WriteStrips)
}
