package core

import (
	"math/rand"
	"testing"

	"github.com/oiraid/oiraid/internal/layout"
)

// propertySchemes returns the scheme zoo for the cross-component property
// tests.
func propertySchemes(t *testing.T) []*Analyzer {
	return []*Analyzer{
		oiAnalyzer(t, 9),
		oiAnalyzer(t, 15),
		oiAnalyzer(t, 16),
		genAnalyzer(t, 9, 2, 1),
		genAnalyzer(t, 16, 1, 2),
		raid5Analyzer(t, 8),
		raid6Analyzer(t, 8),
		pdAnalyzer(t, 13, 3),
		s2Analyzer(t, 3, 4),
	}
}

// TestRecoverableMatchesPlanner is the central consistency property of the
// analysis layer: for random failure patterns of every size, the peeling
// checker (Recoverable) and the planner (Plan) must agree — a pattern is
// recoverable exactly when the planner produces a complete plan, and the
// plan must be internally valid.
func TestRecoverableMatchesPlanner(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for _, a := range propertySchemes(t) {
		n := a.Disks()
		for trial := 0; trial < 60; trial++ {
			size := 1 + rng.Intn(n-1)
			failed := rng.Perm(n)[:size]
			rec := a.Recoverable(failed)
			plan := a.Plan(failed, PlanOptions{})
			if rec != plan.Complete {
				t.Fatalf("%s: pattern %v: Recoverable=%v but Plan.Complete=%v",
					a.Scheme().Name(), failed, rec, plan.Complete)
			}
			if plan.Complete {
				validatePlan(t, a, plan)
			} else if len(plan.Unrecovered) == 0 {
				t.Fatalf("%s: incomplete plan without unrecovered strips", a.Scheme().Name())
			}
		}
	}
}

// TestEveryStripInAStripe: every (disk, slot) of a cycle is a member of at
// least one stripe. The array's one verification walk (scrub, fsck) reads
// stripes, not disks, so it checks every strip's checksum only because of
// this. On OI-RAID v = 9 a third of the strips (inner parity) sit in one
// stripe and the rest in two.
func TestEveryStripInAStripe(t *testing.T) {
	for _, a := range append(propertySchemes(t), oiAnalyzer(t, 25)) {
		s := a.Scheme()
		holders := make([]int, s.Disks()*s.SlotsPerDisk())
		for _, stripe := range s.Stripes() {
			for _, st := range stripe.Strips {
				holders[st.Disk*s.SlotsPerDisk()+st.Slot]++
			}
		}
		tally := map[int]int{}
		for i, n := range holders {
			if n == 0 {
				t.Fatalf("%s: strip (disk %d, slot %d) is in no stripe", s.Name(), i/s.SlotsPerDisk(), i%s.SlotsPerDisk())
			}
			tally[n]++
		}
		if s.Name() == "oi-raid(v=9,k=3,r=4)" && (tally[1] != 108 || tally[2] != 216 || len(tally) != 2) {
			t.Fatalf("%s: strips per holder count %v, want 108 in one stripe and 216 in two", s.Name(), tally)
		}
	}
}

// TestPlanReadAccounting: ReadsPerDisk must equal the per-disk tally of
// non-recovered task reads, and ReadRuns must cover exactly those slots.
func TestPlanReadAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, a := range propertySchemes(t) {
		n := a.Disks()
		for trial := 0; trial < 20; trial++ {
			size := 1 + rng.Intn(3)
			failed := rng.Perm(n)[:size]
			plan := a.Plan(failed, PlanOptions{})
			if !plan.Complete {
				continue
			}
			failedSet := make(map[int]bool)
			for _, d := range failed {
				failedSet[d] = true
			}
			counts := make([]int, n)
			recovered := make(map[layout.Strip]bool)
			recoveredReads := 0
			for _, task := range plan.Tasks {
				for _, src := range task.Reads {
					if failedSet[src.Disk] && recovered[src] {
						recoveredReads++
						continue
					}
					counts[src.Disk]++
				}
				for _, tgt := range task.Targets {
					recovered[tgt] = true
				}
			}
			for d := 0; d < n; d++ {
				if counts[d] != plan.ReadsPerDisk[d] {
					t.Fatalf("%s %v: disk %d reads %d, plan says %d",
						a.Scheme().Name(), failed, d, counts[d], plan.ReadsPerDisk[d])
				}
			}
			if recoveredReads != plan.RecoveredReads {
				t.Fatalf("%s %v: recovered reads %d, plan says %d",
					a.Scheme().Name(), failed, recoveredReads, plan.RecoveredReads)
			}
			// Runs cover exactly the distinct slots read per disk
			// (recovered-strip reads are served from spare space, not from
			// the original location, so they are not in the runs).
			for d, runs := range plan.ReadRuns {
				covered := 0
				for _, r := range runs {
					covered += r[1]
				}
				distinct := make(map[int]bool)
				rec2 := make(map[layout.Strip]bool)
				for _, task := range plan.Tasks {
					for _, src := range task.Reads {
						if src.Disk == d && !(failedSet[src.Disk] && rec2[src]) {
							distinct[src.Slot] = true
						}
					}
					for _, tgt := range task.Targets {
						rec2[tgt] = true
					}
				}
				if covered != len(distinct) {
					t.Fatalf("%s %v: disk %d runs cover %d slots, want %d",
						a.Scheme().Name(), failed, d, covered, len(distinct))
				}
			}
		}
	}
}

// TestToleranceMonotonicity: if a pattern is unrecoverable, every superset
// is unrecoverable too (peeling is monotone).
func TestToleranceMonotonicity(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, a := range propertySchemes(t) {
		n := a.Disks()
		for trial := 0; trial < 40; trial++ {
			size := 1 + rng.Intn(n-2)
			perm := rng.Perm(n)
			failed := perm[:size]
			if a.Recoverable(failed) {
				continue
			}
			superset := perm[:size+1]
			if a.Recoverable(superset) {
				t.Fatalf("%s: %v unrecoverable but superset %v recoverable",
					a.Scheme().Name(), failed, superset)
			}
		}
	}
}

// TestUpdateStripsClosureProperty: the update closure must contain the
// target, consist of the target plus parity strips only, and satisfy
// closure (every stripe containing a closure strip as data member has all
// its parities in the closure).
func TestUpdateStripsClosure(t *testing.T) {
	for _, a := range propertySchemes(t) {
		data := a.Scheme().DataStrips()
		stripes := a.Scheme().Stripes()
		for i := 0; i < len(data); i += 7 {
			target := data[i]
			ws := a.UpdateStrips(target)
			inSet := make(map[layout.Strip]bool, len(ws))
			for _, w := range ws {
				inSet[w] = true
			}
			if !inSet[target] {
				t.Fatalf("%s: closure of %v misses the target", a.Scheme().Name(), target)
			}
			for _, w := range ws {
				for _, si := range a.DataMemberStripes(w) {
					s := stripes[si]
					for mi := s.Data; mi < len(s.Strips); mi++ {
						if !inSet[s.Strips[mi]] {
							t.Fatalf("%s: closure of %v missing parity %v of stripe %d",
								a.Scheme().Name(), target, s.Strips[mi], si)
						}
					}
				}
			}
		}
	}
}
