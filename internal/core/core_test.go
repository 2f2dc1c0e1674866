package core

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"github.com/oiraid/oiraid/internal/bibd"
	"github.com/oiraid/oiraid/internal/layout"
)

func mustAnalyzer(t testing.TB, s layout.Scheme, err error) *Analyzer {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAnalyzer(s)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func oiAnalyzer(t testing.TB, v int, opts ...layout.OIRAIDOption) *Analyzer {
	t.Helper()
	d, err := bibd.ForArray(v)
	if err != nil {
		t.Fatal(err)
	}
	s, err := layout.NewOIRAID(d, opts...)
	return mustAnalyzer(t, s, err)
}

func raid5Analyzer(t testing.TB, n int) *Analyzer {
	t.Helper()
	s, err := layout.NewRAID5(n)
	return mustAnalyzer(t, s, err)
}

func raid6Analyzer(t testing.TB, n int) *Analyzer {
	t.Helper()
	s, err := layout.NewRAID6(n)
	return mustAnalyzer(t, s, err)
}

func s2Analyzer(t testing.TB, g, m int) *Analyzer {
	t.Helper()
	s, err := layout.NewS2RAID(g, m)
	return mustAnalyzer(t, s, err)
}

func pdAnalyzer(t testing.TB, v, k int) *Analyzer {
	t.Helper()
	d, err := bibd.ForDeclustering(v, k)
	if err != nil {
		t.Fatal(err)
	}
	s, err := layout.NewParityDecluster(d)
	return mustAnalyzer(t, s, err)
}

func TestRAID5Tolerance(t *testing.T) {
	a := raid5Analyzer(t, 7)
	rep := a.ExactTolerance(3)
	if rep.Guaranteed != 1 {
		t.Fatalf("raid5 tolerance = %d, want 1", rep.Guaranteed)
	}
	if len(rep.Counterexample) != 2 {
		t.Fatalf("raid5 counterexample = %v, want a 2-failure", rep.Counterexample)
	}
}

func TestRAID6Tolerance(t *testing.T) {
	a := raid6Analyzer(t, 8)
	rep := a.ExactTolerance(4)
	if rep.Guaranteed != 2 {
		t.Fatalf("raid6 tolerance = %d, want 2", rep.Guaranteed)
	}
}

func TestParityDeclusterTolerance(t *testing.T) {
	a := pdAnalyzer(t, 7, 3)
	if got := a.ExactTolerance(3).Guaranteed; got != 1 {
		t.Fatalf("parity declustering tolerance = %d, want 1", got)
	}
}

func TestS2RAIDTolerance(t *testing.T) {
	a := s2Analyzer(t, 3, 3)
	if got := a.ExactTolerance(3).Guaranteed; got != 1 {
		t.Fatalf("s2-raid tolerance = %d, want 1", got)
	}
}

// TestOIRAIDToleratesThreeFailures is the paper's central fault-tolerance
// claim, checked exhaustively: every 1-, 2-, and 3-disk failure pattern is
// recoverable.
func TestOIRAIDToleratesThreeFailures(t *testing.T) {
	for _, v := range []int{9, 15, 16, 25} {
		a := oiAnalyzer(t, v)
		rep := a.ExactTolerance(3)
		if rep.Guaranteed < 3 {
			t.Fatalf("v=%d: oi-raid tolerance = %d (counterexample %v), want ≥ 3",
				v, rep.Guaranteed, rep.Counterexample)
		}
	}
}

// TestOIRAIDToleranceWithoutSkew: skew is a balance optimisation, not a
// correctness requirement; tolerance must still be ≥ 3.
func TestOIRAIDToleranceWithoutSkew(t *testing.T) {
	a := oiAnalyzer(t, 9, layout.WithSkew(false))
	if got := a.ExactTolerance(3).Guaranteed; got < 3 {
		t.Fatalf("oi-raid noskew tolerance = %d, want ≥ 3", got)
	}
}

// TestOIRAIDFourFailures: some 4-failure patterns must be unrecoverable
// (tolerance is exactly 3, not more) but many survive — the geometry-aware
// reliability model depends on that fraction being strictly between 0 and 1.
func TestOIRAIDFourFailures(t *testing.T) {
	a := oiAnalyzer(t, 9)
	frac := a.EstimateUnrecoverable(4, 1<<20, nil)
	if frac <= 0 || frac >= 1 {
		t.Fatalf("oi-raid 4-failure loss fraction = %v, want in (0,1)", frac)
	}
}

// TestOIRAIDSingleFailureUsesAllDisks checks the headline recovery claim:
// rebuilding one disk reads from every survivor, each contributing exactly
// slots/r strips (perfect balance), in one sequential run each.
func TestOIRAIDSingleFailureUsesAllDisks(t *testing.T) {
	for _, v := range []int{9, 15, 16, 25} {
		a := oiAnalyzer(t, v)
		oi := a.Scheme().(*layout.OIRAID)
		r := oi.Design().R()
		for _, failed := range []int{0, v / 2, v - 1} {
			plan := a.Plan([]int{failed}, PlanOptions{})
			if !plan.Complete {
				t.Fatalf("v=%d: single-failure plan incomplete", v)
			}
			if plan.Phases != 1 {
				t.Fatalf("v=%d: single failure needed %d phases, want 1", v, plan.Phases)
			}
			min, max := plan.ReadBalance()
			want := a.SlotsPerDisk() / r
			if min != want || max != want {
				t.Fatalf("v=%d failed=%d: read balance [%d,%d], want exactly %d strips/survivor",
					v, failed, min, max, want)
			}
			// Sequentiality: each survivor reads exactly one contiguous run
			// (its shared partition with the failed disk).
			for d, runs := range plan.ReadRuns {
				if d == failed {
					continue
				}
				if len(runs) != 1 {
					t.Fatalf("v=%d failed=%d: disk %d reads %d runs, want 1 (%v)",
						v, failed, d, len(runs), runs)
				}
				if runs[0][1] != want {
					t.Fatalf("v=%d failed=%d: disk %d run length %d, want %d",
						v, failed, d, runs[0][1], want)
				}
			}
		}
	}
}

// TestRAID5SingleFailurePlan: the baseline reads every survivor fully.
func TestRAID5SingleFailurePlan(t *testing.T) {
	a := raid5Analyzer(t, 6)
	plan := a.Plan([]int{2}, PlanOptions{})
	if !plan.Complete {
		t.Fatal("raid5 single-failure plan incomplete")
	}
	min, max := plan.ReadBalance()
	if min != a.SlotsPerDisk() || max != a.SlotsPerDisk() {
		t.Fatalf("raid5 survivors read [%d,%d] strips, want all %d", min, max, a.SlotsPerDisk())
	}
}

// TestParityDeclusterSingleFailurePlan: survivors read the declustering
// ratio α = (k-1)/(v-1) of a disk, scattered (many runs).
func TestParityDeclusterSingleFailurePlan(t *testing.T) {
	a := pdAnalyzer(t, 7, 3)
	plan := a.Plan([]int{0}, PlanOptions{})
	if !plan.Complete {
		t.Fatal("pd plan incomplete")
	}
	want := a.SlotsPerDisk() * 2 / 6 // α = (k-1)/(v-1) = 2/6 of 9 slots = 3
	min, max := plan.ReadBalance()
	if min != want || max != want {
		t.Fatalf("pd read balance [%d,%d], want %d", min, max, want)
	}
}

// TestS2RAIDSingleFailurePlan: each survivor reads at most 1/g of a disk.
func TestS2RAIDSingleFailurePlan(t *testing.T) {
	a := s2Analyzer(t, 5, 4)
	plan := a.Plan([]int{7}, PlanOptions{})
	if !plan.Complete {
		t.Fatal("s2 plan incomplete")
	}
	if plan.MaxReadStrips() > 1 {
		t.Fatalf("s2 max read = %d strips, want ≤ 1 (1/g of %d slots)",
			plan.MaxReadStrips(), a.SlotsPerDisk())
	}
}

// TestOIRAIDDoubleFailureSameGroupUsesOuter: two failures sharing a group
// force outer-layer repairs; the plan must complete.
func TestOIRAIDDoubleFailures(t *testing.T) {
	a := oiAnalyzer(t, 9)
	for d1 := 0; d1 < 9; d1++ {
		for d2 := d1 + 1; d2 < 9; d2++ {
			plan := a.Plan([]int{d1, d2}, PlanOptions{})
			if !plan.Complete {
				t.Fatalf("double failure (%d,%d) unrecoverable: %v", d1, d2, plan.Unrecovered)
			}
			if plan.WriteStrips != 2*a.SlotsPerDisk() {
				t.Fatalf("double failure (%d,%d): %d writes, want %d",
					d1, d2, plan.WriteStrips, 2*a.SlotsPerDisk())
			}
		}
	}
}

// TestOIRAIDTripleFailurePlansComplete: every triple failure yields a
// complete multi-phase plan whose tasks read only valid sources.
func TestOIRAIDTripleFailurePlans(t *testing.T) {
	a := oiAnalyzer(t, 9)
	outerUsed := false
	for d1 := 0; d1 < 9; d1++ {
		for d2 := d1 + 1; d2 < 9; d2++ {
			for d3 := d2 + 1; d3 < 9; d3++ {
				plan := a.Plan([]int{d1, d2, d3}, PlanOptions{})
				if !plan.Complete {
					t.Fatalf("triple failure (%d,%d,%d) unrecoverable", d1, d2, d3)
				}
				validatePlan(t, a, plan)
				for _, task := range plan.Tasks {
					if task.Layer == layout.LayerOuter {
						outerUsed = true
					}
				}
			}
		}
	}
	if !outerUsed {
		t.Fatal("no triple-failure plan used the outer layer; two-layer structure untested")
	}
}

// validatePlan checks plan internal consistency: every task reads sources
// that are alive or recovered in an earlier phase, targets every lost
// strip but the Unrecovered ones exactly once, reads exactly Data sources
// per task, and marks each source's and names each target's member position
// within the repairing stripe. For every strip it then checks the sub-plan
// For extracts: none for a strip the plan does not rebuild, otherwise tasks
// in ascending order whose every read is alive or a target of an earlier
// returned task, the last of them targeting the strip.
func validatePlan(t *testing.T, a *Analyzer, plan *Plan) {
	t.Helper()
	failedSet := make(map[int]bool)
	for _, d := range plan.Failed {
		failedSet[d] = true
	}
	recoveredAt := make(map[layout.Strip]int)
	targeted := make(map[layout.Strip]bool)
	for _, task := range plan.Tasks {
		stripe := a.Scheme().Stripes()[task.Via]
		if len(task.Reads) != stripe.Data {
			t.Fatalf("task via %d reads %d sources, want %d", task.Via, len(task.Reads), stripe.Data)
		}
		if len(task.Present) != len(stripe.Strips) || len(task.TargetPos) != len(task.Targets) {
			t.Fatalf("task via %d: mask of %d for %d members, %d positions for %d targets",
				task.Via, len(task.Present), len(stripe.Strips), len(task.TargetPos), len(task.Targets))
		}
		marked := 0
		for pos, st := range stripe.Strips {
			if task.Present[pos] {
				marked++
				found := false
				for _, src := range task.Reads {
					found = found || src == st
				}
				if !found {
					t.Fatalf("task via %d: mask marks %v, which is not a source", task.Via, st)
				}
			}
		}
		if marked != len(task.Reads) {
			t.Fatalf("task via %d: mask marks %d members for %d sources", task.Via, marked, len(task.Reads))
		}
		for _, src := range task.Reads {
			if failedSet[src.Disk] {
				ph, ok := recoveredAt[src]
				if !ok || ph >= task.Phase {
					t.Fatalf("task (phase %d) reads %v which is failed and not yet recovered", task.Phase, src)
				}
			}
		}
		for i, tgt := range task.Targets {
			if stripe.Strips[task.TargetPos[i]] != tgt {
				t.Fatalf("task via %d: target %v is not member %d", task.Via, tgt, task.TargetPos[i])
			}
			if targeted[tgt] {
				t.Fatalf("strip %v targeted twice", tgt)
			}
			targeted[tgt] = true
			recoveredAt[tgt] = task.Phase
			if !failedSet[tgt.Disk] {
				t.Fatalf("target %v is not on a failed disk", tgt)
			}
		}
	}
	for _, st := range plan.Unrecovered {
		if targeted[st] {
			t.Fatalf("strip %v both targeted and unrecovered", st)
		}
	}
	want := len(plan.Failed)*a.SlotsPerDisk() - len(plan.Unrecovered)
	if len(targeted) != want {
		t.Fatalf("plan targeted %d strips, want %d", len(targeted), want)
	}
	if plan.Complete != (len(plan.Unrecovered) == 0) {
		t.Fatalf("Complete=%v with %d unrecovered strips", plan.Complete, len(plan.Unrecovered))
	}
	for d := 0; d < a.Disks(); d++ {
		for slot := 0; slot < a.SlotsPerDisk(); slot++ {
			st := layout.Strip{Disk: d, Slot: slot}
			need := plan.For(st)
			if !targeted[st] {
				if len(need) != 0 {
					t.Fatalf("For(%v) = %v for a strip the plan does not rebuild", st, need)
				}
				continue
			}
			if len(need) == 0 || !sort.IntsAreSorted(need) {
				t.Fatalf("For(%v) = %v, want a non-empty ascending list", st, need)
			}
			held := make(map[layout.Strip]bool)
			for _, ti := range need {
				for _, src := range plan.Tasks[ti].Reads {
					if failedSet[src.Disk] && !held[src] {
						t.Fatalf("For(%v) = %v: task %d reads %v, which no earlier returned task rebuilds", st, need, ti, src)
					}
				}
				for _, tgt := range plan.Tasks[ti].Targets {
					held[tgt] = true
				}
			}
			last := plan.Tasks[need[len(need)-1]]
			if !slices.Contains(last.Targets, st) {
				t.Fatalf("For(%v) = %v does not end in the task that rebuilds it", st, need)
			}
		}
	}
}

// TestPeelPlanAvailabilityAgree: the queue peel (Recoverable, Availability)
// and the phase planner (Plan) reach the same fixed point — same verdict,
// same residual — and every plan, complete or not, passes validatePlan,
// which checks the sub-plan For extracts for each strip.
func TestPeelPlanAvailabilityAgree(t *testing.T) {
	check := func(a *Analyzer, failed []int) {
		t.Helper()
		plan := a.Plan(failed, PlanOptions{})
		av := a.Availability(failed)
		if rec := a.Recoverable(failed); plan.Complete != rec || av.Recoverable != rec {
			t.Fatalf("v=%d %v: Plan.Complete=%v Availability.Recoverable=%v Recoverable=%v",
				a.Disks(), failed, plan.Complete, av.Recoverable, rec)
		}
		unrecovered := append([]layout.Strip(nil), plan.Unrecovered...)
		sort.Slice(unrecovered, func(i, j int) bool { return a.stripID(unrecovered[i]) < a.stripID(unrecovered[j]) })
		if !slices.Equal(unrecovered, av.Lost) {
			t.Fatalf("v=%d %v: Plan.Unrecovered %v, Availability.Lost %v", a.Disks(), failed, unrecovered, av.Lost)
		}
		validatePlan(t, a, plan)
	}
	a9 := oiAnalyzer(t, 9)
	for size := 1; size <= 4; size++ {
		combinations(9, size, func(p []int) { check(a9, p) })
	}
	rng := rand.New(rand.NewSource(20))
	for _, v := range []int{16, 25} {
		a := oiAnalyzer(t, v)
		for trial := 0; trial < 200; trial++ {
			check(a, rng.Perm(v)[:3+trial%2])
		}
	}
}

// TestUpdateCostPerScheme pins the small-write amplification: RAID5 = 2
// strip writes, RAID6 = 3, OI-RAID = 4 for every data strip.
func TestUpdateCostPerScheme(t *testing.T) {
	tests := []struct {
		name string
		a    *Analyzer
		want int
	}{
		{"raid5", raid5Analyzer(t, 6), 2},
		{"raid6", raid6Analyzer(t, 6), 3},
		{"oi-raid-9", oiAnalyzer(t, 9), 4},
		{"oi-raid-16", oiAnalyzer(t, 16), 4},
		{"oi-raid-25", oiAnalyzer(t, 25), 4},
	}
	for _, tt := range tests {
		c := tt.a.UpdateCostSummary()
		if c.MinWrites != tt.want || c.MaxWrites != tt.want {
			t.Errorf("%s: update writes [%d,%d], want exactly %d",
				tt.name, c.MinWrites, c.MaxWrites, tt.want)
		}
		if math.Abs(c.MeanWrites-float64(tt.want)) > 1e-12 {
			t.Errorf("%s: mean update writes %v, want %d", tt.name, c.MeanWrites, tt.want)
		}
	}
}

// TestUpdateStripsStructure: for OI-RAID the 4 written strips are the data
// strip, one inner parity in its own group, one outer parity, and that
// parity's inner parity.
func TestUpdateStripsStructure(t *testing.T) {
	a := oiAnalyzer(t, 9)
	data := a.Scheme().DataStrips()
	for _, st := range data[:20] {
		ws := a.UpdateStrips(st)
		if len(ws) != 4 {
			t.Fatalf("update of %v writes %d strips, want 4", st, len(ws))
		}
		found := false
		for _, w := range ws {
			if w == st {
				found = true
			}
		}
		if !found {
			t.Fatalf("update of %v does not write the strip itself", st)
		}
	}
}

// TestDecodePath: the chosen stripe contains the target at Target, prefers
// the inner layer, falls back to the outer layer when the target's group
// lost a second disk, and Present marks exactly the other members on live
// disks.
func TestDecodePath(t *testing.T) {
	a := oiAnalyzer(t, 9)
	check := func(target layout.Strip, failed []int, layer layout.Layer) {
		t.Helper()
		alive := func(d int) bool {
			for _, f := range failed {
				if d == f {
					return false
				}
			}
			return true
		}
		info, ok := a.DecodePath(target, alive)
		if !ok {
			t.Fatalf("failed %v: no decode path for %v", failed, target)
		}
		stripe := a.Scheme().Stripes()[info.Stripe]
		if stripe.Layer != layer || info.Members[info.Target] != target {
			t.Fatalf("failed %v: %v decoded via %s stripe %d at member %d", failed, target, stripe.Layer, info.Stripe, info.Target)
		}
		live := 0
		for mi, st := range info.Members {
			want := mi != info.Target && alive(st.Disk)
			if info.Present[mi] != want {
				t.Fatalf("failed %v: mask %v wrong at member %d of %v", failed, info.Present, mi, info.Members)
			}
			if want {
				live++
			}
		}
		if live < stripe.Data {
			t.Fatalf("failed %v: %d live sources, need %d", failed, live, stripe.Data)
		}
	}
	for slot := 0; slot < a.SlotsPerDisk(); slot++ {
		check(layout.Strip{Disk: 0, Slot: slot}, []int{0}, layout.LayerInner)
	}
	// A data member of an inner stripe also sits in an outer stripe; fail a
	// second disk of its group and only that one decodes it.
	for _, stripe := range a.Scheme().Stripes() {
		if stripe.Layer == layout.LayerInner {
			check(stripe.Strips[0], []int{stripe.Strips[0].Disk, stripe.Strips[1].Disk}, layout.LayerOuter)
			break
		}
	}
	if _, ok := a.DecodePath(layout.Strip{}, func(int) bool { return false }); ok {
		t.Fatal("decode path through no live disk")
	}
}

func TestRecoverableTrivia(t *testing.T) {
	a := oiAnalyzer(t, 9)
	if !a.Recoverable(nil) {
		t.Fatal("no failures must be recoverable")
	}
	if !a.Recoverable([]int{3, 3}) {
		t.Fatal("duplicate disk ids must not double-count")
	}
	all := make([]int, 9)
	for i := range all {
		all[i] = i
	}
	if a.Recoverable(all) {
		t.Fatal("losing every disk must not be recoverable")
	}
}

func TestPlanEmptyFailure(t *testing.T) {
	a := oiAnalyzer(t, 9)
	plan := a.Plan(nil, PlanOptions{})
	if !plan.Complete || len(plan.Tasks) != 0 || plan.WriteStrips != 0 {
		t.Fatalf("empty failure plan wrong: %v", plan)
	}
}

func TestPlanIncompleteOnMassiveFailure(t *testing.T) {
	a := raid5Analyzer(t, 5)
	plan := a.Plan([]int{0, 1}, PlanOptions{})
	if plan.Complete {
		t.Fatal("raid5 double failure must be incomplete")
	}
	if len(plan.Unrecovered) == 0 {
		t.Fatal("incomplete plan must list unrecovered strips")
	}
}

func TestMeasureProperties(t *testing.T) {
	a := oiAnalyzer(t, 9)
	p := a.MeasureProperties(3)
	if p.GuaranteedTolerance != 3 {
		t.Errorf("tolerance = %d, want 3", p.GuaranteedTolerance)
	}
	if math.Abs(p.UpdateWrites-4) > 1e-12 {
		t.Errorf("update writes = %v, want 4", p.UpdateWrites)
	}
	r := 4.0 // (9-1)/(3-1)
	if math.Abs(p.RecoverySpeedup-r) > 1e-9 {
		t.Errorf("speedup = %v, want %v", p.RecoverySpeedup, r)
	}
	if math.Abs(p.RecoverySeqRuns-1) > 1e-12 {
		t.Errorf("seq runs = %v, want 1", p.RecoverySeqRuns)
	}
	if math.Abs(p.DataFraction-(2.0/3)*(2.0/3)) > 1e-12 {
		t.Errorf("data fraction = %v, want 4/9", p.DataFraction)
	}

	r5 := raid5Analyzer(t, 9).MeasureProperties(2)
	if r5.GuaranteedTolerance != 1 || math.Abs(r5.RecoverySpeedup-1) > 1e-9 {
		t.Errorf("raid5 properties wrong: %+v", r5)
	}
}

// TestEstimateUnrecoverableExactVsSampled: on a small array the sampled
// estimate must converge to the exact enumeration.
func TestEstimateUnrecoverableExactVsSampled(t *testing.T) {
	a := raid5Analyzer(t, 8)
	exact := a.EstimateUnrecoverable(2, 1<<20, nil) // exhaustive: C(8,2)=28
	if exact != 1.0 {
		t.Fatalf("raid5 2-failure loss fraction = %v, want 1.0", exact)
	}
	rng := rand.New(rand.NewSource(1))
	sampled := a.EstimateUnrecoverable(2, 5, rng) // forces sampling path? no: 28 > 5 → sampling
	if sampled != 1.0 {
		t.Fatalf("sampled fraction = %v, want 1.0", sampled)
	}
	if got := a.EstimateUnrecoverable(0, 10, rng); got != 0 {
		t.Fatalf("t=0 fraction = %v, want 0", got)
	}
	if got := a.EstimateUnrecoverable(8, 10, rng); got != 1 {
		t.Fatalf("t=n fraction = %v, want 1", got)
	}
}

func BenchmarkRecoverableOIRAID25Triple(b *testing.B) {
	a := oiAnalyzer(b, 25)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !a.Recoverable([]int{1, 7, 13}) {
			b.Fatal("should be recoverable")
		}
	}
}

func BenchmarkAvailabilityOIRAID25Triple(b *testing.B) {
	a := oiAnalyzer(b, 25)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !a.Availability([]int{1, 7, 13}).Recoverable {
			b.Fatal("should be recoverable")
		}
	}
}

func BenchmarkPlanOIRAID25Single(b *testing.B) {
	a := oiAnalyzer(b, 25)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan := a.Plan([]int{0}, PlanOptions{})
		if !plan.Complete {
			b.Fatal("plan incomplete")
		}
	}
}

// customScheme builds a layout.Custom of disks × 1 slot from stripes given
// as (data count, member disks...); every strip that is parity of no stripe
// is a data strip. It fails the test unless layout.Validate accepts it.
func customScheme(t *testing.T, disks int, stripes ...[]int) layout.Scheme {
	t.Helper()
	d := layout.Dump{Name: t.Name(), Disks: disks, SlotsPerDisk: 1}
	parity := make([]bool, disks)
	for _, s := range stripes {
		ds := layout.DumpStripe{Data: s[0]}
		for i, disk := range s[1:] {
			ds.Strips = append(ds.Strips, [2]int{disk, 0})
			parity[disk] = parity[disk] || i >= s[0]
		}
		d.Stripes = append(d.Stripes, ds)
	}
	for disk, p := range parity {
		if !p {
			d.DataStrips = append(d.DataStrips, [2]int{disk, 0})
		}
	}
	s, err := d.Scheme()
	if err != nil {
		t.Fatalf("layout.Validate refused the hand-built scheme: %v", err)
	}
	return s
}

// TestMalformedParityGraphRefused: a parity graph no small write can follow
// is refused where it enters, by NewAnalyzer, not by the first write. Both
// schemes pass layout.Validate.
func TestMalformedParityGraphRefused(t *testing.T) {
	// Two parities feeding each other: disk 2 is parity of {0,1} and data
	// of the stripe whose parity is disk 1.
	cyclic := customScheme(t, 3, []int{2, 0, 1, 2}, []int{1, 2, 1})
	if _, err := NewAnalyzer(cyclic); err == nil || !strings.Contains(err.Error(), "cyclic") {
		t.Fatalf("cyclic parity graph: NewAnalyzer = %v, want a refusal", err)
	}
	// A chain disk 0 → 1 → … → n, each strip the lone data member of the
	// stripe whose parity is the next: n parity levels.
	chain := func(n int) layout.Scheme {
		var stripes [][]int
		for d := 0; d < n; d++ {
			stripes = append(stripes, []int{1, d, d + 1})
		}
		return customScheme(t, n+1, stripes...)
	}
	if _, err := NewAnalyzer(chain(maxClosureDepth + 1)); err == nil {
		t.Fatalf("closure %d levels deep accepted", maxClosureDepth+1)
	}
	a, err := NewAnalyzer(chain(maxClosureDepth))
	if err != nil {
		t.Fatalf("closure %d levels deep refused: %v", maxClosureDepth, err)
	}
	plan := a.WritePlan(layout.Strip{})
	if len(plan.Strips) != maxClosureDepth+1 || len(plan.Steps) != maxClosureDepth {
		t.Fatalf("chain plan: %d strips / %d steps", len(plan.Strips), len(plan.Steps))
	}
	for i, st := range plan.Strips {
		if st.Disk != i {
			t.Fatalf("chain plan strips %v not in feed order", plan.Strips)
		}
	}
}

// TestWritePlanSharedParityOrder: when two closure strips are data members
// of one stripe, that stripe's parity absorbs both changes before its own
// step runs, and the stripe appears once in the lock set.
func TestWritePlanSharedParityOrder(t *testing.T) {
	// Disk 0 is data of stripes A={0,1|2} and B={0|1}: disk 1 is B's parity
	// and A's second data member, so A's parity (disk 2) is fed by both,
	// and itself feeds C={2|3}.
	s := customScheme(t, 4, []int{2, 0, 1, 2}, []int{1, 0, 1}, []int{1, 2, 3})
	a, err := NewAnalyzer(s)
	if err != nil {
		t.Fatal(err)
	}
	plan := a.WritePlan(layout.Strip{})
	want := []layout.Strip{{Disk: 0}, {Disk: 1}, {Disk: 2}, {Disk: 3}}
	if !reflect.DeepEqual(plan.Strips, want) {
		t.Fatalf("strips %v, want %v", plan.Strips, want)
	}
	if !reflect.DeepEqual(plan.Stripes, []int{0, 1, 2}) {
		t.Fatalf("stripes %v, want each once", plan.Stripes)
	}
	fed := make([]int, len(plan.Strips)) // updates absorbed so far
	need := []int{0, 1, 2, 1}            // updates each strip must absorb in all
	for _, step := range plan.Steps {
		if fed[step.Source] != need[step.Source] {
			t.Fatalf("step %+v runs before its source absorbed %d update(s)", step, need[step.Source])
		}
		for _, p := range step.Parity {
			fed[p]++
		}
	}
	if !reflect.DeepEqual(fed, need) {
		t.Fatalf("updates absorbed %v, want %v", fed, need)
	}
}
