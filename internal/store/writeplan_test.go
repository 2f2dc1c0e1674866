package store

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"github.com/oiraid/oiraid/internal/bibd"
	"github.com/oiraid/oiraid/internal/core"
	"github.com/oiraid/oiraid/internal/layout"
)

// shippedSchemes returns one analyzer per layout the library ships: OI-RAID
// on the three affine-plane geometries, its stronger-code variants, and the
// four baselines.
func shippedSchemes(t *testing.T) []*core.Analyzer {
	t.Helper()
	oi := func(v int, opts ...layout.OIRAIDOption) *core.Analyzer {
		d, err := bibd.ForArray(v)
		if err != nil {
			t.Fatal(err)
		}
		s, err := layout.NewOIRAID(d, opts...)
		return analyzerFor(t, s, err)
	}
	r5, err5 := layout.NewRAID5(6)
	r6, err6 := layout.NewRAID6(6)
	s2, errS2 := layout.NewS2RAID(3, 4)
	d, err := bibd.ForDeclustering(13, 3)
	if err != nil {
		t.Fatal(err)
	}
	pd, errPD := layout.NewParityDecluster(d)
	return []*core.Analyzer{
		oi(9), oi(16), oi(25),
		oi(9, layout.WithInnerParity(2)), oi(9, layout.WithOuterParity(2)),
		oi(16, layout.WithInnerParity(2), layout.WithOuterParity(2)),
		analyzerFor(t, r5, err5), analyzerFor(t, r6, err6),
		analyzerFor(t, pd, errPD), analyzerFor(t, s2, errS2),
	}
}

// closureByDefinition computes the parity closure of target straight from
// its definition, by fixpoint over all stripes: the least set holding target
// in which a stripe with a data member in the set has every parity in it.
func closureByDefinition(s layout.Scheme, target layout.Strip) map[layout.Strip]bool {
	set := map[layout.Strip]bool{target: true}
	for grew := true; grew; {
		grew = false
		for _, stripe := range s.Stripes() {
			hit := false
			for _, st := range stripe.Strips[:stripe.Data] {
				hit = hit || set[st]
			}
			for _, st := range stripe.Strips[stripe.Data:] {
				if hit && !set[st] {
					set[st], grew = true, true
				}
			}
		}
	}
	return set
}

// TestWritePlanProperty: on every shipped scheme the precomputed write plan
// names exactly the closure the definition gives, target first and every
// step's source ahead of the parities it feeds; and random small writes
// executed through the plan leave the content right and every stripe of
// both layers consistent.
func TestWritePlanProperty(t *testing.T) {
	for _, an := range shippedSchemes(t) {
		an := an
		t.Run(an.Scheme().Name(), func(t *testing.T) {
			sch := an.Scheme()
			data := sch.DataStrips()
			for _, target := range data {
				plan := an.WritePlan(target)
				want := closureByDefinition(sch, target)
				if plan.Strips[0] != target || len(plan.Strips) != len(want) {
					t.Fatalf("plan of %v: strips %v, closure by definition %v", target, plan.Strips, want)
				}
				for _, st := range plan.Strips {
					if !want[st] {
						t.Fatalf("plan of %v: strip %v outside the closure %v", target, st, want)
					}
					delete(want, st) // a duplicate fails the next lookup
				}
				for si, step := range plan.Steps {
					stripe := sch.Stripes()[step.Stripe]
					if stripe.Strips[step.DataPos] != plan.Strips[step.Source] || step.DataPos >= stripe.Data {
						t.Fatalf("plan of %v: step %+v misplaces its source", target, step)
					}
					for j, p := range step.Parity {
						if p <= step.Source || plan.Strips[p] != stripe.Strips[stripe.Data+j] {
							t.Fatalf("plan of %v: step %+v parity %d wrong or ahead of its source", target, step, j)
						}
						if feeds, once := rescanDeltaUse(plan.Steps, si, p); step.Feeds[j] != feeds || step.Once[j] != once {
							t.Fatalf("plan of %v: step %+v parity %d marked feeds %v once %v, a rescan says %v %v",
								target, step, j, step.Feeds[j], step.Once[j], feeds, once)
						}
					}
				}
			}

			arr, err := NewMemArray(an, 1, testStrip)
			if err != nil {
				t.Fatal(err)
			}
			model := make([]byte, arr.Capacity())
			rng := rand.New(rand.NewSource(int64(len(data))))
			for i := 0; i < 300; i++ {
				off := rng.Int63n(arr.Capacity())
				n := 1 + rng.Int63n(2*testStrip)
				if off+n > arr.Capacity() {
					n = arr.Capacity() - off
				}
				rng.Read(model[off : off+n])
				if _, err := arr.WriteAt(model[off:off+n], off); err != nil {
					t.Fatal(err)
				}
			}
			got := make([]byte, arr.Capacity())
			if _, err := arr.ReadAt(got, 0); err != nil || !bytes.Equal(got, model) {
				t.Fatalf("content differs from the model after small writes (err %v)", err)
			}
			if bad, err := arr.Scrub(); err != nil || bad != 0 {
				t.Fatalf("scrub after small writes: %d inconsistent stripes, err %v", bad, err)
			}
		})
	}
}

// rescanDeltaUse is the definition of a step's marks for closure strip i:
// whether a step after steps[done] folds i's change, and whether exactly one
// step updates i.
func rescanDeltaUse(steps []core.WriteStep, done, i int) (feeds, once bool) {
	updates := 0
	for si, step := range steps {
		feeds = feeds || si > done && step.Source == i
		if slices.Contains(step.Parity, i) {
			updates++
		}
	}
	return feeds, updates == 1
}

// TestWritePlanSharedParity: a layout in which one parity strip takes the
// change of the target through two members of its stripe. Strip D is in
// stripes {D|X} and {D|Y}, X and Y are the data of {X,Y|Q}, Q is the data
// of {Q|R}, and Y also of {Y|W}, whose step runs after Y's fold into Q: Q's
// delta is the sum ΔX ⊕ ΔY in a buffer of its own, and summing it must not
// disturb ΔY, which W still takes.
func TestWritePlanSharedParity(t *testing.T) {
	d := &layout.Dump{Name: "shared-parity", Disks: 6, SlotsPerDisk: 1,
		Stripes: []layout.DumpStripe{
			{Data: 1, Strips: [][2]int{{0, 0}, {1, 0}}},
			{Data: 1, Strips: [][2]int{{0, 0}, {2, 0}}},
			{Data: 2, Strips: [][2]int{{1, 0}, {2, 0}, {3, 0}}},
			{Data: 1, Strips: [][2]int{{3, 0}, {4, 0}}},
			{Data: 1, Strips: [][2]int{{2, 0}, {5, 0}}},
		},
		DataStrips: [][2]int{{0, 0}},
	}
	s, err := d.Scheme()
	an := analyzerFor(t, s, err)
	if steps := an.WritePlan(layout.Strip{}).Steps; len(steps) != 6 {
		t.Fatalf("plan has %d steps, want 6 (Q fed twice)", len(steps))
	}
	arr, err := NewMemArray(an, 2, testStrip)
	if err != nil {
		t.Fatal(err)
	}
	model := make([]byte, arr.Capacity())
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 20; i++ {
		off := rng.Int63n(arr.Capacity())
		n := 1 + rng.Int63n(arr.Capacity()-off)
		rng.Read(model[off : off+n])
		if _, err := arr.WriteAt(model[off:off+n], off); err != nil {
			t.Fatal(err)
		}
	}
	got := make([]byte, arr.Capacity())
	if _, err := arr.ReadAt(got, 0); err != nil || !bytes.Equal(got, model) {
		t.Fatalf("content differs from the model (err %v)", err)
	}
	if bad, err := arr.Scrub(); err != nil || bad != 0 {
		t.Fatalf("scrub: %d inconsistent stripes, err %v", bad, err)
	}
}
