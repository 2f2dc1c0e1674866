package store

import (
	"errors"
	"fmt"
	"testing"

	"github.com/oiraid/oiraid/internal/bibd"
	"github.com/oiraid/oiraid/internal/core"
	"github.com/oiraid/oiraid/internal/layout"
)

func TestFsckCleanArray(t *testing.T) {
	r := newMountRig(t, 9, 2)
	m := r.format(t)
	fillArray(t, m.Array, 21)
	rep, err := m.Array.Fsck(false)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean || rep.ChecksumErrors != 0 || rep.ParityErrors != 0 {
		t.Fatalf("clean array reported dirty: %+v", rep)
	}
	if rep.StripsChecked == 0 || rep.StripesChecked == 0 {
		t.Fatalf("fsck walked nothing: %+v", rep)
	}
}

func TestFsckFindsAndRepairsCorruptStrip(t *testing.T) {
	r := newMountRig(t, 9, 2)
	m := r.format(t)
	want := fillArray(t, m.Array, 22)

	// Corrupt the media under one known data strip.
	disk, devStrip := m.Array.locate(5)
	flipStrip(t, r.devs[disk], devStrip, 0x5a)

	rep, err := m.Array.Fsck(false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean {
		t.Fatal("fsck missed a corrupt strip")
	}
	if rep.ChecksumErrors != 1 {
		t.Fatalf("checksum errors %d, want 1", rep.ChecksumErrors)
	}
	// The report names the exact strip.
	found := false
	for _, is := range rep.Issues {
		if is.Kind == "checksum" {
			slots := int64(m.Array.Analyzer().SlotsPerDisk())
			if is.Disk != disk || is.Cycle != devStrip/slots || int64(is.Slot) != devStrip%slots {
				t.Fatalf("issue at (%d,%d,%d), want disk %d strip %d: %s",
					is.Disk, is.Cycle, is.Slot, disk, devStrip, is)
			}
			if is.Repaired {
				t.Fatal("check-only pass claims repair")
			}
			found = true
		}
	}
	if !found {
		t.Fatalf("no checksum issue in report: %+v", rep.Issues)
	}

	rep, err = m.Array.Fsck(true)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean || rep.Repaired == 0 {
		t.Fatalf("repair pass left damage: %+v", rep)
	}
	rep, err = m.Array.Fsck(false)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean {
		t.Fatalf("array dirty after repair: %+v", rep)
	}
	if got := hashArray(t, m.Array); got != want {
		t.Fatal("content wrong after fsck repair")
	}
}

// TestFsckFindsParityOnlyDamage writes garbage through the array's write
// steps over a parity strip: the checksum is valid (the write recorded it),
// so only the parity walk can notice.
func TestFsckFindsParityOnlyDamage(t *testing.T) {
	r := newMountRig(t, 9, 2)
	m := r.format(t)
	want := fillArray(t, m.Array, 23)

	// Find an inner-layer stripe and clobber its parity strip through the
	// write steps, so the bad content gets a matching checksum.
	var target layout.Strip
	var stripeIdx int
	for si, stripe := range m.Array.Analyzer().Scheme().Stripes() {
		if stripe.Layer == layout.LayerInner {
			target = stripe.Strips[len(stripe.Strips)-1]
			stripeIdx = si
			break
		}
	}
	garbage := make([]byte, testStrip)
	for i := range garbage {
		garbage[i] = 0xee
	}
	writeMember(t, m.Array, target.Disk, int64(target.Slot), garbage)

	rep, err := m.Array.Fsck(false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ChecksumErrors != 0 {
		t.Fatalf("checksum errors %d for parity-only damage", rep.ChecksumErrors)
	}
	if rep.ParityErrors == 0 {
		t.Fatalf("parity walk missed the damage: %+v", rep)
	}
	found := false
	for _, is := range rep.Issues {
		if is.Kind == "parity" && is.Cycle == 0 && is.Stripe == stripeIdx {
			found = true
		}
	}
	if !found {
		t.Fatalf("report does not name stripe %d: %+v", stripeIdx, rep.Issues)
	}

	rep, err = m.Array.Fsck(true)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean {
		t.Fatalf("repair pass left damage: %+v", rep)
	}
	rep, err = m.Array.Fsck(false)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean {
		t.Fatalf("array dirty after parity repair: %+v", rep)
	}
	if got := hashArray(t, m.Array); got != want {
		t.Fatal("content wrong after parity repair")
	}
}

func TestFsckRefusesDegraded(t *testing.T) {
	r := newMountRig(t, 9, 2)
	m := r.format(t)
	if err := m.Array.FailDisk(1); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Array.Fsck(false); !errors.Is(err, ErrDiskFaulty) {
		t.Fatalf("err %v, want ErrDiskFaulty", err)
	}
}

// TestFsckReadsLikeScrub: fsck is the scrub's per-cycle check. On a clean
// two-cycle array a check-only fsck makes exactly the device reads of one
// scrub pass — every stripe's members once. A corrupt strip that sits in two
// stripes is reported once, and healed only when repair is set.
func TestFsckReadsLikeScrub(t *testing.T) {
	for _, tc := range []struct {
		v     int
		reads int64
	}{{9, 1080}, {16, 4480}, {25, 13500}} {
		t.Run(fmt.Sprint("v=", tc.v), func(t *testing.T) {
			arr, err := NewMemArray(oiAnalyzer(t, tc.v), 2, testStrip)
			if err != nil {
				t.Fatal(err)
			}
			fillArray(t, journaled(t, arr), int64(tc.v))
			arr.ResetStats()
			if rep, err := arr.Fsck(false); err != nil || !rep.Clean {
				t.Fatalf("fsck: %+v, %v", rep, err)
			}
			fsckReads := arr.Stats().ReadOps
			arr.ResetStats()
			if bad, err := arr.Scrub(); err != nil || bad != 0 {
				t.Fatalf("scrub: %d bad, %v", bad, err)
			}
			if scrubReads := arr.Stats().ReadOps; fsckReads != tc.reads || scrubReads != tc.reads {
				t.Fatalf("fsck made %d device reads and a scrub pass %d, want %d each", fsckReads, scrubReads, tc.reads)
			}
		})
	}

	d, err := bibd.ForArray(9)
	if err != nil {
		t.Fatal(err)
	}
	pi2, err := layout.NewOIRAID(d, layout.WithInnerParity(2), layout.WithOuterParity(1))
	for _, an := range []*core.Analyzer{oiAnalyzer(t, 16), analyzerFor(t, pi2, err)} {
		t.Run(an.Scheme().Name(), func(t *testing.T) {
			arr, err := NewMemArray(an, 2, testStrip)
			if err != nil {
				t.Fatal(err)
			}
			want := fillArray(t, journaled(t, arr), 31)
			// A strip of cycle 1 that two stripes hold.
			holders := map[layout.Strip]int{}
			var victim layout.Strip
			for _, stripe := range an.Scheme().Stripes() {
				for _, st := range stripe.Strips {
					if holders[st]++; holders[st] == 2 {
						victim = st
					}
				}
			}
			if holders[victim] != 2 {
				t.Fatal("no strip sits in two stripes")
			}
			idx := int64(an.SlotsPerDisk() + victim.Slot)
			flipStrip(t, arr.devs[victim.Disk], idx, 0x5a)
			healed := func() bool {
				buf := make([]byte, testStrip)
				if err := arr.devs[victim.Disk].ReadStrip(idx, buf); err != nil {
					t.Fatal(err)
				}
				return arr.journal.verifySum(victim.Disk, idx, buf) == nil
			}

			for _, repair := range []bool{false, true} {
				rep, err := arr.Fsck(repair)
				if err != nil {
					t.Fatal(err)
				}
				var named []FsckIssue
				for _, is := range rep.Issues {
					if is.Kind == "checksum" {
						named = append(named, is)
					}
				}
				is := FsckIssue{Kind: "checksum", Cycle: 1, Disk: victim.Disk, Slot: victim.Slot, Repaired: repair}
				if rep.ChecksumErrors != 1 || len(named) != 1 || named[0] != is {
					t.Fatalf("repair %v: %d checksum errors, issues %v; want one, %s", repair, rep.ChecksumErrors, named, is)
				}
				if rep.Clean != repair || healed() != repair {
					t.Fatalf("repair %v: report clean %v, strip healed %v", repair, rep.Clean, healed())
				}
			}
			if rep, err := arr.Fsck(false); err != nil || !rep.Clean {
				t.Fatalf("fsck after the repair: %+v, %v", rep, err)
			}
			if got := hashArray(t, arr); got != want {
				t.Fatal("content wrong after fsck repair")
			}
		})
	}
}

// BenchmarkFsck is a check-only fsck of a clean, journaled two-cycle v = 9
// array of 4 KiB strips; reads/op is its device reads per pass.
func BenchmarkFsck(b *testing.B) {
	arr := journaledArray(b, 4<<10)
	fillArray(b, arr, 3)
	arr.ResetStats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rep, err := arr.Fsck(false); err != nil || !rep.Clean {
			b.Fatalf("fsck: %+v, %v", rep, err)
		}
	}
	b.ReportMetric(float64(arr.Stats().ReadOps)/float64(b.N), "reads/op")
}
