package store

import (
	"errors"
	"testing"

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
