package engine

import (
	"bytes"
	"errors"
	"testing"

	"github.com/oiraid/oiraid/internal/store"
)

// lossyPattern is a beyond-tolerance 4-failure pattern with undecodable
// data strips on the v=9 layout (see the census in core's
// TestAvailabilityQuadPatterns).
var lossyPattern = []int{0, 1, 3, 4}

// TestModeLatticeOnDownDisks walks the serving-mode lattice purely on
// path-down signals: normal → degraded-rw on the first down disk,
// partial-read once the down set is beyond tolerance, and back down to
// normal as paths return — with the write fence engaging and lifting at
// exactly the read-only boundary.
func TestModeLatticeOnDownDisks(t *testing.T) {
	e, _ := newChaosEngine(t, 9, 2, Options{Workers: 2})
	if m := e.Mode(); m != ModeNormal {
		t.Fatalf("fresh engine mode %v, want normal", m)
	}

	oracle := make(map[int64][]byte)
	for addr := int64(0); addr < e.Strips(); addr++ {
		p := chaosPattern(e.StripBytes(), addr, 0)
		if err := e.WriteStrip(addr, p); err != nil {
			t.Fatalf("seed write %d: %v", addr, err)
		}
		oracle[addr] = p
	}

	// One down path: degraded-rw, writes still flow.
	if err := e.SetDiskDown(2, true); err != nil {
		t.Fatal(err)
	}
	if m := e.Mode(); m != ModeDegraded {
		t.Fatalf("one down disk: mode %v, want degraded-rw", m)
	}
	if err := e.WriteStrip(0, oracle[0]); err != nil {
		t.Fatalf("degraded-rw write: %v", err)
	}
	if err := e.SetDiskDown(2, false); err != nil {
		t.Fatal(err)
	}

	// Down a lossy beyond-tolerance set: partial-read, writes fenced.
	for _, d := range lossyPattern {
		if err := e.SetDiskDown(d, true); err != nil {
			t.Fatal(err)
		}
	}
	if m := e.Mode(); m != ModePartial {
		t.Fatalf("lossy down set: mode %v, want partial-read", m)
	}
	if got := e.DownDisks(); len(got) != len(lossyPattern) {
		t.Fatalf("DownDisks %v, want %v", got, lossyPattern)
	}
	fencedBefore := e.Stats().WritesFenced
	if err := e.WriteStrip(0, oracle[0]); !errors.Is(err, store.ErrReadOnly) {
		t.Fatalf("fenced write: %v, want ErrReadOnly", err)
	}
	if got := e.Stats().WritesFenced; got != fencedBefore+1 {
		t.Fatalf("WritesFenced %d, want %d", got, fencedBefore+1)
	}
	// Reads keep flowing from the survivors: a strip that decodes around
	// the down set reads back, and one that does not is refused as
	// unreachable. A down disk is never read, though the devices behind
	// the paths still answer in this single-node harness.
	av := e.arr.Availability(lossyPattern)
	served, refused := 0, 0
	for addr, want := range oracle {
		st, _ := e.arr.LocateDataStrip(addr)
		got, err := e.ReadStrip(addr)
		if !av.StripAvailable(st) {
			if !errors.Is(err, store.ErrUnreachable) {
				t.Fatalf("read %d (%v) on a down disk while partial: %v, want ErrUnreachable", addr, st, err)
			}
			refused++
			continue
		}
		if err != nil {
			t.Fatalf("read %d while partial: %v", addr, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("strip %d differs while partial", addr)
		}
		served++
	}
	if served == 0 || refused == 0 {
		t.Fatalf("partial reads served %d refused %d, want both non-zero", served, refused)
	}

	st := e.Status()
	if st.Mode != "partial-read" {
		t.Fatalf("status mode %q, want partial-read", st.Mode)
	}
	if len(st.Down) != len(lossyPattern) {
		t.Fatalf("status down %v, want %v", st.Down, lossyPattern)
	}

	// Paths return one at a time: the mode climbs back to normal and the
	// fence lifts.
	for i, d := range lossyPattern {
		if err := e.SetDiskDown(d, false); err != nil {
			t.Fatal(err)
		}
		if i == len(lossyPattern)-1 {
			if m := e.Mode(); m != ModeNormal {
				t.Fatalf("all paths restored: mode %v, want normal", m)
			}
		} else if m := e.Mode(); !m.Writable() && e.an.Availability(e.DownDisks()).Recoverable {
			t.Fatalf("recoverable down set %v but mode %v still fenced", e.DownDisks(), m)
		}
	}
	if err := e.WriteStrip(0, oracle[0]); err != nil {
		t.Fatalf("write after full promotion: %v", err)
	}
	if ch := e.Stats().ModeChanges; ch < 4 {
		t.Fatalf("mode changes %d, want at least 4 transitions", ch)
	}
}

// TestModeOnFailedDisks drives the lattice through real failures: a
// beyond-tolerance failed set demotes to partial-read, decodable strips
// keep serving bit-exact, undecodable strips return ErrStripUnavailable
// and never data.
func TestModeOnFailedDisks(t *testing.T) {
	e, _ := newChaosEngine(t, 9, 2, Options{Workers: 2})
	oracle := make(map[int64][]byte)
	for addr := int64(0); addr < e.Strips(); addr++ {
		p := chaosPattern(e.StripBytes(), addr, 0)
		if err := e.WriteStrip(addr, p); err != nil {
			t.Fatalf("seed write %d: %v", addr, err)
		}
		oracle[addr] = p
	}
	for _, d := range lossyPattern {
		if err := e.FailDisk(d); err != nil {
			t.Fatalf("fail disk %d: %v", d, err)
		}
	}
	if m := e.Mode(); m != ModePartial {
		t.Fatalf("lossy failed set: mode %v, want partial-read", m)
	}
	av := e.arr.Availability(nil)
	served, refused := 0, 0
	for addr, want := range oracle {
		st, _ := e.arr.LocateDataStrip(addr)
		got, err := e.ReadStrip(addr)
		if av.StripAvailable(st) {
			if err != nil {
				t.Fatalf("decodable strip %d (%v): %v", addr, st, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("decodable strip %d differs from oracle", addr)
			}
			served++
		} else {
			if !errors.Is(err, store.ErrStripUnavailable) {
				t.Fatalf("undecodable strip %d: err %v, want ErrStripUnavailable", addr, err)
			}
			refused++
		}
	}
	if served == 0 || refused == 0 {
		t.Fatalf("served %d refused %d, want both non-zero", served, refused)
	}
	if err := e.WriteStrip(0, oracle[0]); !errors.Is(err, store.ErrReadOnly) {
		t.Fatalf("write while partial: %v, want ErrReadOnly", err)
	}
}

// TestForceModeFloor pins the cluster hook: a forced read-only floor
// fences a perfectly healthy array (lease suspended ≠ disks bad), the
// computed mode still wins when more degraded, and clearing the floor
// restores normal service.
func TestForceModeFloor(t *testing.T) {
	e, _ := newChaosEngine(t, 9, 2, Options{Workers: 2})
	p := chaosPattern(e.StripBytes(), 0, 0)
	if err := e.WriteStrip(0, p); err != nil {
		t.Fatal(err)
	}

	e.ForceMode(ModeReadOnly)
	if m := e.Mode(); m != ModeReadOnly {
		t.Fatalf("forced floor: mode %v, want read-only", m)
	}
	if err := e.WriteStrip(0, p); !errors.Is(err, store.ErrReadOnly) {
		t.Fatalf("write under floor: %v, want ErrReadOnly", err)
	}
	if got, err := e.ReadStrip(0); err != nil || !bytes.Equal(got, p) {
		t.Fatalf("read under floor: %v", err)
	}

	// A worse computed mode overrides the floor; restoring the paths
	// falls back to the floor, not to normal.
	for _, d := range lossyPattern {
		if err := e.SetDiskDown(d, true); err != nil {
			t.Fatal(err)
		}
	}
	if m := e.Mode(); m != ModePartial {
		t.Fatalf("lossy set under floor: mode %v, want partial-read", m)
	}
	for _, d := range lossyPattern {
		if err := e.SetDiskDown(d, false); err != nil {
			t.Fatal(err)
		}
	}
	if m := e.Mode(); m != ModeReadOnly {
		t.Fatalf("paths restored under floor: mode %v, want read-only", m)
	}

	e.ForceMode(ModeNormal)
	if m := e.Mode(); m != ModeNormal {
		t.Fatalf("floor cleared: mode %v, want normal", m)
	}
	if err := e.WriteStrip(0, p); err != nil {
		t.Fatalf("write after floor cleared: %v", err)
	}
}

// TestSetDiskDownValidation: bad indices error, repeated signals are
// idempotent and do not churn the mode counter.
func TestSetDiskDownValidation(t *testing.T) {
	e, _ := newChaosEngine(t, 9, 2, Options{Workers: 2})
	if err := e.SetDiskDown(-1, true); !errors.Is(err, store.ErrNoSuchDisk) {
		t.Fatalf("down(-1): %v", err)
	}
	if err := e.SetDiskDown(9, true); !errors.Is(err, store.ErrNoSuchDisk) {
		t.Fatalf("down(9): %v", err)
	}
	if err := e.SetDiskDown(1, true); err != nil {
		t.Fatal(err)
	}
	before := e.Stats().ModeChanges
	if err := e.SetDiskDown(1, true); err != nil {
		t.Fatal(err)
	}
	if got := e.Stats().ModeChanges; got != before {
		t.Fatalf("idempotent down churned the mode counter: %d -> %d", before, got)
	}
}
