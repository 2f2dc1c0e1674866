package store

import (
	"bytes"
	"errors"
	"testing"
)

// TestReadAvoidReconstructs: a read-avoided disk serves no reads — the
// array decodes around it, bit-identical — while writes keep landing on
// it, so clearing the avoid needs no rebuild.
func TestReadAvoidReconstructs(t *testing.T) {
	arr, _ := newChecksummedArray(t, 9)
	fillArray(t, arr, 33)
	strips := arr.Capacity() / int64(arr.StripBytes())
	oracle := make([][]byte, strips)
	for i := int64(0); i < strips; i++ {
		oracle[i] = make([]byte, arr.StripBytes())
		if _, err := arr.ReadAt(oracle[i], i*int64(arr.StripBytes())); err != nil {
			t.Fatal(err)
		}
	}

	victim := arr.DataStripDisk(0)
	if err := arr.SetReadAvoid(victim, ReadSlow); err != nil {
		t.Fatal(err)
	}
	if got := arr.ReadAvoided(); len(got) != 1 || got[0] != victim {
		t.Fatalf("ReadAvoided() = %v, want [%d]", got, victim)
	}

	arr.ResetStats()
	buf := make([]byte, arr.StripBytes())
	for i := int64(0); i < strips; i++ {
		if _, err := arr.ReadAt(buf, i*int64(arr.StripBytes())); err != nil {
			t.Fatalf("read strip %d with avoid: %v", i, err)
		}
		if !bytes.Equal(buf, oracle[i]) {
			t.Fatalf("strip %d differs from oracle under read-avoid", i)
		}
	}
	if st := arr.Stats(); st.AvoidedReads == 0 {
		t.Fatalf("no avoided reads recorded: %+v", st)
	}

	// Writes ignore the avoid mark: update a strip on the victim, clear the
	// avoid, and the direct read must see the new contents.
	fresh := bytes.Repeat([]byte{0xA7}, arr.StripBytes())
	if _, err := arr.WriteAt(fresh, 0); err != nil {
		t.Fatal(err)
	}
	if err := arr.SetReadAvoid(victim, ReadDirect); err != nil {
		t.Fatal(err)
	}
	if len(arr.ReadAvoided()) != 0 {
		t.Fatalf("avoid set not cleared: %v", arr.ReadAvoided())
	}
	if _, err := arr.ReadAt(buf, 0); err != nil || !bytes.Equal(buf, fresh) {
		t.Fatalf("write under avoid did not land: %v", err)
	}
}

// TestReadAvoidAdvisory: the slow mark is advisory — when decoding
// around the avoided disks is impossible (here: all disks avoided),
// reads fall back to the direct path instead of failing.
func TestReadAvoidAdvisory(t *testing.T) {
	arr, _ := newChecksummedArray(t, 9)
	fillArray(t, arr, 34)
	for d := 0; d < len(arr.devs); d++ {
		if err := arr.SetReadAvoid(d, ReadSlow); err != nil {
			t.Fatal(err)
		}
	}
	buf := make([]byte, arr.StripBytes())
	if _, err := arr.ReadAt(buf, 0); err != nil {
		t.Fatalf("read with every disk avoided must fall through: %v", err)
	}
}

// TestReadAvoidValidation: out-of-range disks are rejected.
func TestReadAvoidValidation(t *testing.T) {
	arr, _ := newChecksummedArray(t, 9)
	if err := arr.SetReadAvoid(-1, ReadSlow); !errors.Is(err, ErrNoSuchDisk) {
		t.Fatalf("want ErrNoSuchDisk, got %v", err)
	}
	if err := arr.SetReadAvoid(len(arr.devs), ReadSlow); !errors.Is(err, ErrNoSuchDisk) {
		t.Fatalf("want ErrNoSuchDisk, got %v", err)
	}
}
