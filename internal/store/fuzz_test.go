package store

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzArrayIO: arbitrary offsets/sizes must never panic or corrupt
// neighbouring bytes; successful writes must read back exactly.
func FuzzArrayIO(f *testing.F) {
	f.Add(int64(0), 10, int64(5), 20)
	f.Add(int64(-1), 3, int64(1<<40), 1)
	f.Add(int64(511), 514, int64(0), 0)
	f.Fuzz(func(t *testing.T, wOff int64, wLen int, rOff int64, rLen int) {
		if wLen < 0 || wLen > 1<<16 || rLen < 0 || rLen > 1<<16 {
			return
		}
		arr := newOIArray(t, 9)
		if _, err := arr.WriteAt(make([]byte, arr.Capacity()), 0); err != nil {
			t.Fatal(err)
		}
		payload := bytes.Repeat([]byte{0xA5}, wLen)
		n, err := arr.WriteAt(payload, wOff)
		if err == nil && wOff >= 0 && wOff+int64(wLen) <= arr.Capacity() {
			if n != wLen {
				t.Fatalf("short write %d of %d without error", n, wLen)
			}
			back := make([]byte, wLen)
			if _, err := arr.ReadAt(back, wOff); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(back, payload) {
				t.Fatal("read-back mismatch")
			}
			// Neighbouring byte untouched.
			if wOff > 0 {
				b := make([]byte, 1)
				if _, err := arr.ReadAt(b, wOff-1); err != nil {
					t.Fatal(err)
				}
				if b[0] != 0 {
					t.Fatal("write spilled onto preceding byte")
				}
			}
		}
		buf := make([]byte, rLen)
		if _, err := arr.ReadAt(buf, rOff); err != nil {
			return // out-of-range errors are fine; panics are not
		}
	})
}

// FuzzSuperblockDecode: arbitrary superblock media must never panic and
// never decode into out-of-bounds geometry — a corrupt slot is rejected
// with ErrNoSuperblock, not mounted.
func FuzzSuperblockDecode(f *testing.F) {
	valid, err := testSuper(3).encodeSlot()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(append(append([]byte(nil), valid...), valid...))
	f.Add([]byte("OIRDSBv1 but far too short"))
	f.Add(make([]byte, 2*SuperblockBytes))
	f.Fuzz(func(t *testing.T, data []byte) {
		sb, err := DecodeSuperblock(data)
		if err == nil {
			if sb.Disks <= 0 || sb.Disks > superMaxDisks || sb.SlotsPerDisk <= 0 {
				t.Fatalf("decoded out-of-bounds geometry: %+v", sb)
			}
			for _, d := range sb.Failed {
				if d < 0 || d >= sb.Disks {
					t.Fatalf("decoded failed disk %d of %d", d, sb.Disks)
				}
			}
			if sb.RebuiltCycles < 0 || sb.RebuiltCycles > sb.Cycles ||
				sb.ScrubCursor < 0 || sb.ScrubCursor > sb.Cycles {
				t.Fatalf("decoded out-of-bounds cursors: %+v", sb)
			}
		}
		if sb2, err := LoadSuperblock(NewMemBlobBytes(data)); err == nil {
			if sb2.Disks <= 0 || sb2.Disks > superMaxDisks {
				t.Fatalf("loaded out-of-bounds geometry: %+v", sb2)
			}
		}
	})
}

// FuzzJournalReplay: arbitrary journal media must never panic and never
// silently replay out-of-bounds state — a valid header with undecodable
// frames is ErrJournalCorrupt, a torn tail stops replay cleanly.
func FuzzJournalReplay(f *testing.F) {
	b0, b1 := NewMemBlob(), NewMemBlob()
	j, err := OpenMetaJournal(b0, b1)
	if err != nil {
		f.Fatal(err)
	}
	if err := j.Bind(4); err != nil {
		f.Fatal(err)
	}
	if err := j.RecordSum(1, 2, 3); err != nil {
		f.Fatal(err)
	}
	if err := j.RecordClosure(0, []StripUpdate{{Disk: 0, Slot: 1, Data: []byte("seed")}}); err != nil {
		f.Fatal(err)
	}
	if err := j.RecordTransition(TransEvict, 2, 5); err != nil {
		f.Fatal(err)
	}
	f.Add(b0.Bytes(), b1.Bytes(), uint8(4))
	f.Add([]byte{}, []byte{}, uint8(1))
	f.Add([]byte("OIRDJNL1 short"), []byte{}, uint8(9))
	// The bare 9-byte clear frame (cycle, no strip-id list) of early
	// journals is not a format any more: hard corruption, not a wildcard.
	bare, clear := openFrame(appendSnapEndFrame(journalHeader(1)), 1+8)
	clear[0] = recClear
	bare = sealFrame(bare, clear)
	if _, err := OpenMetaJournal(NewMemBlobBytes(bare), NewMemBlob()); !errors.Is(err, ErrJournalCorrupt) {
		f.Fatalf("bare clear frame: err %v, want ErrJournalCorrupt", err)
	}
	f.Add(bare, []byte{}, uint8(4))
	f.Fuzz(func(t *testing.T, d0, d1 []byte, disks uint8) {
		n := int(disks%16) + 1
		j, err := OpenMetaJournal(NewMemBlobBytes(d0), NewMemBlobBytes(d1))
		if err == nil {
			err = j.Bind(n)
		}
		if err != nil {
			return // refusing corrupt or foreign media is correct; panicking is not
		}
		for d := 0; d < n; d++ {
			for strip := range j.Sums(d) {
				if strip < 0 {
					t.Fatalf("replayed negative strip %d", strip)
				}
			}
		}
		pcs, err := j.PendingClosures()
		if err != nil {
			t.Fatal(err)
		}
		for _, pc := range pcs {
			for _, su := range pc.Strips {
				if su.Disk < 0 || su.Disk >= n || su.Slot < 0 {
					t.Fatalf("replayed out-of-bounds closure strip (%d,%d)", su.Disk, su.Slot)
				}
			}
		}
		for _, tr := range j.Transitions() {
			if tr.Disk < 0 || tr.Disk >= n {
				t.Fatalf("replayed out-of-bounds transition disk %d", tr.Disk)
			}
		}
	})
}
