package store

import (
	"bytes"
	"errors"
	"testing"
)

func openTestJournal(t *testing.T, b0, b1 Blob, disks int) *MetaJournal {
	t.Helper()
	j, err := OpenMetaJournal(b0, b1, disks)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

func TestJournalReplaysState(t *testing.T) {
	b0, b1 := NewMemBlob(), NewMemBlob()
	j := openTestJournal(t, b0, b1, 4)
	if err := j.RecordSum(2, 7, 0xdeadbeef); err != nil {
		t.Fatal(err)
	}
	if err := j.RecordClosure(1, []StripUpdate{
		{Disk: 0, Slot: 3, Data: []byte("abcd")},
		{Disk: 3, Slot: 5, Data: []byte("wxyz")},
	}); err != nil {
		t.Fatal(err)
	}
	if err := j.RecordTransition(TransEvict, 1, 9); err != nil {
		t.Fatal(err)
	}

	// Reopen over the same blobs: all three record kinds replay.
	j2 := openTestJournal(t, b0, b1, 4)
	if got := j2.Sums(2)[7]; got != 0xdeadbeef {
		t.Fatalf("sum %#x, want 0xdeadbeef", got)
	}
	pcs, err := j2.PendingClosures()
	if err != nil {
		t.Fatal(err)
	}
	if len(pcs) != 1 || pcs[0].Cycle != 1 || len(pcs[0].Strips) != 2 {
		t.Fatalf("pending closures %+v", pcs)
	}
	if pcs[0].Strips[1].Disk != 3 || !bytes.Equal(pcs[0].Strips[1].Data, []byte("wxyz")) {
		t.Fatalf("closure strip %+v", pcs[0].Strips[1])
	}
	trs := j2.Transitions()
	if len(trs) != 1 || trs[0].Kind != TransEvict || trs[0].Disk != 1 || trs[0].Generation != 9 {
		t.Fatalf("transitions %+v", trs)
	}

	// Clearing the closure leaves nothing pending after another reopen.
	if err := j2.ClearClosure(1, pcs[0].Strips); err != nil {
		t.Fatal(err)
	}
	if err := j2.Sync(); err != nil { // clears are lazily durable
		t.Fatal(err)
	}
	j3 := openTestJournal(t, b0, b1, 4)
	if p, _ := j3.PendingClosures(); len(p) != 0 {
		t.Fatalf("pending after clear: %+v", p)
	}
}

// TestJournalScopedClear pins the strip-set clear semantics: clearing with
// a strip set drops only records whose strip locations match exactly —
// the acked write's own record and stacked records of its failed earlier
// attempts — while records of other writes on the same cycle survive both
// in memory and across a reopen (the clear frame carries the set).
func TestJournalScopedClear(t *testing.T) {
	b0, b1 := NewMemBlob(), NewMemBlob()
	j := openTestJournal(t, b0, b1, 4)
	own := []StripUpdate{
		{Disk: 0, Slot: 1, Data: []byte("a1")},
		{Disk: 2, Slot: 3, Data: []byte("p1")},
	}
	ownRetry := []StripUpdate{ // same closure, newer content
		{Disk: 2, Slot: 3, Data: []byte("p2")},
		{Disk: 0, Slot: 1, Data: []byte("a2")},
	}
	foreign := []StripUpdate{
		{Disk: 1, Slot: 1, Data: []byte("b1")},
		{Disk: 2, Slot: 3, Data: []byte("q1")},
	}
	for _, strips := range [][]StripUpdate{own, ownRetry, foreign} {
		if err := j.RecordClosure(7, strips); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.ClearClosure(7, own); err != nil {
		t.Fatal(err)
	}
	pcs, err := j.PendingClosures()
	if err != nil {
		t.Fatal(err)
	}
	if len(pcs) != 1 || !bytes.Equal(pcs[0].Strips[0].Data, []byte("b1")) {
		t.Fatalf("after scoped clear: %+v", pcs)
	}
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	j2 := openTestJournal(t, b0, b1, 4)
	pcs, err = j2.PendingClosures()
	if err != nil {
		t.Fatal(err)
	}
	if len(pcs) != 1 || !bytes.Equal(pcs[0].Strips[0].Data, []byte("b1")) {
		t.Fatalf("after reopen: %+v", pcs)
	}
	// An empty set is no wildcard: it matches no record with strips.
	if err := j2.ClearClosure(7, nil); err != nil {
		t.Fatal(err)
	}
	if p, _ := j2.PendingClosures(); len(p) != 1 {
		t.Fatalf("empty-set clear dropped a record: %+v", p)
	}
	if err := j2.ClearClosure(7, foreign); err != nil {
		t.Fatal(err)
	}
	if p, _ := j2.PendingClosures(); len(p) != 0 {
		t.Fatalf("pending after clearing the last record: %+v", p)
	}
}

// TestJournalUnsyncedClearReplays pins the lazy-durability rule: a clear
// that never reached the media leaves the closure pending, and replaying
// it is the designed (idempotent) behaviour.
func TestJournalUnsyncedClearReplays(t *testing.T) {
	ctl := NewCrashController(1)
	cb0, cb1 := NewCrashBlob(ctl), NewCrashBlob(ctl)
	j := openTestJournal(t, cb0, cb1, 2)
	strips := []StripUpdate{{Disk: 0, Slot: 0, Data: []byte("x")}}
	if err := j.RecordClosure(0, strips); err != nil {
		t.Fatal(err)
	}
	if err := j.ClearClosure(0, strips); err != nil { // appended, not synced
		t.Fatal(err)
	}
	j2 := openTestJournal(t, cb0.Survivor(), cb1.Survivor(), 2)
	if p, _ := j2.PendingClosures(); len(p) != 1 || p[0].Cycle != 0 {
		t.Fatalf("pending %+v, want the uncleared closure", p)
	}
}

func TestJournalTornTail(t *testing.T) {
	b0, b1 := NewMemBlob(), NewMemBlob()
	j := openTestJournal(t, b0, b1, 2)
	if err := j.RecordSum(0, 1, 42); err != nil {
		t.Fatal(err)
	}
	// Simulate a torn append: garbage where the next frame would start.
	size, _ := b0.Size()
	if _, err := b0.WriteAt([]byte{0xff, 0x03, 0x02}, size); err != nil {
		t.Fatal(err)
	}
	j2 := openTestJournal(t, b0, b1, 2)
	if got := j2.Sums(0)[1]; got != 42 {
		t.Fatalf("sum lost across torn tail: %d", got)
	}
	// The next append lands over the torn bytes and replays cleanly.
	if err := j2.RecordSum(1, 2, 43); err != nil {
		t.Fatal(err)
	}
	j3 := openTestJournal(t, b0, b1, 2)
	if got := j3.Sums(1)[2]; got != 43 {
		t.Fatalf("sum appended after tear lost: %d", got)
	}
}

func TestJournalCorruptHeaderRefuses(t *testing.T) {
	b0, b1 := NewMemBlob(), NewMemBlob()
	j := openTestJournal(t, b0, b1, 2)
	if err := j.RecordSum(0, 0, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := b0.WriteAt([]byte{0xff}, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenMetaJournal(b0, b1, 2); !errors.Is(err, ErrJournalCorrupt) {
		t.Fatalf("err %v, want ErrJournalCorrupt", err)
	}
}

func TestJournalCompaction(t *testing.T) {
	b0, b1 := NewMemBlob(), NewMemBlob()
	j := openTestJournal(t, b0, b1, 2)
	j.SetCompactThreshold(64)
	for i := int64(0); i < 20; i++ {
		if err := j.RecordSum(int(i%2), i, uint32(i)); err != nil {
			t.Fatal(err)
		}
		if err := j.RecordClosure(i, nil); err != nil {
			t.Fatal(err)
		}
		if err := j.ClearClosure(i, nil); err != nil {
			t.Fatal(err)
		}
	}
	if j.Epoch() < 2 {
		t.Fatalf("epoch %d: compaction never switched regions", j.Epoch())
	}
	j2 := openTestJournal(t, b0, b1, 2)
	for i := int64(0); i < 20; i++ {
		if got := j2.Sums(int(i % 2))[i]; got != uint32(i) {
			t.Fatalf("sum %d lost across compaction: %d", i, got)
		}
	}
	if p, _ := j2.PendingClosures(); len(p) != 0 {
		t.Fatalf("pending after compaction: %+v", p)
	}
}

// TestJournalCompactionCrashKeepsOldRegion pins the header-last protocol:
// a power cut during compaction must leave the previous region
// authoritative, never a half-written snapshot.
func TestJournalCompactionCrashKeepsOldRegion(t *testing.T) {
	for cut := int64(0); cut < 8; cut++ {
		ctl := NewCrashController(cut)
		cb0, cb1 := NewCrashBlob(ctl), NewCrashBlob(ctl)
		j := openTestJournal(t, cb0, cb1, 2)
		j.SetCompactThreshold(1)
		for i := int64(0); i < 4; i++ {
			if err := j.RecordSum(0, i, uint32(i)+100); err != nil {
				t.Fatal(err)
			}
		}
		if err := j.Sync(); err != nil {
			t.Fatal(err)
		}
		ctl.Arm(cut)
		// Trigger compaction; with the controller armed it may die at any
		// point of the snapshot-then-header sequence.
		err := j.RecordClosure(9, nil)
		if err == nil {
			err = j.ClearClosure(9, nil)
		}
		crashed := ctl.Crashed()
		j2, jerr := OpenMetaJournal(cb0.Survivor(), cb1.Survivor(), 2)
		if jerr != nil {
			t.Fatalf("cut %d (crashed=%v, err=%v): reopen failed: %v", cut, crashed, err, jerr)
		}
		for i := int64(0); i < 4; i++ {
			if got := j2.Sums(0)[i]; got != uint32(i)+100 {
				t.Fatalf("cut %d: sum %d lost in compaction crash: %d", cut, i, got)
			}
		}
	}
}
