package store

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"maps"
	"slices"
	"testing"
)

func openTestJournal(t testing.TB, b0, b1 Blob, disks int) *MetaJournal {
	t.Helper()
	j, err := OpenMetaJournal(b0, b1)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Bind(disks); err != nil {
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

// TestTransitionKindString: each kind has its name, and an unknown one
// prints its number.
func TestTransitionKindString(t *testing.T) {
	for k, want := range map[TransitionKind]string{
		TransEvict: "evict", TransAdopt: "adopt", TransRebuildDone: "rebuild-done", 9: "transition(9)",
	} {
		if got := k.String(); got != want {
			t.Errorf("TransitionKind(%d).String() = %q, want %q", uint8(k), got, want)
		}
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
	if _, err := OpenMetaJournal(b0, b1); !errors.Is(err, ErrJournalCorrupt) {
		t.Fatalf("err %v, want ErrJournalCorrupt", err)
	}
}

// TestJournalTornInitReopensFresh cuts a fresh journal's initialisation at
// each of its writes: what survives holds no header, and no more than the
// header and seal being written, so the reopen initialises afresh — where
// a cluster coordinator, which opens its journal before it formats, would
// otherwise be locked out of its own state. A stray byte in region 1 is
// still corruption.
func TestJournalTornInitReopensFresh(t *testing.T) {
	for cut := int64(0); cut < 3; cut++ {
		ctl := NewCrashController(cut)
		cb0, cb1 := NewCrashBlob(ctl), NewCrashBlob(ctl)
		ctl.Arm(cut)
		if _, err := OpenMetaJournal(cb0, cb1); !errors.Is(err, ErrCrashed) {
			t.Fatalf("cut %d: init across the cut: %v, want ErrCrashed", cut, err)
		}
		j, err := OpenMetaJournal(cb0.Survivor(), cb1.Survivor())
		if err != nil {
			t.Fatalf("cut %d: reopen: %v", cut, err)
		}
		if err := j.PutKV("k", []byte("v"), true); err != nil {
			t.Fatalf("cut %d: append after the reopen: %v", cut, err)
		}
	}
	if _, err := OpenMetaJournal(NewMemBlob(), NewMemBlobBytes([]byte{1})); !errors.Is(err, ErrJournalCorrupt) {
		t.Fatalf("headerless region 1 byte: %v, want ErrJournalCorrupt", err)
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
		j2, jerr := OpenMetaJournal(cb0.Survivor(), cb1.Survivor())
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

// goldenJournal appends one record of every kind (and a second of the kinds
// compaction orders) to a fresh three-disk journal over b0/b1.
func goldenJournal(t *testing.T, b0, b1 Blob) *MetaJournal {
	t.Helper()
	j := openTestJournal(t, b0, b1, 3)
	ups := []StripUpdate{{Disk: 0, Slot: 1, Data: []byte("abcd")}, {Disk: 2, Slot: 0, Data: []byte("wxyz")}}
	for _, err := range []error{
		j.RecordSum(0, 5, 0xdeadbeef),
		j.RecordSum(0, 1, 0x01020304),
		j.RecordSum(2, 7, 0xcafef00d),
		j.RecordClosure(3, ups),
		j.ClearClosure(3, ups),
		j.RecordTransition(TransEvict, 1, 9),
		j.PutKV("k/a", []byte("value"), true),
		j.PutKV("k/b", nil, false),
		j.DeleteKV("k/b", false),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	return j
}

// TestJournalGoldenBytes holds the journal's byte stream to what the commit
// before the frame builder wrote: the region after goldenJournal's appends,
// and the snapshot a compaction of that state writes (captured from a run
// of that commit whose map walk happened to be ascending). A journal
// written by either side mounts under the other because these are equal.
func TestJournalGoldenBytes(t *testing.T) {
	const appended = "4f4952444a4e4c31010000000100000000000000c802e40f" + // header, epoch 1
		"01000000b9b4dc7406" + // seal
		"1100000052e6267801000000000500000000000000efbeadde" + // sum (0,5)
		"11000000ebe95af00100000000010000000000000004030201" + // sum (0,1)
		"110000008a050167010200000007000000000000000df0feca" + // sum (2,7)
		"2b000000de62b4d80203000000000000000200000000000100000004000000616263640200000000000000040000007778797a" + // closure
		"1b000000aecfcfcf030300000000000000020000000000010000000200000000000000" + // clear
		"0e000000b0813e290401010000000900000000000000" + // transition
		"10000000e789b69a050003006b2f610500000076616c7565" + // put k/a
		"0b000000a481b4fc050003006b2f6200000000" + // put k/b
		"0b00000001fae237050103006b2f6200000000" // delete k/b
	const compacted = "4f4952444a4e4c31010000000200000000000000a185a0d4" + // header, epoch 2
		"11000000ebe95af00100000000010000000000000004030201" + // sum (0,1)
		"1100000052e6267801000000000500000000000000efbeadde" + // sum (0,5)
		"110000008a050167010200000007000000000000000df0feca" + // sum (2,7)
		"0e000000b0813e290401010000000900000000000000" + // transition
		"10000000e789b69a050003006b2f610500000076616c7565" + // k/a
		"0e00000088555a69050003006b2f6303000000010203" + // k/c
		"01000000b9b4dc7406" // seal
	b0, b1 := NewMemBlob(), NewMemBlob()
	j := goldenJournal(t, b0, b1)
	if got := hex.EncodeToString(b0.Bytes()); got != appended {
		t.Errorf("appended region\n got %s\nwant %s", got, appended)
	}
	j.SetCompactThreshold(1)
	if err := j.PutKV("k/c", []byte{1, 2, 3}, false); err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(b1.Bytes()); got != compacted {
		t.Errorf("compacted region\n got %s\nwant %s", got, compacted)
	}
}

// manySums records 300 checksums over three disks in a scrambled strip
// order, enough that a snapshot following map order differs between runs.
func manySums(t *testing.T, j *MetaJournal) {
	t.Helper()
	for i := int64(0); i < 300; i++ {
		if err := j.RecordSum(int(i%3), (i*7919)%1009, uint32(i)); err != nil {
			t.Fatal(err)
		}
	}
}

// TestJournalCompactionDeterministic: the compaction snapshot is a function
// of the journal's state — two journals fed the same records compact to
// byte-identical regions.
func TestJournalCompactionDeterministic(t *testing.T) {
	region := func() []byte {
		b0, b1 := NewMemBlob(), NewMemBlob()
		j := openTestJournal(t, b0, b1, 3)
		manySums(t, j)
		j.SetCompactThreshold(1)
		if err := j.PutKV("k", []byte("v"), false); err != nil {
			t.Fatal(err)
		}
		if j.Epoch() != 2 {
			t.Fatalf("epoch %d: no compaction", j.Epoch())
		}
		return b1.Bytes()
	}
	if a, b := region(), region(); !bytes.Equal(a, b) {
		t.Error("two journals fed the same records compacted to different bytes")
	}
}

// TestJournalCompactionCutReproducible: a power cut inside the compaction's
// snapshot flush tears it at a seeded byte, and two runs of one schedule
// leave the same survivor images.
func TestJournalCompactionCutReproducible(t *testing.T) {
	crash := func() (r0, r1 []byte) {
		ctl := NewCrashController(11)
		cb0, cb1 := NewCrashBlob(ctl), NewCrashBlob(ctl)
		j := openTestJournal(t, cb0, cb1, 3)
		manySums(t, j)
		if err := j.Sync(); err != nil {
			t.Fatal(err)
		}
		j.SetCompactThreshold(1)
		// The put's own append, the snapshot's Truncate and WriteAt persist;
		// the Sync that flushes the snapshot is the torn operation.
		ctl.Arm(3)
		if err := j.PutKV("k", []byte("v"), false); !errors.Is(err, ErrCrashed) {
			t.Fatalf("compaction under an armed controller: %v, want ErrCrashed", err)
		}
		return cb0.Survivor().Bytes(), cb1.Survivor().Bytes()
	}
	a0, a1 := crash()
	b0, b1 := crash()
	if whole := 300 * (frameHeaderLen + sumLen); len(a1) <= journalHeaderLen || len(a1) >= whole {
		t.Fatalf("the cut left %d snapshot bytes of %d: not inside the snapshot write", len(a1), whole)
	}
	if !bytes.Equal(a0, b0) || !bytes.Equal(a1, b1) {
		t.Error("two runs of one schedule and cut left different survivor images")
	}
}

// Sums returns a copy of the checksum table of one disk.
func (j *MetaJournal) Sums(disk int) map[int64]uint32 {
	j.sumMu.RLock()
	defer j.sumMu.RUnlock()
	return maps.Clone(j.sums[disk])
}

// journaled attaches a metadata journal over MemBlobs to arr, which gives the
// array checksums, and returns it.
func journaled(t testing.TB, arr *Array) *Array {
	t.Helper()
	arr.SetJournal(openTestJournal(t, NewMemBlob(), NewMemBlob(), arr.an.Disks()))
	return arr
}

// journaledArray is a two-cycle 9-disk in-memory array with a metadata
// journal over MemBlobs attached, so with checksums.
func journaledArray(t testing.TB, stripBytes int) *Array {
	t.Helper()
	arr, err := NewMemArray(oiAnalyzer(t, 9), 2, stripBytes)
	if err != nil {
		t.Fatal(err)
	}
	return journaled(t, arr)
}

// TestJournalAllocs pins what a record costs in allocations: a checksum
// record is its one frame; a journalled single-strip write is the update
// list, the closure frame, the pending record's strip list and the one frame
// run of the four strips' checksum records and the clear — 4, where one
// append per record took 8.
func TestJournalAllocs(t *testing.T) {
	if poolDrops() {
		t.Skip("sync.Pool drops items in this build (race detector)")
	}
	j := openTestJournal(t, NewMemBlob(), NewMemBlob(), 2)
	if n := testing.AllocsPerRun(200, func() {
		if err := j.RecordSum(1, 7, 42); err != nil {
			t.Fatal(err)
		}
	}); n > 1 {
		t.Errorf("RecordSum: %v allocations per record, want at most 1", n)
	}
	arr := journaledArray(t, testStrip)
	buf := make([]byte, testStrip)
	if n := testing.AllocsPerRun(200, func() {
		if _, err := arr.ConcurrentWriteAt(buf, 5*testStrip); err != nil {
			t.Fatal(err)
		}
	}); n > 4 {
		t.Errorf("journalled single-strip write: %v allocations per op, want at most 4", n)
	}
}

// journaledSizes are the strip sizes the journaled benchmarks run at, by
// sub-benchmark name.
var journaledSizes = []struct {
	name string
	size int
}{{"512", 512}, {"4K", 4 << 10}, {"64K", 64 << 10}}

// BenchmarkJournaledWrite is BenchmarkArrayWrite with a metadata journal
// over MemBlobs attached: what the redo record, the clear, the strips'
// checksum records and the region's growth add to a strip write.
func BenchmarkJournaledWrite(b *testing.B) {
	for _, sz := range journaledSizes {
		b.Run(sz.name, func(b *testing.B) {
			arr := journaledArray(b, sz.size)
			buf := make([]byte, sz.size)
			b.SetBytes(int64(sz.size))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				off := (int64(i) * int64(sz.size)) % arr.Capacity()
				if _, err := arr.WriteAt(buf, off); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkJournaledRead is BenchmarkJournaledWrite's twin for whole-strip
// reads: what the checksum step — a lookup in the journal's table and a
// CRC-32C of the strip — adds to a strip read.
func BenchmarkJournaledRead(b *testing.B) {
	for _, sz := range journaledSizes {
		b.Run(sz.name, func(b *testing.B) {
			arr := journaledArray(b, sz.size)
			fillArray(b, arr, 1)
			buf := make([]byte, sz.size)
			b.SetBytes(int64(sz.size))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				off := (int64(i) * int64(sz.size)) % arr.Capacity()
				if _, err := arr.ReadAt(buf, off); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// countBlob counts what reaches a blob: its calls, and the bytes written at
// the head of the region (a compaction's snapshot and header, at offsets up
// to journalHeaderLen) apart from those appended after it.
type countBlob struct {
	Blob
	writes, syncs, truncates int
	compacted, appended      int64
}

func (b *countBlob) WriteAt(p []byte, off int64) (int, error) {
	b.writes++
	if off <= journalHeaderLen {
		b.compacted += int64(len(p))
	} else {
		b.appended += int64(len(p))
	}
	return b.Blob.WriteAt(p, off)
}

func (b *countBlob) Sync() error { b.syncs++; return b.Blob.Sync() }

func (b *countBlob) Truncate(size int64) error { b.truncates++; return b.Blob.Truncate(size) }

// TestJournaledWriteAppends: a journaled strip write costs the journal two
// appends and one sync — the synced redo record, then the closure's four
// checksums and its clear in one WriteAt — where it took six appends, one per
// record. The region holds what the six wrote: the same frames in the same
// order.
func TestJournaledWriteAppends(t *testing.T) {
	arr, err := NewMemArray(oiAnalyzer(t, 9), 2, testStrip)
	if err != nil {
		t.Fatal(err)
	}
	b0, b1 := &countBlob{Blob: NewMemBlob()}, &countBlob{Blob: NewMemBlob()}
	if err := arr.SetJournal(openTestJournal(t, b0, b1, 9)); err != nil {
		t.Fatal(err)
	}
	start := b0.Blob.(*MemBlob).Bytes()
	w0, s0 := b0.writes, b0.syncs
	p := bytes.Repeat([]byte{0x5A}, testStrip)
	const writes = 40
	for i := int64(0); i < writes; i++ {
		if _, err := arr.WriteAt(p, i*testStrip); err != nil {
			t.Fatal(err)
		}
	}
	if w, s := b0.writes-w0, b0.syncs-s0; w != 2*writes || s != writes || b1.writes+b1.truncates != 0 {
		t.Fatalf("%d strip writes: %d appends and %d syncs (%d calls to region 1), want %d and %d (and none)",
			writes, w, s, b1.writes+b1.truncates, 2*writes, writes)
	}

	// The same records, one append each, over a copy of the region as it was:
	// every redo record the writes made, then its strips' checksums in plan
	// order (the op order of the commit), then its clear.
	want := openTestJournal(t, NewMemBlobBytes(start), NewMemBlob(), 9)
	slots := int64(arr.an.SlotsPerDisk())
	pending := closureRecords(t, b0.Blob.(*MemBlob).Bytes())
	if len(pending) != writes {
		t.Fatalf("%d redo records in the region, want %d", len(pending), writes)
	}
	for _, pc := range pending {
		if err := want.RecordClosure(pc.Cycle, pc.Strips); err != nil {
			t.Fatal(err)
		}
		for _, su := range pc.Strips {
			if err := want.RecordSum(su.Disk, pc.Cycle*slots+int64(su.Slot), crc32.Checksum(su.Data, castagnoli)); err != nil {
				t.Fatal(err)
			}
		}
		if err := want.ClearClosure(pc.Cycle, pc.Strips); err != nil {
			t.Fatal(err)
		}
	}
	if got, exp := b0.Blob.(*MemBlob).Bytes(), want.blobs[0].(*MemBlob).Bytes(); !bytes.Equal(got, exp) {
		t.Fatalf("the region (%d bytes) differs from one append per record (%d bytes)", len(got), len(exp))
	}
}

// closureRecords decodes the redo records of a region's frame stream, in
// order.
func closureRecords(t *testing.T, region []byte) []PendingClosure {
	t.Helper()
	var out []PendingClosure
	le := binary.LittleEndian
	for off := journalHeaderLen; off+frameHeaderLen <= len(region); {
		n := int(le.Uint32(region[off:]))
		payload := region[off+frameHeaderLen : off+frameHeaderLen+n]
		if payload[0] == recClosure {
			pc, err := decodeClosure(payload, 9)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, *pc)
		}
		off += frameHeaderLen + n
	}
	return out
}

// TestCompactionReleasesSupersededRegion: once a compaction's header is
// durable the region it superseded is emptied, down to a MemBlob with no
// array behind it, so one region is live; a reopen over the pair recovers
// the same state; and the next compaction empties the other region in turn.
func TestCompactionReleasesSupersededRegion(t *testing.T) {
	b0, b1 := NewMemBlob(), NewMemBlob()
	j := goldenJournal(t, b0, b1)
	j.SetCompactThreshold(1)
	released := func(b *MemBlob) bool {
		b.mu.RLock()
		defer b.mu.RUnlock()
		return len(b.chunks) == 0 && cap(b.chunks) == 0
	}
	// Each put outweighs the snapshot before it, so each compacts.
	for i, pair := range [][2]*MemBlob{{b0, b1}, {b1, b0}} {
		if err := j.PutKV(fmt.Sprintf("k/%d", i), make([]byte, 1024<<(2*i)), false); err != nil {
			t.Fatal(err)
		}
		old, live := pair[0], pair[1]
		if j.Epoch() != uint64(i+2) || !released(old) || released(live) {
			t.Fatalf("compaction %d: epoch %d; superseded region %d bytes, live region %d", i+1, j.Epoch(), len(old.Bytes()), len(live.Bytes()))
		}
		re := openTestJournal(t, b0, b1, 3)
		for d := 0; d < 3; d++ {
			if !maps.Equal(re.Sums(d), j.Sums(d)) {
				t.Fatalf("compaction %d: disk %d sums %v after a reopen, %v before", i+1, d, re.Sums(d), j.Sums(d))
			}
		}
		keys, vals := re.KVRange("")
		wantKeys, wantVals := j.KVRange("")
		if !slices.Equal(keys, wantKeys) || !slices.EqualFunc(vals, wantVals, bytes.Equal) ||
			!slices.Equal(re.Transitions(), j.Transitions()) || re.Epoch() != j.Epoch() {
			t.Fatalf("compaction %d: a reopen recovered a different journal", i+1)
		}
	}
}

// TestCompactionAmortised: compaction waits until what was appended since the
// active region's snapshot reaches that snapshot's size, so the bytes it
// rewrites stay at most the bytes appended. On a journal holding 200 000
// checksums — a 5 MB snapshot — 64 KiB-strip writes append 262 KiB redo
// records; a flat 1 MiB trigger rewrote the snapshot every fourth write, five
// times the bytes appended.
func TestCompactionAmortised(t *testing.T) {
	b0, b1 := &countBlob{Blob: NewMemBlob()}, &countBlob{Blob: NewMemBlob()}
	j := openTestJournal(t, b0, b1, 9)
	const sums = 200000
	for i := 0; i < sums; i++ {
		if err := j.RecordSum(i%9, int64(i/9), uint32(i)); err != nil {
			t.Fatal(err)
		}
	}
	strip := make([]byte, 64<<10)
	for w := int64(0); w < 80; w++ {
		ups := make([]StripUpdate, 4)
		var recs []stripSum
		for k := range ups {
			ups[k] = StripUpdate{Disk: 2 * k, Slot: int(w % 36), Data: strip}
			recs = append(recs, stripSum{2 * k, w % 36, uint32(w)})
		}
		if err := j.RecordClosure(w/36, ups); err != nil {
			t.Fatal(err)
		}
		if err := j.recordWrites(recs, &PendingClosure{Cycle: w / 36, Strips: ups}); err != nil {
			t.Fatal(err)
		}
		if err := j.compactIfDue(); err != nil {
			t.Fatal(err)
		}
	}
	compacted, appended := b0.compacted+b1.compacted, b0.appended+b1.appended
	if j.Epoch() < 3 || compacted > appended {
		t.Fatalf("%d compactions rewrote %d bytes for %d appended, want at least 2 and at most the bytes appended",
			j.Epoch()-1, compacted, appended)
	}
	t.Logf("%d compactions rewrote %d bytes for %d appended", j.Epoch()-1, compacted, appended)
}
