package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
	"sort"
	"strings"
	"sync"
)

// ErrJournalCorrupt reports a metadata journal whose header region is
// present but undecodable — unlike a torn tail (which replay tolerates),
// a bad header means the journal cannot be trusted and the array refuses
// to mount rather than silently dropping durable state.
var ErrJournalCorrupt = errors.New("store: metadata journal corrupt")

// castagnoli is the CRC-32C table of strip checksums and journal frames (the
// polynomial storage systems conventionally use).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

const (
	journalMagic     = "OIRDJNL1"
	journalVersion   = 1
	journalHeaderLen = 8 + 4 + 8 + 4 // magic, version, epoch, crc
	// journalMaxPayload bounds a single frame; larger lengths in the
	// stream mean a torn or corrupt tail.
	journalMaxPayload = 16 << 20
	// defaultCompactAt is the least appended-bytes threshold that triggers
	// a snapshot into the inactive region (maybeCompact).
	defaultCompactAt = 1 << 20
	// journalMaxTransitions bounds the retained state-transition audit
	// trail (old entries are dropped at compaction).
	journalMaxTransitions = 128
)

// Journal record types (first payload byte).
const (
	recSum        byte = 1 // durable per-strip checksum
	recClosure    byte = 2 // redo record: full content of an in-flight parity closure
	recClear      byte = 3 // closure committed to devices
	recTransition byte = 4 // state transition (evict/adopt/rebuild-complete)
	recKV         byte = 5 // object-plane key/value record (put or tombstone)
	// recSnapEnd seals a region's snapshot prefix. Written at region
	// initialisation and as the last frame of every compaction snapshot,
	// it lets a quorum merge distinguish a complete snapshot from the
	// partial content of a compaction that failed mid-way on a minority
	// of replicas: a region with a valid header but no seal anywhere in
	// its stream is not eligible as a recovery source.
	recSnapEnd byte = 6
)

const (
	// kvMaxKey bounds a KV record key; longer keys in the stream mean
	// corruption, not a torn tail.
	kvMaxKey = 4096
	// kvDelete flags a KV record as a tombstone.
	kvDelete byte = 1
)

// TransitionKind labels a journalled state transition.
type TransitionKind uint8

const (
	// TransEvict records a disk marked failed.
	TransEvict TransitionKind = 1
	// TransAdopt records a replacement device adopted for a failed disk.
	TransAdopt TransitionKind = 2
	// TransRebuildDone records a completed rebuild (failure flags cleared).
	TransRebuildDone TransitionKind = 3
)

func (k TransitionKind) String() string {
	switch k {
	case TransEvict:
		return "evict"
	case TransAdopt:
		return "adopt"
	case TransRebuildDone:
		return "rebuild-done"
	}
	return fmt.Sprintf("transition(%d)", uint8(k))
}

// Transition is one journalled state transition.
type Transition struct {
	Kind       TransitionKind
	Disk       int
	Generation uint64
}

// StripUpdate is one strip of a redo-logged parity closure.
type StripUpdate struct {
	Disk, Slot int
	Data       []byte
}

// PendingClosure is a redo record whose device commit was never
// acknowledged as complete: replaying its strips onto the live devices
// restores the closure to a consistent state whichever subset of the
// original writes reached the media.
type PendingClosure struct {
	Cycle  int64
	Strips []StripUpdate
}

// MetaJournal is the array's durable metadata journal: an append-only
// frame log over two blobs (double-buffered for crash-safe compaction)
// holding per-strip checksums, redo records of in-flight parity closures,
// and state transitions. Replay tolerates a torn tail — frames are
// CRC-protected and parsing stops at the first invalid one. Its checksum
// table is the array's only one: the array verifies every strip it reads
// against it and records every strip it writes into it (DESIGN.md §10).
//
// Durability policy, derived from what recovery needs:
//
//   - Redo records (RecordClosure) fsync before returning: they must be
//     durable before the device writes they describe.
//   - Checksum records and closure clears are lazily durable — they are
//     flushed by the next fsync on the region. Losing a checksum causes
//     at worst a spurious ErrCorrupt healed by read repair; losing a
//     clear causes an idempotent replay. A write list's checksums, and
//     the clear of the closure it committed, are one append (recordWrites),
//     so a strip write costs the journal two: its redo record and that.
//   - Transitions fsync: an acknowledged evict/adopt/rebuild-complete
//     must survive, and the fsync also flushes the checksums recorded
//     before it (rebuild writes in particular).
type MetaJournal struct {
	mu        sync.Mutex
	blobs     [2]Blob
	active    int
	epoch     uint64
	off       int64 // append offset in the active region
	acked     int64 // offset up to which every append was accepted by the blob
	appended  int64 // bytes appended since open/compaction
	snapLen   int64 // bytes of the active region's snapshot prefix, its seal included
	hasSeal   bool  // replayed stream contained a recSnapEnd frame
	poisoned  bool  // a compaction or its wipe failed; inactive region needs a wipe
	wiped     bool  // this journal emptied the inactive region, and nothing wrote it since
	compactAt int64
	disks     int              // set by Bind; 0 until then
	pending   []PendingClosure // FIFO; overlapping closures are serialised by the array
	trans     []Transition
	kv        map[string][]byte
	snapKeys  []string // maybeCompact's sorted key list, reused: a cluster journal always holds its manifest
	closed    bool

	// sums is the checksum table, per disk. It is written under mu and sumMu
	// both and read under either, so a read's lookup never waits on an
	// append or a sync.
	sumMu sync.RWMutex
	sums  []map[int64]uint32
}

// OpenMetaJournal opens (replaying) or initialises the journal over its
// two regions. Two empty blobs initialise a fresh journal, and so does the
// leftover of an initialisation a crash cut short; any other region pair
// with no valid header is ErrJournalCorrupt. The journal knows
// no geometry until Bind sizes it for its array: before that it takes KV
// records only, so a cluster coordinator can read its manifest — the disk
// count — out of the journal the array then mounts over.
func OpenMetaJournal(b0, b1 Blob) (*MetaJournal, error) {
	j := &MetaJournal{
		blobs:     [2]Blob{b0, b1},
		compactAt: defaultCompactAt,
		kv:        make(map[string][]byte),
	}

	var contents [2][]byte
	best := -1
	var bestEpoch uint64
	for i, b := range j.blobs {
		data, err := readBlobAll(b)
		if err != nil {
			return nil, fmt.Errorf("store: journal region %d: %w", i, err)
		}
		contents[i] = data
		if epoch, ok := parseJournalHeader(data); ok && (best < 0 || epoch > bestEpoch) {
			best, bestEpoch = i, epoch
		}
	}
	if best < 0 {
		// No region ever got a header. Two empty blobs are a fresh journal,
		// and so is a region 0 holding no more than the header and seal its
		// initialisation was writing when a crash cut the sync: nothing is
		// appended before that sync returns. Anything else is corrupt.
		seal := appendSnapEndFrame(nil)
		if len(contents[0]) > journalHeaderLen+len(seal) || len(contents[1]) > 0 {
			return nil, fmt.Errorf("%w: no valid region header", ErrJournalCorrupt)
		}
		// Initialise region 0 at epoch 1. The seal frame goes in before the
		// header (header-last, like compaction) so a headered region always
		// carries a complete snapshot prefix.
		j.active, j.epoch = 0, 1
		j.off = journalHeaderLen + int64(len(seal))
		j.acked = j.off
		j.snapLen = int64(len(seal))
		j.hasSeal = true
		if _, err := j.blobs[0].WriteAt(seal, journalHeaderLen); err != nil {
			return nil, err
		}
		if _, err := j.blobs[0].WriteAt(journalHeader(1), 0); err != nil {
			return nil, err
		}
		if err := j.blobs[0].Sync(); err != nil {
			return nil, err
		}
		return j, nil
	}
	j.active, j.epoch = best, bestEpoch
	if err := j.replay(contents[best]); err != nil {
		return nil, err
	}
	if !j.hasSeal {
		// Pre-seal stream (an upgraded journal): seal it now, so every
		// journal that has been opened once is a valid quorum-merge
		// source from here on.
		if err := j.appendFrame(appendSnapEndFrame(nil), true); err != nil {
			return nil, err
		}
		j.snapLen = j.off - journalHeaderLen
		j.hasSeal = true
	}
	return j, nil
}

// Bind sizes the journal for an array of disks: the checksum table gets a
// slot per disk, and checksum, closure and transition records are taken
// for those disks only. A journal whose replayed records name a disk
// beyond them belongs to a larger array and is refused, and so is a second
// Bind to a different count. The array binds the journal it is given
// (SetJournal), so mount and format refuse a journal of the wrong
// geometry.
func (j *MetaJournal) Bind(disks int) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch {
	case disks < 1 || disks > superMaxDisks:
		return fmt.Errorf("%w: %d disks", ErrBadGeometry, disks)
	case j.disks != 0 && j.disks != disks:
		return fmt.Errorf("%w: journal bound to %d disks, array has %d", ErrBadGeometry, j.disks, disks)
	case len(j.sums) > disks:
		return fmt.Errorf("%w: journal records name disk %d, array has %d disks", ErrBadGeometry, len(j.sums)-1, disks)
	}
	j.sumMu.Lock()
	j.grow(disks - 1)
	j.sumMu.Unlock()
	j.disks = disks
	return nil
}

// grow extends the checksum table to hold disk. Replay grows it to the
// highest disk any record names, which Bind checks against the array.
func (j *MetaJournal) grow(disk int) {
	for len(j.sums) <= disk {
		j.sums = append(j.sums, make(map[int64]uint32))
	}
}

func journalHeader(epoch uint64) []byte {
	buf := make([]byte, journalHeaderLen)
	copy(buf, journalMagic)
	le := binary.LittleEndian
	le.PutUint32(buf[8:], journalVersion)
	le.PutUint64(buf[12:], epoch)
	le.PutUint32(buf[20:], crc32.Checksum(buf[:20], castagnoli))
	return buf
}

func parseJournalHeader(data []byte) (epoch uint64, ok bool) {
	if len(data) < journalHeaderLen {
		return 0, false
	}
	if string(data[:8]) != journalMagic {
		return 0, false
	}
	le := binary.LittleEndian
	if le.Uint32(data[20:]) != crc32.Checksum(data[:20], castagnoli) {
		return 0, false
	}
	if le.Uint32(data[8:]) != journalVersion {
		return 0, false
	}
	return le.Uint64(data[12:]), true
}

// replay walks the frame stream of the chosen region, rebuilding the
// in-memory state and positioning the append offset after the last valid
// frame. A CRC-valid frame whose payload violates bounds is hard
// corruption (ErrJournalCorrupt), not a torn tail.
func (j *MetaJournal) replay(data []byte) error {
	off := journalHeaderLen
	le := binary.LittleEndian
	for {
		if off+8 > len(data) {
			break
		}
		n := int(le.Uint32(data[off:]))
		crc := le.Uint32(data[off+4:])
		if n <= 0 || n > journalMaxPayload || off+8+n > len(data) {
			break // torn tail
		}
		payload := data[off+8 : off+8+n]
		if crc32.Checksum(payload, castagnoli) != crc {
			break // torn tail
		}
		if err := j.apply(payload); err != nil {
			return err
		}
		off += 8 + n
		if payload[0] == recSnapEnd && j.snapLen == 0 {
			j.snapLen = int64(off - journalHeaderLen) // the first seal ends the snapshot
		}
	}
	j.off = int64(off)
	j.acked = j.off
	return nil
}

// apply interprets one CRC-valid payload during replay.
func (j *MetaJournal) apply(payload []byte) error {
	le := binary.LittleEndian
	switch payload[0] {
	case recSum:
		if len(payload) != sumLen {
			return fmt.Errorf("%w: sum record length %d", ErrJournalCorrupt, len(payload))
		}
		disk := int(le.Uint32(payload[1:]))
		strip := int64(le.Uint64(payload[5:]))
		sum := le.Uint32(payload[13:])
		if disk < 0 || disk >= superMaxDisks || strip < 0 {
			return fmt.Errorf("%w: sum record out of bounds (disk %d, strip %d)", ErrJournalCorrupt, disk, strip)
		}
		j.grow(disk)
		j.sums[disk][strip] = sum
	case recClosure:
		pc, err := decodeClosure(payload, superMaxDisks)
		if err != nil {
			return err
		}
		for _, su := range pc.Strips {
			j.grow(su.Disk)
		}
		j.pending = append(j.pending, *pc)
	case recClear:
		cycle, strips, err := decodeClear(payload)
		if err != nil {
			return err
		}
		j.dropPending(cycle, strips)
	case recTransition:
		if len(payload) != transitionLen {
			return fmt.Errorf("%w: transition record length %d", ErrJournalCorrupt, len(payload))
		}
		kind := TransitionKind(payload[1])
		if kind < TransEvict || kind > TransRebuildDone {
			return fmt.Errorf("%w: transition kind %d", ErrJournalCorrupt, kind)
		}
		disk := int(le.Uint32(payload[2:]))
		if disk < 0 || disk >= superMaxDisks {
			return fmt.Errorf("%w: transition disk %d", ErrJournalCorrupt, disk)
		}
		j.grow(disk)
		j.addTransition(Transition{Kind: kind, Disk: disk, Generation: le.Uint64(payload[6:])})
	case recKV:
		key, value, del, err := decodeKV(payload)
		if err != nil {
			return err
		}
		if del {
			delete(j.kv, key)
		} else {
			j.kv[key] = value
		}
	case recSnapEnd:
		if len(payload) != 1 {
			return fmt.Errorf("%w: seal record length %d", ErrJournalCorrupt, len(payload))
		}
		j.hasSeal = true
	default:
		return fmt.Errorf("%w: unknown record type %d", ErrJournalCorrupt, payload[0])
	}
	return nil
}

func decodeClosure(payload []byte, disks int) (*PendingClosure, error) {
	le := binary.LittleEndian
	if len(payload) < 1+8+2 {
		return nil, fmt.Errorf("%w: closure record length %d", ErrJournalCorrupt, len(payload))
	}
	cycle := int64(le.Uint64(payload[1:]))
	if cycle < 0 {
		return nil, fmt.Errorf("%w: closure cycle %d", ErrJournalCorrupt, cycle)
	}
	n := int(le.Uint16(payload[9:]))
	pc := &PendingClosure{Cycle: cycle}
	off := 11
	for i := 0; i < n; i++ {
		if off+12 > len(payload) {
			return nil, fmt.Errorf("%w: closure strip header overruns frame", ErrJournalCorrupt)
		}
		disk := int(le.Uint32(payload[off:]))
		slot := int(le.Uint32(payload[off+4:]))
		dlen := int(le.Uint32(payload[off+8:]))
		off += 12
		if disk < 0 || disk >= disks || slot < 0 || dlen < 0 || dlen > journalMaxPayload || off+dlen > len(payload) {
			return nil, fmt.Errorf("%w: closure strip out of bounds", ErrJournalCorrupt)
		}
		pc.Strips = append(pc.Strips, StripUpdate{
			Disk: disk,
			Slot: slot,
			Data: append([]byte(nil), payload[off:off+dlen]...),
		})
		off += dlen
	}
	if off != len(payload) {
		return nil, fmt.Errorf("%w: closure record has %d trailing bytes", ErrJournalCorrupt, len(payload)-off)
	}
	return pc, nil
}

// clearLen is the payload length of a clear record of n strips.
func clearLen(n int) int { return 1 + 8 + 2 + 8*n }

// appendClearFrame appends one clear record: cycle plus the (disk, slot)
// of every strip of the closure being cleared.
func appendClearFrame(buf []byte, cycle int64, strips []StripUpdate) []byte {
	buf, payload := openFrame(buf, clearLen(len(strips)))
	payload[0] = recClear
	le := binary.LittleEndian
	le.PutUint64(payload[1:], uint64(cycle))
	le.PutUint16(payload[9:], uint16(len(strips)))
	off := 11
	for _, su := range strips {
		le.PutUint32(payload[off:], uint32(su.Disk))
		le.PutUint32(payload[off+4:], uint32(su.Slot))
		off += 8
	}
	return sealFrame(buf, payload)
}

// decodeClear parses one clear-record payload; the strips it returns carry
// a location and no Data.
func decodeClear(payload []byte) (cycle int64, strips []StripUpdate, err error) {
	le := binary.LittleEndian
	if len(payload) < 1+8+2 {
		return 0, nil, fmt.Errorf("%w: clear record length %d", ErrJournalCorrupt, len(payload))
	}
	cycle = int64(le.Uint64(payload[1:]))
	n := int(le.Uint16(payload[9:]))
	if len(payload) != clearLen(n) {
		return 0, nil, fmt.Errorf("%w: clear record length %d for %d strips", ErrJournalCorrupt, len(payload), n)
	}
	off := 11
	for i := 0; i < n; i++ {
		strips = append(strips, StripUpdate{Disk: int(le.Uint32(payload[off:])), Slot: int(le.Uint32(payload[off+4:]))})
		off += 8
	}
	return cycle, strips, nil
}

// kvLen is the payload length of a KV record.
func kvLen(key string, value []byte) int { return 1 + 1 + 2 + len(key) + 4 + len(value) }

// appendKVFrame appends one KV record (a put, or a tombstone).
func appendKVFrame(buf []byte, key string, value []byte, del bool) []byte {
	buf, payload := openFrame(buf, kvLen(key, value))
	payload[0] = recKV
	if del {
		payload[1] = kvDelete
	}
	le := binary.LittleEndian
	le.PutUint16(payload[2:], uint16(len(key)))
	copy(payload[4:], key)
	off := 4 + len(key)
	le.PutUint32(payload[off:], uint32(len(value)))
	copy(payload[off+4:], value)
	return sealFrame(buf, payload)
}

// decodeKV parses one KV record payload with strict bounds (fuzzed via
// FuzzJournalReplay); any structural violation is hard corruption.
func decodeKV(payload []byte) (key string, value []byte, del bool, err error) {
	le := binary.LittleEndian
	if len(payload) < 1+1+2+4 {
		return "", nil, false, fmt.Errorf("%w: kv record length %d", ErrJournalCorrupt, len(payload))
	}
	flags := payload[1]
	if flags&^kvDelete != 0 {
		return "", nil, false, fmt.Errorf("%w: kv record flags %#x", ErrJournalCorrupt, flags)
	}
	klen := int(le.Uint16(payload[2:]))
	if klen == 0 || klen > kvMaxKey || 4+klen+4 > len(payload) {
		return "", nil, false, fmt.Errorf("%w: kv key length %d", ErrJournalCorrupt, klen)
	}
	key = string(payload[4 : 4+klen])
	off := 4 + klen
	vlen := int(le.Uint32(payload[off:]))
	if vlen < 0 || vlen > journalMaxPayload || off+4+vlen != len(payload) {
		return "", nil, false, fmt.Errorf("%w: kv value length %d", ErrJournalCorrupt, vlen)
	}
	value = append([]byte(nil), payload[off+4:off+4+vlen]...)
	return key, value, flags&kvDelete != 0, nil
}

// PutKV journals an object-plane key/value pair; sync forces it (and
// everything appended before it) durable before returning. The object
// layer uses fsynced puts as commit points — an object-metadata record,
// an allocation intent — and unsynced puts where replaying stale state
// is idempotent.
func (j *MetaJournal) PutKV(key string, value []byte, sync bool) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if len(key) == 0 || len(key) > kvMaxKey {
		return fmt.Errorf("store: kv key length %d out of range", len(key))
	}
	if len(value) > journalMaxPayload-kvLen(key, nil) {
		return fmt.Errorf("store: kv value %d bytes exceeds frame limit", len(value))
	}
	if err := j.appendFrame(appendKVFrame(nil, key, value, false), sync); err != nil {
		return err
	}
	j.kv[key] = append([]byte(nil), value...)
	return j.maybeCompact()
}

// DeleteKV journals a tombstone for key (a no-op record if absent).
func (j *MetaJournal) DeleteKV(key string, sync bool) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if len(key) == 0 || len(key) > kvMaxKey {
		return fmt.Errorf("store: kv key length %d out of range", len(key))
	}
	if err := j.appendFrame(appendKVFrame(nil, key, nil, true), sync); err != nil {
		return err
	}
	delete(j.kv, key)
	return j.maybeCompact()
}

// GetKV returns a copy of the durable value for key.
func (j *MetaJournal) GetKV(key string) ([]byte, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	v, ok := j.kv[key]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), v...), true
}

// KVRange returns copies of every key/value pair whose key has the given
// prefix, in ascending key order ("" ranges over everything).
func (j *MetaJournal) KVRange(prefix string) (keys []string, values [][]byte) {
	j.mu.Lock()
	defer j.mu.Unlock()
	for k := range j.kv {
		if strings.HasPrefix(k, prefix) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	values = make([][]byte, len(keys))
	for i, k := range keys {
		values[i] = append([]byte(nil), j.kv[k]...)
	}
	return keys, values
}

// dropPending removes the cycle's pending closures whose strip set
// matches ids exactly: the acked write's own record and those of earlier
// failed attempts of the same write (same target, hence the same
// deterministic closure). The committed state supersedes those snapshots
// — keeping them would let a later replay revert strips the commit
// already advanced — while records of *other* writes on the cycle
// survive, still carrying the content their own retries need to repair a
// half-applied commit.
func (j *MetaJournal) dropPending(cycle int64, ids []StripUpdate) {
	kept := j.pending[:0]
	for _, pc := range j.pending {
		if pc.Cycle != cycle || !sameStripSet(pc.Strips, ids) {
			kept = append(kept, pc)
		}
	}
	j.pending = kept
}

// sameStripSet reports whether the record's strip locations are exactly
// the (disk, slot) set of ids, order-insensitively. A closure is a handful
// of strips, so a scan of ids per strip beats building a set.
func sameStripSet(strips, ids []StripUpdate) bool {
	if len(strips) != len(ids) {
		return false
	}
	for _, su := range strips {
		if !slices.ContainsFunc(ids, func(id StripUpdate) bool { return id.Disk == su.Disk && id.Slot == su.Slot }) {
			return false
		}
	}
	return true
}

func (j *MetaJournal) addTransition(tr Transition) {
	j.trans = append(j.trans, tr)
	if len(j.trans) > journalMaxTransitions {
		j.trans = j.trans[len(j.trans)-journalMaxTransitions:]
	}
}

// appendFrame writes one sealed frame to the active region; sync forces it
// (and everything appended before it) durable before returning.
//
// Replicated-blob discipline: when the region blob is quorum-replicated,
// a write can land on the local cache (full count) yet fail to reach a
// node majority. Reusing the same offset for the *next* frame would put
// two different CRC-valid frames at one offset on different replicas,
// making a later quorum merge ambiguous. So a frame that was written
// locally always claims its offset — j.off advances even on error — and
// j.acked trails at the last offset every replica write accepted. Each
// subsequent append re-sends the unacknowledged suffix [acked, off)
// verbatim ahead of the new frame, so replicas converge on a single byte
// stream and any replica acknowledging a frame holds everything since
// the acknowledged frontier.
func (j *MetaJournal) appendFrame(frame []byte, sync bool) error {
	if j.closed {
		return ErrClosed
	}
	if err := j.clearPoison(); err != nil {
		return err
	}
	b := j.blobs[j.active]
	start := j.off
	buf := frame
	if j.acked < j.off {
		resend := make([]byte, j.off-j.acked)
		if _, err := b.ReadAt(resend, j.acked); err != nil {
			return err
		}
		start = j.acked
		buf = append(resend, frame...)
	}
	n, err := b.WriteAt(buf, start)
	if n == len(buf) {
		j.off += int64(len(frame))
		j.appended += int64(len(frame))
	}
	if err != nil {
		return err
	}
	j.acked = j.off
	if sync {
		return b.Sync()
	}
	return nil
}

// clearPoison wipes the inactive region after a failed compaction, or after
// a failed wipe of the region a compaction superseded. Until the wipe is
// accepted by the blob (for a quorum-replicated region: by a node
// majority), no further frames are appended — a minority replica
// could be holding a complete-looking snapshot from the failed attempt,
// and appends the snapshot does not contain must not be acknowledged
// while a takeover might choose it.
func (j *MetaJournal) clearPoison() error {
	if !j.poisoned {
		return nil
	}
	b := j.blobs[1-j.active]
	if err := b.Truncate(0); err != nil {
		return err
	}
	if err := b.Sync(); err != nil {
		return err
	}
	j.poisoned, j.wiped = false, true
	return nil
}

// stripSum is one strip's checksum as a write list records it.
type stripSum struct {
	disk  int
	strip int64
	sum   uint32
}

// RecordSum records the checksum of strip of disk (lazily durable).
func (j *MetaJournal) RecordSum(disk int, strip int64, sum uint32) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.appendWrites([]stripSum{{disk, strip, sum}}, nil)
}

// recordWrites is the journal's half of a write list: the checksum record of
// every strip it wrote, in order, and — when done is not nil — the clear of
// the closure those writes committed, as one append. Both are lazily
// durable. Clearing drops done's pending records (dropPending) but does not
// compact: the caller runs compactIfDue once its op is settled.
func (j *MetaJournal) recordWrites(sums []stripSum, done *PendingClosure) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.appendWrites(sums, done)
}

func (j *MetaJournal) appendWrites(sums []stripSum, done *PendingClosure) error {
	size := len(sums) * (frameHeaderLen + sumLen)
	for _, s := range sums {
		if s.disk < 0 || s.disk >= j.disks || s.strip < 0 {
			return fmt.Errorf("%w: sum for disk %d strip %d", ErrNoSuchDisk, s.disk, s.strip)
		}
	}
	if done != nil {
		if len(done.Strips) > 0xffff {
			return fmt.Errorf("store: closure of %d strips too large", len(done.Strips))
		}
		size += frameHeaderLen + clearLen(len(done.Strips))
	}
	if size == 0 {
		return nil
	}
	buf := make([]byte, 0, size)
	for _, s := range sums {
		buf = appendSumFrame(buf, s.disk, s.strip, s.sum)
	}
	if done != nil {
		buf = appendClearFrame(buf, done.Cycle, done.Strips)
	}
	if err := j.appendFrame(buf, false); err != nil {
		return err
	}
	if len(sums) > 0 {
		j.sumMu.Lock()
		for _, s := range sums {
			j.sums[s.disk][s.strip] = s.sum
		}
		j.sumMu.Unlock()
	}
	if done != nil {
		j.dropPending(done.Cycle, done.Strips)
	}
	return nil
}

// compactIfDue compacts the journal when maybeCompact's trigger has fired.
func (j *MetaJournal) compactIfDue() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrClosed
	}
	return j.maybeCompact()
}

// verifySum checks p, the content of strip of disk, against the recorded
// checksum: ErrCorrupt on a mismatch, nil when it matches or none is
// recorded (a strip never written through the journal's array).
func (j *MetaJournal) verifySum(disk int, strip int64, p []byte) error {
	j.sumMu.RLock()
	want, known := uint32(0), false
	if disk < len(j.sums) {
		want, known = j.sums[disk][strip]
	}
	j.sumMu.RUnlock()
	if known && crc32.Checksum(p, castagnoli) != want {
		return fmt.Errorf("%w: strip %d", ErrCorrupt, strip)
	}
	return nil
}

// RecordClosure appends a redo record carrying the full new content of a
// parity closure and fsyncs it before returning — the write-ahead barrier
// of every parity commit, which lets recovery replay exactly the
// consistent closure, healthy or degraded.
func (j *MetaJournal) RecordClosure(cycle int64, strips []StripUpdate) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if cycle < 0 {
		return fmt.Errorf("%w: cycle %d", ErrStripOutOfRange, cycle)
	}
	if len(strips) > 0xffff {
		return fmt.Errorf("store: closure of %d strips too large", len(strips))
	}
	size := 1 + 8 + 2
	for _, su := range strips {
		if su.Disk < 0 || su.Disk >= j.disks || su.Slot < 0 {
			return fmt.Errorf("%w: closure strip (%d,%d)", ErrNoSuchDisk, su.Disk, su.Slot)
		}
		size += 12 + len(su.Data)
	}
	if size > journalMaxPayload {
		return fmt.Errorf("store: closure record %d bytes exceeds frame limit", size)
	}
	// The closure is copied once, into the frame; the pending record keeps
	// the frame alive and its strips are the payload's own sub-slices.
	frame, payload := openFrame(nil, size)
	payload[0] = recClosure
	le := binary.LittleEndian
	le.PutUint64(payload[1:], uint64(cycle))
	le.PutUint16(payload[9:], uint16(len(strips)))
	off := 11
	pc := PendingClosure{Cycle: cycle, Strips: make([]StripUpdate, len(strips))}
	for i, su := range strips {
		le.PutUint32(payload[off:], uint32(su.Disk))
		le.PutUint32(payload[off+4:], uint32(su.Slot))
		le.PutUint32(payload[off+8:], uint32(len(su.Data)))
		off += 12
		end := off + copy(payload[off:], su.Data)
		pc.Strips[i] = StripUpdate{Disk: su.Disk, Slot: su.Slot, Data: payload[off:end:end]}
		off = end
	}
	if err := j.appendFrame(sealFrame(frame, payload), true); err != nil {
		return err
	}
	j.pending = append(j.pending, pc)
	return nil
}

// ClearClosure marks a closure committed (lazily durable: replaying a
// committed closure is idempotent). It drops only the pending records for
// that cycle whose strip set matches exactly, leaving records of other
// in-flight writes on the cycle intact.
func (j *MetaJournal) ClearClosure(cycle int64, strips []StripUpdate) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.appendWrites(nil, &PendingClosure{Cycle: cycle, Strips: strips}); err != nil {
		return err
	}
	return j.maybeCompact()
}

// PendingClosures lists redo records recorded but never cleared.
func (j *MetaJournal) PendingClosures() ([]PendingClosure, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([]PendingClosure(nil), j.pending...), nil
}

// RecordTransition appends a durable state-transition record.
func (j *MetaJournal) RecordTransition(kind TransitionKind, disk int, generation uint64) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if disk < 0 || disk >= j.disks {
		return fmt.Errorf("%w: %d", ErrNoSuchDisk, disk)
	}
	tr := Transition{Kind: kind, Disk: disk, Generation: generation}
	if err := j.appendFrame(appendTransitionFrame(nil, tr), true); err != nil {
		return err
	}
	j.addTransition(tr)
	return nil
}

// Transitions returns the retained state-transition audit trail.
func (j *MetaJournal) Transitions() []Transition {
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([]Transition(nil), j.trans...)
}

// Epoch returns the active region's epoch (diagnostics, tests).
func (j *MetaJournal) Epoch() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.epoch
}

// SetCompactThreshold overrides the least appended-bytes compaction trigger
// (a volatile cluster coordinator lowers it; tests use small values); n <= 0
// restores the default. The trigger is never below the active region's
// snapshot size (maybeCompact).
func (j *MetaJournal) SetCompactThreshold(n int64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if n <= 0 {
		n = defaultCompactAt
	}
	j.compactAt = n
}

// maybeCompact snapshots live state (checksums, transitions, KV) into the
// inactive region once no closures are pending and the bytes appended since
// the active region's snapshot reach the larger of the threshold and that
// snapshot's size: what compaction rewrites then stays at most what was
// appended, however large the state grows. The header is written last and
// fsynced after the frames, so a crash mid-compaction leaves the old region
// authoritative: the new header only becomes valid once everything it
// governs is durable. Once it is, the superseded region is emptied, so one
// region is live between compactions. A region this journal has not emptied
// itself — at open, it may hold an older stream, on a replica or after a
// crash before that wipe — is emptied before the snapshot goes in.
func (j *MetaJournal) maybeCompact() error {
	if j.appended < max(j.compactAt, j.snapLen) || len(j.pending) > 0 {
		return nil
	}
	if j.poisoned {
		// A previous attempt failed; compaction stays disabled until the
		// inactive region is verifiably wiped. Appends handle the wipe —
		// don't turn an optional compaction into a hard failure here.
		return nil
	}
	inactive := 1 - j.active
	b := j.blobs[inactive]
	if !j.wiped {
		if err := b.Truncate(0); err != nil {
			j.poisoned = true
			return err
		}
	}
	j.wiped = false
	// The snapshot is a function of the state alone — checksums by (disk,
	// ascending strip), transitions in order, KV by ascending key — so
	// equal journals compact to equal bytes and a cut that tears this write
	// is reproducible. It is sized first and built in one buffer.
	size := len(j.trans)*(frameHeaderLen+transitionLen) + frameHeaderLen + 1
	for _, m := range j.sums {
		size += len(m) * (frameHeaderLen + sumLen)
	}
	kvKeys := j.snapKeys[:0]
	for k, v := range j.kv {
		kvKeys = append(kvKeys, k)
		size += frameHeaderLen + kvLen(k, v)
	}
	sort.Strings(kvKeys)
	j.snapKeys = kvKeys
	buf := make([]byte, 0, size)
	var strips []int64
	for disk, m := range j.sums {
		strips = strips[:0]
		for strip := range m {
			strips = append(strips, strip)
		}
		slices.Sort(strips)
		for _, strip := range strips {
			buf = appendSumFrame(buf, disk, strip, m[strip])
		}
	}
	for _, tr := range j.trans {
		buf = appendTransitionFrame(buf, tr)
	}
	for _, k := range kvKeys {
		buf = appendKVFrame(buf, k, j.kv[k], false)
	}
	// Seal the snapshot: a merge refuses a headered region without it, so
	// a compaction torn between content and header on a replica minority
	// can never masquerade as a complete recovery source.
	buf = appendSnapEndFrame(buf)
	if _, err := b.WriteAt(buf, journalHeaderLen); err != nil {
		j.poisoned = true
		return err
	}
	if err := b.Sync(); err != nil {
		j.poisoned = true
		return err
	}
	if _, err := b.WriteAt(journalHeader(j.epoch+1), 0); err != nil {
		j.poisoned = true
		return err
	}
	if err := b.Sync(); err != nil {
		j.poisoned = true
		return err
	}
	old := j.active
	j.active = inactive
	j.epoch++
	j.off = journalHeaderLen + int64(len(buf))
	j.acked = j.off
	j.appended = 0
	j.snapLen = int64(len(buf))
	if err := j.blobs[old].Truncate(0); err != nil {
		j.poisoned = true
		return err
	}
	j.wiped = true
	return nil
}

// frameHeaderLen is the fixed prefix of a journal frame: the payload's
// length and its CRC-32C, four little-endian bytes each.
const frameHeaderLen = 8

// Payload lengths of the fixed-size records.
const (
	sumLen        = 1 + 4 + 8 + 4
	transitionLen = 1 + 1 + 4 + 8
)

// openFrame and sealFrame are the journal's one frame builder: openFrame
// extends buf by one frame with an n-byte payload and returns the region
// the record is then encoded into, in place; sealFrame stamps the header,
// taking the CRC over the payload where it lies. A record is written once:
// one buffer for a single append (buf nil), none for a frame that joins a
// buffer with room (the compaction snapshot).
//
// Every append gets a buffer of its own, never one pooled or reused.
// Blob.WriteAt may not retain it — but a region blob can be a netdev blob
// under a quorum blob, and net/http may still be reading a request body
// after its round trip has failed and WriteAt has returned. Nothing writes
// to a sealed frame, so that late read is harmless (as is the pending
// record aliasing a closure frame); reusing the buffer would make it a race.
func openFrame(buf []byte, n int) (frames, payload []byte) {
	off := len(buf) + frameHeaderLen
	buf = append(buf, make([]byte, frameHeaderLen+n)...)
	return buf, buf[off:]
}

// sealFrame completes the frame openFrame started: payload is the region
// openFrame returned and ends buf.
func sealFrame(buf, payload []byte) []byte {
	hdr := buf[len(buf)-len(payload)-frameHeaderLen:]
	le := binary.LittleEndian
	le.PutUint32(hdr, uint32(len(payload)))
	le.PutUint32(hdr[4:], crc32.Checksum(payload, castagnoli))
	return buf
}

// appendSumFrame appends one checksum record.
func appendSumFrame(buf []byte, disk int, strip int64, sum uint32) []byte {
	buf, payload := openFrame(buf, sumLen)
	payload[0] = recSum
	le := binary.LittleEndian
	le.PutUint32(payload[1:], uint32(disk))
	le.PutUint64(payload[5:], uint64(strip))
	le.PutUint32(payload[13:], sum)
	return sealFrame(buf, payload)
}

// appendTransitionFrame appends one state-transition record.
func appendTransitionFrame(buf []byte, tr Transition) []byte {
	buf, payload := openFrame(buf, transitionLen)
	payload[0] = recTransition
	payload[1] = byte(tr.Kind)
	le := binary.LittleEndian
	le.PutUint32(payload[2:], uint32(tr.Disk))
	le.PutUint64(payload[6:], tr.Generation)
	return sealFrame(buf, payload)
}

// appendSnapEndFrame appends the seal record.
func appendSnapEndFrame(buf []byte) []byte {
	buf, payload := openFrame(buf, 1)
	payload[0] = recSnapEnd
	return sealFrame(buf, payload)
}

// MergeJournalReplicas reassembles one journal region from replicas of
// the same byte stream, each possibly torn or holed (a replica that was
// unreachable for some writes holds zeros where the missed bytes would
// be, and a valid suffix beyond them). The writer's append discipline
// guarantees at most one frame value per offset across replicas, so the
// merge walks offsets and accepts a CRC-valid frame from any replica at
// each step; as long as every acknowledged frame reached a majority and
// the replicas span a majority, every acknowledged frame is present in
// at least one of them and the walk bridges any single replica's holes.
//
// The second return is false when the region is not an eligible recovery
// source: no replica has a valid header, or the merged stream carries no
// snapshot seal — the signature of a compaction that died between
// writing its content and its header, which may look complete on a
// minority replica but must lose to the still-active sibling region.
func MergeJournalReplicas(replicas [][]byte) ([]byte, bool) {
	var hdr []byte
	var hdrEpoch uint64
	for _, r := range replicas {
		if e, ok := parseJournalHeader(r); ok && (hdr == nil || e > hdrEpoch) {
			hdr = append([]byte(nil), r[:journalHeaderLen]...)
			hdrEpoch = e
		}
	}
	if hdr == nil {
		return nil, false
	}
	merged := hdr
	le := binary.LittleEndian
	off := journalHeaderLen
	sealed := false
walk:
	for {
		for _, r := range replicas {
			if off+8 > len(r) {
				continue
			}
			n := int(le.Uint32(r[off:]))
			crc := le.Uint32(r[off+4:])
			if n <= 0 || n > journalMaxPayload || off+8+n > len(r) {
				continue
			}
			payload := r[off+8 : off+8+n]
			if crc32.Checksum(payload, castagnoli) != crc {
				continue
			}
			merged = append(merged, r[off:off+8+n]...)
			if payload[0] == recSnapEnd {
				sealed = true
			}
			off += 8 + n
			continue walk
		}
		break
	}
	if !sealed {
		return nil, false
	}
	return merged, true
}

// Sync forces everything appended so far durable.
func (j *MetaJournal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrClosed
	}
	return j.blobs[j.active].Sync()
}

// Close closes both regions (without an implicit sync of lazily durable
// records).
func (j *MetaJournal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	err0 := j.blobs[0].Close()
	err1 := j.blobs[1].Close()
	if err0 != nil {
		return err0
	}
	return err1
}
