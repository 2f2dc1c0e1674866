package object

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/oiraid/oiraid/internal/engine"
	"github.com/oiraid/oiraid/internal/store"
)

// Journal key schema of the object plane. Everything the store needs to
// remount lives under these prefixes in the array's metadata journal (keys
// outside them are other planes' records, which mount leaves alone):
//
//	bkt/<bucket>          bucket record (creation time)
//	obj/<bucket>/<key>    committed object metadata (EncodeMeta)
//	txn/<id>              allocation intent of an in-flight PUT or part
//	upl/<id>              multipart upload root (bucket, key, user meta)
//	upl/<id>/p/<num>      committed part record (extents, size, CRC)
//
// An intent is journalled (fsync) before any data strip is written and
// retired in the same critical region that commits the record it was
// staged for; the record carries the intent id, so the mount-time sweep
// can tell "committed, clear the leftover intent" from "abandoned, free
// the strips".
const (
	kvBucketPrefix = "bkt/"
	kvObjPrefix    = "obj/"
	kvTxnPrefix    = "txn/"
	kvUplPrefix    = "upl/"
)

func kvBucket(b string) string    { return kvBucketPrefix + b }
func kvObject(b, k string) string { return kvObjPrefix + b + "/" + k }
func kvTxn(id uint64) string      { return kvTxnPrefix + strconv.FormatUint(id, 10) }
func kvUpload(id uint64) string   { return kvUplPrefix + strconv.FormatUint(id, 10) }
func kvPart(id uint64, n int) string {
	return fmt.Sprintf("%s%d/p/%05d", kvUplPrefix, id, n)
}

// maxListPage caps one LIST page.
const maxListPage = 1000

// Options tunes a Store.
type Options struct {
	// ChunkBytes sizes the pooled streaming buffer (rounded up to a
	// whole number of strips; default 256 KiB).
	ChunkBytes int
	// Journal overrides the metadata journal (tests). By default the
	// store uses the mounted array's journal, or a volatile in-memory
	// one for arrays without a durable metadata plane.
	Journal *store.MetaJournal
}

// Store is the bucket/object layer over one engine. All data I/O flows
// through the engine's context-aware strip API, so admission control,
// hedged reads, and degraded-mode reconstruction apply to object
// traffic transparently.
type Store struct {
	eng   *engine.Engine
	jn    *store.MetaJournal
	sb    int64 // strip bytes
	chunk int64 // pooled buffer size (multiple of sb)
	pool  sync.Pool

	mu       sync.Mutex
	alloc    *allocator
	buckets  map[string]*bucketState
	uploads  map[uint64]*upload
	inflight map[uint64][]run // intents staged but not yet committed/aborted
	pins     map[uint64]int   // active readers per object generation (Meta.Txn)
	parked   map[uint64][]Extent
	seq      uint64
	swept    int // abandoned intents garbage-collected at mount
}

type bucketState struct {
	created int64
	objects map[string]*Meta
}

type upload struct {
	bucket, key string
	created     int64
	userMeta    map[string]string
	parts       map[int]*part
	completing  bool
}

type part struct {
	txn     uint64
	size    int64
	crc     uint32
	extents []Extent
}

// New mounts the object plane over eng: it replays the journal's
// object-plane records, rebuilds the free-strip bitmap from committed
// extents, and sweeps allocation intents whose PUT never committed.
func New(eng *engine.Engine, opts Options) (*Store, error) {
	jn := opts.Journal
	if jn == nil {
		if m := eng.Array().Meta(); m != nil {
			jn = m.Journal()
		}
	}
	if jn == nil {
		// Memory-backed array without a durable metadata plane: the
		// object plane still works, its metadata is just as volatile as
		// the data.
		var err error
		jn, err = store.OpenMetaJournal(store.NewMemBlob(), store.NewMemBlob())
		if err != nil {
			return nil, err
		}
	}
	sb := int64(eng.StripBytes())
	chunk := int64(opts.ChunkBytes)
	if chunk <= 0 {
		chunk = 256 << 10
	}
	chunk = (chunk + sb - 1) / sb * sb
	s := &Store{
		eng:      eng,
		jn:       jn,
		sb:       sb,
		chunk:    chunk,
		alloc:    newAllocator(eng.Strips()),
		buckets:  make(map[string]*bucketState),
		uploads:  make(map[uint64]*upload),
		inflight: make(map[uint64][]run),
		pins:     make(map[uint64]int),
		parked:   make(map[uint64][]Extent),
	}
	s.pool.New = func() any { return make([]byte, s.chunk) }
	if err := s.mount(); err != nil {
		return nil, err
	}
	return s, nil
}

// mount rebuilds the in-memory state from the journal and sweeps
// abandoned allocation intents. Processing order matters: buckets,
// then committed objects, then uploads and their parts (extents are
// marked as they are seen — a strip claimed twice is hard corruption),
// and intents last, when everything committed is known.
func (s *Store) mount() error {
	keys, values := s.jn.KVRange("")
	type rawKV struct {
		key   string
		value []byte
	}
	var objs, roots, parts, txns []rawKV
	for i, k := range keys {
		switch {
		case strings.HasPrefix(k, kvBucketPrefix):
			name := k[len(kvBucketPrefix):]
			if ValidateBucketName(name) != nil || len(values[i]) != 8 {
				return fmt.Errorf("%w: bucket record %q", ErrMetaCorrupt, k)
			}
			s.buckets[name] = &bucketState{
				created: int64(binary.LittleEndian.Uint64(values[i])),
				objects: make(map[string]*Meta),
			}
		case strings.HasPrefix(k, kvObjPrefix):
			objs = append(objs, rawKV{k, values[i]})
		case strings.HasPrefix(k, kvTxnPrefix):
			txns = append(txns, rawKV{k, values[i]})
		case strings.HasPrefix(k, kvUplPrefix):
			if strings.Contains(k[len(kvUplPrefix):], "/") {
				parts = append(parts, rawKV{k, values[i]})
			} else {
				roots = append(roots, rawKV{k, values[i]})
			}
		default:
			// Another plane's record: the KV space is shared, and a cluster
			// coordinator keeps its manifest and migration records in it.
		}
	}

	fromUpload := make(map[uint64]bool)
	for _, kv := range objs {
		bucket, key, err := splitObjectKey(kv.key)
		if err != nil {
			return err
		}
		b, ok := s.buckets[bucket]
		if !ok {
			return fmt.Errorf("%w: object %q in unknown bucket", ErrMetaCorrupt, kv.key)
		}
		m, err := DecodeMeta(kv.value)
		if err != nil {
			return fmt.Errorf("object %q: %w", kv.key, err)
		}
		if err := s.markExtents(m.Extents); err != nil {
			return fmt.Errorf("object %q: %w", kv.key, err)
		}
		b.objects[key] = m
		if m.Upload != 0 {
			fromUpload[m.Upload] = true
		}
		s.bumpSeq(m.Txn)
		s.bumpSeq(m.Upload)
	}

	// Uploads: a root whose id a committed object references is the
	// leftover of a complete that crashed between the object commit and
	// the upload cleanup — its records are retired, its extents belong
	// to the object now.
	stale := make(map[uint64]bool)
	for _, kv := range roots {
		id, err := parseID(kv.key[len(kvUplPrefix):])
		if err != nil {
			return err
		}
		s.bumpSeq(id)
		if fromUpload[id] {
			stale[id] = true
			if err := s.jn.DeleteKV(kv.key, false); err != nil {
				return err
			}
			continue
		}
		u, err := decodeUpload(kv.value)
		if err != nil {
			return fmt.Errorf("upload %d: %w", id, err)
		}
		if _, ok := s.buckets[u.bucket]; !ok {
			return fmt.Errorf("%w: upload %d in unknown bucket %q", ErrMetaCorrupt, id, u.bucket)
		}
		s.uploads[id] = u
	}
	for _, kv := range parts {
		id, num, err := parsePartKey(kv.key)
		if err != nil {
			return err
		}
		u, ok := s.uploads[id]
		if !ok {
			// Orphaned part record (aborted or completed upload): its
			// extents are unreferenced, just retire the record.
			if err := s.jn.DeleteKV(kv.key, false); err != nil {
				return err
			}
			continue
		}
		p, err := decodePart(kv.value)
		if err != nil {
			return fmt.Errorf("upload %d part %d: %w", id, num, err)
		}
		if err := s.markExtents(p.extents); err != nil {
			return fmt.Errorf("upload %d part %d: %w", id, num, err)
		}
		u.parts[num] = p
		s.bumpSeq(p.txn)
	}

	// Intents last: an intent whose target record exists under the same
	// id committed — only the leftover intent record needs retiring. An
	// intent with no committed target is an interrupted PUT/part: its
	// strips were never marked above, so deleting the record is the
	// whole garbage collection.
	for _, kv := range txns {
		id, err := parseID(kv.key[len(kvTxnPrefix):])
		if err != nil {
			return err
		}
		s.bumpSeq(id)
		target, _, err := decodeIntent(kv.value)
		if err != nil {
			return fmt.Errorf("intent %d: %w", id, err)
		}
		if !s.intentCommitted(id, target) {
			s.swept++
		}
		if err := s.jn.DeleteKV(kv.key, false); err != nil {
			return err
		}
	}
	return nil
}

// intentCommitted reports whether the record an intent was staged for
// exists and carries the intent's id.
func (s *Store) intentCommitted(id uint64, target string) bool {
	if bucket, key, err := splitObjectKey(target); err == nil {
		if b, ok := s.buckets[bucket]; ok {
			if m, ok := b.objects[key]; ok && m.Txn == id {
				return true
			}
		}
		return false
	}
	if uid, num, err := parsePartKey(target); err == nil {
		if u, ok := s.uploads[uid]; ok {
			if p, ok := u.parts[num]; ok && p.txn == id {
				return true
			}
		}
	}
	return false
}

func (s *Store) markExtents(exts []Extent) error {
	for _, e := range exts {
		if e.Bytes > int64(e.Strips)*s.sb {
			return fmt.Errorf("%w: extent bytes %d exceed %d strips", ErrMetaCorrupt, e.Bytes, e.Strips)
		}
		if err := s.alloc.mark(e.Start, int64(e.Strips)); err != nil {
			return err
		}
	}
	return nil
}

func (s *Store) bumpSeq(id uint64) {
	if id >= s.seq {
		s.seq = id
	}
}

func splitObjectKey(k string) (bucket, key string, err error) {
	rest, ok := strings.CutPrefix(k, kvObjPrefix)
	if !ok {
		return "", "", fmt.Errorf("%w: not an object key %q", ErrMetaCorrupt, k)
	}
	i := strings.IndexByte(rest, '/')
	if i <= 0 || i == len(rest)-1 {
		return "", "", fmt.Errorf("%w: malformed object key %q", ErrMetaCorrupt, k)
	}
	return rest[:i], rest[i+1:], nil
}

func parseID(s string) (uint64, error) {
	id, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("%w: bad id %q", ErrMetaCorrupt, s)
	}
	return id, nil
}

func parsePartKey(k string) (id uint64, num int, err error) {
	rest, ok := strings.CutPrefix(k, kvUplPrefix)
	if !ok {
		return 0, 0, fmt.Errorf("%w: not a part key %q", ErrMetaCorrupt, k)
	}
	idStr, partStr, ok := strings.Cut(rest, "/p/")
	if !ok {
		return 0, 0, fmt.Errorf("%w: malformed part key %q", ErrMetaCorrupt, k)
	}
	if id, err = parseID(idStr); err != nil {
		return 0, 0, err
	}
	n, perr := strconv.Atoi(partStr)
	if perr != nil || n < 1 || n > maxPartNumber {
		return 0, 0, fmt.Errorf("%w: part number %q", ErrMetaCorrupt, partStr)
	}
	return id, n, nil
}

// Swept returns the number of abandoned allocation intents garbage-
// collected at mount (diagnostics, crash tests).
func (s *Store) Swept() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.swept
}

// ---- buckets ----

// BucketInfo describes one bucket.
type BucketInfo struct {
	Name    string    `json:"name"`
	Objects int       `json:"objects"`
	Created time.Time `json:"created"`
}

// CreateBucket creates an empty bucket (fsynced before returning).
func (s *Store) CreateBucket(ctx context.Context, name string) error {
	if err := ValidateBucketName(name); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.buckets[name]; ok {
		return fmt.Errorf("%w: %q", ErrBucketExists, name)
	}
	now := time.Now().UnixNano()
	var v [8]byte
	binary.LittleEndian.PutUint64(v[:], uint64(now))
	if err := s.jn.PutKV(kvBucket(name), v[:], true); err != nil {
		return err
	}
	s.buckets[name] = &bucketState{created: now, objects: make(map[string]*Meta)}
	return nil
}

// DeleteBucket removes an empty bucket; a bucket holding objects or
// active multipart uploads is refused with ErrBucketNotEmpty.
func (s *Store) DeleteBucket(ctx context.Context, name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.buckets[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoSuchBucket, name)
	}
	if len(b.objects) > 0 {
		return fmt.Errorf("%w: %q holds %d objects", ErrBucketNotEmpty, name, len(b.objects))
	}
	for _, u := range s.uploads {
		if u.bucket == name {
			return fmt.Errorf("%w: %q has an active multipart upload", ErrBucketNotEmpty, name)
		}
	}
	if err := s.jn.DeleteKV(kvBucket(name), true); err != nil {
		return err
	}
	delete(s.buckets, name)
	return nil
}

// ListBuckets returns every bucket in name order.
func (s *Store) ListBuckets(ctx context.Context) []BucketInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]BucketInfo, 0, len(s.buckets))
	for name, b := range s.buckets {
		out = append(out, BucketInfo{Name: name, Objects: len(b.objects), Created: time.Unix(0, b.created).UTC()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ---- objects ----

// PutObject streams exactly size bytes from r into newly allocated
// strips and commits the object atomically: the metadata record is the
// commit point, so a concurrent or later reader sees either the whole
// object or (on overwrite) the whole previous one, never a mix. The
// allocation intent is durable before the first data write; if the PUT
// fails or power is cut, the strips are reclaimed (immediately, or by
// the mount-time sweep).
func (s *Store) PutObject(ctx context.Context, bucket, key string, r io.Reader, size int64, userMeta map[string]string) (Info, error) {
	if err := ValidateBucketName(bucket); err != nil {
		return Info{}, err
	}
	if err := ValidateObjectKey(key); err != nil {
		return Info{}, err
	}
	if err := validateUserMeta(userMeta); err != nil {
		return Info{}, err
	}
	if size < 0 {
		return Info{}, fmt.Errorf("%w: negative size %d", ErrBadName, size)
	}
	objKey := kvObject(bucket, key)
	txn, runs, err := s.stage(bucket, objKey, size)
	if err != nil {
		return Info{}, err
	}
	exts, whole, err := s.writeRuns(ctx, r, size, runs)
	if err != nil {
		s.abortStage(txn, runs)
		return Info{}, err
	}
	now := time.Now().UnixNano()
	meta := &Meta{
		Txn:      txn,
		Size:     size,
		Created:  now,
		Modified: now,
		CRC:      whole,
		ETag:     fmt.Sprintf("%08x", whole),
		UserMeta: copyStringMap(userMeta),
		Extents:  exts,
	}
	info, err := s.commitObject(bucket, key, meta, 0)
	if err != nil {
		s.abortStage(txn, runs)
		return Info{}, err
	}
	return info, nil
}

// stage allocates strips for size bytes and journals the allocation
// intent (fsync) targeting targetKey — the write-ahead barrier of the
// PUT protocol.
func (s *Store) stage(bucket, targetKey string, size int64) (txn uint64, runs []run, err error) {
	strips := (size + s.sb - 1) / s.sb
	s.mu.Lock()
	if _, ok := s.buckets[bucket]; !ok {
		s.mu.Unlock()
		return 0, nil, fmt.Errorf("%w: %q", ErrNoSuchBucket, bucket)
	}
	runs, err = s.alloc.alloc(strips)
	if err != nil {
		s.mu.Unlock()
		return 0, nil, err
	}
	s.seq++
	txn = s.seq
	s.inflight[txn] = runs
	s.mu.Unlock()
	if err := s.jn.PutKV(kvTxn(txn), encodeIntent(targetKey, runs), true); err != nil {
		s.abortStage(txn, runs)
		return 0, nil, err
	}
	return txn, runs, nil
}

// abortStage returns staged strips to the free pool and retires the
// intent record (lazily durable: a replayed intent with no committed
// target is swept at mount anyway).
func (s *Store) abortStage(txn uint64, runs []run) {
	s.mu.Lock()
	for _, r := range runs {
		s.alloc.release(r.start, r.n)
	}
	delete(s.inflight, txn)
	s.mu.Unlock()
	_ = s.jn.DeleteKV(kvTxn(txn), false)
}

// commitObject is the minimum critical region of a PUT: journal the
// metadata record, retire the intent (one fsync covers both), swap the
// index entry, release the overwritten generation.
func (s *Store) commitObject(bucket, key string, meta *Meta, upload uint64) (Info, error) {
	enc, err := EncodeMeta(meta)
	if err != nil {
		return Info{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.buckets[bucket]
	if !ok {
		return Info{}, fmt.Errorf("%w: %q", ErrNoSuchBucket, bucket)
	}
	if err := s.jn.PutKV(kvObject(bucket, key), enc, false); err != nil {
		return Info{}, err
	}
	if err := s.jn.DeleteKV(kvTxn(meta.Txn), true); err != nil {
		return Info{}, err
	}
	delete(s.inflight, meta.Txn)
	if old, ok := b.objects[key]; ok {
		meta.Created = old.Created
		s.freeMetaLocked(old)
	}
	b.objects[key] = meta
	return meta.info(bucket, key), nil
}

// freeMetaLocked releases an object generation's extents, deferring
// the release while readers of that generation are still streaming.
func (s *Store) freeMetaLocked(m *Meta) {
	if s.pins[m.Txn] > 0 {
		s.parked[m.Txn] = append(s.parked[m.Txn], m.Extents...)
		return
	}
	for _, e := range m.Extents {
		s.alloc.release(e.Start, int64(e.Strips))
	}
}

func (s *Store) unpin(txn uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pins[txn]--; s.pins[txn] <= 0 {
		delete(s.pins, txn)
		for _, e := range s.parked[txn] {
			s.alloc.release(e.Start, int64(e.Strips))
		}
		delete(s.parked, txn)
	}
}

// writeRuns streams exactly size bytes from r into the allocated runs
// through the pooled buffer, padding the tail of each run to a strip
// boundary so every engine write is full-strip: the data strip is not
// merged with its old content, though each strip's parity closure is
// still read and rewritten. It returns the extent list (with per-extent
// CRCs) and the whole-object CRC.
func (s *Store) writeRuns(ctx context.Context, r io.Reader, size int64, runs []run) ([]Extent, uint32, error) {
	buf := s.pool.Get().([]byte)
	defer s.pool.Put(buf)
	var (
		exts      []Extent
		whole     uint32
		remaining = size
	)
	for _, rn := range runs {
		content := min(remaining, rn.n*s.sb)
		ext := Extent{Start: rn.start, Strips: int32(rn.n), Bytes: content}
		off := rn.start * s.sb
		left := content
		for left > 0 {
			chunk := int(min(left, int64(len(buf))))
			if _, err := io.ReadFull(r, buf[:chunk]); err != nil {
				return nil, 0, fmt.Errorf("object: reading payload: %w", err)
			}
			ext.CRC = crc32.Update(ext.CRC, castagnoli, buf[:chunk])
			wlen := chunk
			if int64(chunk) == left { // final chunk of the run: pad to strip boundary
				wlen = int((int64(chunk) + s.sb - 1) / s.sb * s.sb)
				for i := chunk; i < wlen; i++ {
					buf[i] = 0
				}
			}
			if _, err := s.eng.WriteAtCtx(ctx, buf[:wlen], off); err != nil {
				return nil, 0, fmt.Errorf("object: writing strips: %w", err)
			}
			off += int64(wlen)
			left -= int64(chunk)
		}
		remaining -= content
		whole = crcCombine(whole, ext.CRC, content)
		exts = append(exts, ext)
	}
	if remaining != 0 {
		return nil, 0, fmt.Errorf("%w: runs cover %d of %d bytes", ErrMetaCorrupt, size-remaining, size)
	}
	return exts, whole, nil
}

// GetObject streams the object's content to w, verifying per-extent
// and whole-object CRCs as it goes, and returns the object's Info. The
// object's strips are pinned for the duration, so a concurrent DELETE
// or overwrite cannot recycle them under the reader.
func (s *Store) GetObject(ctx context.Context, bucket, key string, w io.Writer) (Info, error) {
	s.mu.Lock()
	m, err := s.lookupLocked(bucket, key)
	if err != nil {
		s.mu.Unlock()
		return Info{}, err
	}
	s.pins[m.Txn]++
	info := m.info(bucket, key)
	exts := append([]Extent(nil), m.Extents...)
	txn, wantCRC := m.Txn, m.CRC
	s.mu.Unlock()
	defer s.unpin(txn)

	buf := s.pool.Get().([]byte)
	defer s.pool.Put(buf)
	var whole uint32
	for _, e := range exts {
		var extCRC uint32
		off := e.Start * s.sb
		left := e.Bytes
		for left > 0 {
			chunk := int(min(left, int64(len(buf))))
			if _, err := s.eng.ReadAtCtx(ctx, buf[:chunk], off); err != nil {
				return info, fmt.Errorf("object: reading strips: %w", err)
			}
			extCRC = crc32.Update(extCRC, castagnoli, buf[:chunk])
			if _, err := w.Write(buf[:chunk]); err != nil {
				return info, fmt.Errorf("object: writing payload: %w", err)
			}
			off += int64(chunk)
			left -= int64(chunk)
		}
		if extCRC != e.CRC {
			return info, fmt.Errorf("%w: extent at strip %d", ErrCorruptObject, e.Start)
		}
		whole = crcCombine(whole, extCRC, e.Bytes)
	}
	if whole != wantCRC {
		return info, fmt.Errorf("%w: whole-object checksum", ErrCorruptObject)
	}
	return info, nil
}

// StatObject returns the object's Info without reading data.
func (s *Store) StatObject(ctx context.Context, bucket, key string) (Info, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, err := s.lookupLocked(bucket, key)
	if err != nil {
		return Info{}, err
	}
	return m.info(bucket, key), nil
}

// DeleteObject removes the object (fsynced) and frees its strips once
// no reader is streaming them.
func (s *Store) DeleteObject(ctx context.Context, bucket, key string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.buckets[bucket]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoSuchBucket, bucket)
	}
	m, ok := b.objects[key]
	if !ok {
		return fmt.Errorf("%w: %s/%s", ErrNoSuchObject, bucket, key)
	}
	if err := s.jn.DeleteKV(kvObject(bucket, key), true); err != nil {
		return err
	}
	delete(b.objects, key)
	s.freeMetaLocked(m)
	return nil
}

func (s *Store) lookupLocked(bucket, key string) (*Meta, error) {
	b, ok := s.buckets[bucket]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchBucket, bucket)
	}
	m, ok := b.objects[key]
	if !ok {
		return nil, fmt.Errorf("%w: %s/%s", ErrNoSuchObject, bucket, key)
	}
	return m, nil
}

// ListPage is one page of a LIST: objects in key order, strictly after
// After, matching Prefix.
type ListPage struct {
	Objects   []Info `json:"objects"`
	Truncated bool   `json:"truncated"`
	// NextAfter is the cursor for the next page when Truncated.
	NextAfter string `json:"next_after,omitempty"`
}

// ListObjects returns up to max objects of the bucket in key order,
// filtered by prefix, starting strictly after the `after` cursor.
func (s *Store) ListObjects(ctx context.Context, bucket, prefix, after string, max int) (ListPage, error) {
	if max <= 0 || max > maxListPage {
		max = maxListPage
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.buckets[bucket]
	if !ok {
		return ListPage{}, fmt.Errorf("%w: %q", ErrNoSuchBucket, bucket)
	}
	keys := make([]string, 0, len(b.objects))
	for k := range b.objects {
		if strings.HasPrefix(k, prefix) && k > after {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	page := ListPage{}
	for i, k := range keys {
		if i == max {
			page.Truncated = true
			page.NextAfter = keys[i-1]
			break
		}
		page.Objects = append(page.Objects, b.objects[k].info(bucket, k))
	}
	return page, nil
}

// ---- fsck ----

// FsckReport is the allocator consistency report: the bitmap recomputed
// from every journalled reference (objects, parts, staged intents,
// parked frees) compared bit-for-bit with the live one.
type FsckReport struct {
	Buckets int   `json:"buckets"`
	Objects int   `json:"objects"`
	Uploads int   `json:"uploads"`
	Used    int64 `json:"used_strips"`
	Free    int64 `json:"free_strips"`
	// Leaked counts strips allocated in the bitmap that no record
	// references; Missing counts referenced strips the bitmap thinks
	// are free; Doubled counts strips referenced more than once.
	Leaked  int64 `json:"leaked"`
	Missing int64 `json:"missing"`
	Doubled int64 `json:"doubled"`
	Clean   bool  `json:"clean"`
}

// Fsck cross-checks the free-strip bitmap against every extent
// reference the store knows about.
func (s *Store) Fsck() FsckReport {
	s.mu.Lock()
	defer s.mu.Unlock()
	rep := FsckReport{Buckets: len(s.buckets), Uploads: len(s.uploads)}
	want := newAllocator(s.alloc.strips)
	ref := func(start, n int64) {
		for i := start; i < start+n && i < want.strips; i++ {
			if want.allocated(i) {
				rep.Doubled++
				continue
			}
			want.set(i)
		}
	}
	for _, b := range s.buckets {
		rep.Objects += len(b.objects)
		for _, m := range b.objects {
			for _, e := range m.Extents {
				ref(e.Start, int64(e.Strips))
			}
		}
	}
	for _, u := range s.uploads {
		for _, p := range u.parts {
			for _, e := range p.extents {
				ref(e.Start, int64(e.Strips))
			}
		}
	}
	for _, runs := range s.inflight {
		for _, r := range runs {
			ref(r.start, r.n)
		}
	}
	for _, exts := range s.parked {
		for _, e := range exts {
			ref(e.Start, int64(e.Strips))
		}
	}
	for i := int64(0); i < s.alloc.strips; i++ {
		have := s.alloc.allocated(i)
		need := want.allocated(i)
		switch {
		case have && !need:
			rep.Leaked++
		case !have && need:
			rep.Missing++
		}
	}
	rep.Used = s.alloc.used()
	rep.Free = s.alloc.free
	rep.Clean = rep.Leaked == 0 && rep.Missing == 0 && rep.Doubled == 0 &&
		rep.Used == s.alloc.popcount()
	return rep
}

// ---- small helpers ----

func copyStringMap(m map[string]string) map[string]string {
	if len(m) == 0 {
		return nil
	}
	out := make(map[string]string, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// encodeIntent serialises an allocation intent: the key of the record
// the staged strips are destined for, plus the staged runs.
func encodeIntent(target string, runs []run) []byte {
	le := binary.LittleEndian
	buf := make([]byte, 0, 2+len(target)+4+16*len(runs))
	buf = le.AppendUint16(buf, uint16(len(target)))
	buf = append(buf, target...)
	buf = le.AppendUint32(buf, uint32(len(runs)))
	for _, r := range runs {
		buf = le.AppendUint64(buf, uint64(r.start))
		buf = le.AppendUint64(buf, uint64(r.n))
	}
	return buf
}

func decodeIntent(v []byte) (target string, runs []run, err error) {
	le := binary.LittleEndian
	if len(v) < 2 {
		return "", nil, fmt.Errorf("%w: short intent", ErrMetaCorrupt)
	}
	klen := int(le.Uint16(v))
	if 2+klen+4 > len(v) {
		return "", nil, fmt.Errorf("%w: intent target length %d", ErrMetaCorrupt, klen)
	}
	target = string(v[2 : 2+klen])
	off := 2 + klen
	n := int(le.Uint32(v[off:]))
	off += 4
	if n < 0 || off+16*n != len(v) {
		return "", nil, fmt.Errorf("%w: intent run count %d", ErrMetaCorrupt, n)
	}
	for i := 0; i < n; i++ {
		r := run{start: int64(le.Uint64(v[off:])), n: int64(le.Uint64(v[off+8:]))}
		off += 16
		if r.start < 0 || r.n <= 0 {
			return "", nil, fmt.Errorf("%w: intent run [%d,+%d)", ErrMetaCorrupt, r.start, r.n)
		}
		runs = append(runs, r)
	}
	return target, runs, nil
}

func encodeUpload(u *upload) []byte {
	le := binary.LittleEndian
	buf := make([]byte, 0, 16+len(u.bucket)+len(u.key))
	buf = le.AppendUint16(buf, uint16(len(u.bucket)))
	buf = append(buf, u.bucket...)
	buf = le.AppendUint16(buf, uint16(len(u.key)))
	buf = append(buf, u.key...)
	buf = le.AppendUint64(buf, uint64(u.created))
	buf = le.AppendUint16(buf, uint16(len(u.userMeta)))
	for _, k := range sortedKeys(u.userMeta) {
		buf = le.AppendUint16(buf, uint16(len(k)))
		buf = append(buf, k...)
		buf = le.AppendUint16(buf, uint16(len(u.userMeta[k])))
		buf = append(buf, u.userMeta[k]...)
	}
	return buf
}

func decodeUpload(v []byte) (*upload, error) {
	le := binary.LittleEndian
	u := &upload{parts: make(map[int]*part)}
	off := 0
	getStr := func(limit int) (string, bool) {
		if off+2 > len(v) {
			return "", false
		}
		n := int(le.Uint16(v[off:]))
		off += 2
		if n > limit || off+n > len(v) {
			return "", false
		}
		s := string(v[off : off+n])
		off += n
		return s, true
	}
	var ok bool
	if u.bucket, ok = getStr(maxBucketName); !ok {
		return nil, fmt.Errorf("%w: upload bucket", ErrMetaCorrupt)
	}
	if u.key, ok = getStr(maxObjectKey); !ok {
		return nil, fmt.Errorf("%w: upload key", ErrMetaCorrupt)
	}
	if off+8+2 > len(v) {
		return nil, fmt.Errorf("%w: short upload record", ErrMetaCorrupt)
	}
	u.created = int64(le.Uint64(v[off:]))
	off += 8
	n := int(le.Uint16(v[off:]))
	off += 2
	if n > maxUserMeta {
		return nil, fmt.Errorf("%w: upload user-metadata count %d", ErrMetaCorrupt, n)
	}
	if n > 0 {
		u.userMeta = make(map[string]string, n)
	}
	for i := 0; i < n; i++ {
		k, ok := getStr(maxUserMetaKV)
		if !ok {
			return nil, fmt.Errorf("%w: upload user-metadata key", ErrMetaCorrupt)
		}
		val, ok := getStr(maxUserMetaKV)
		if !ok {
			return nil, fmt.Errorf("%w: upload user-metadata value", ErrMetaCorrupt)
		}
		u.userMeta[k] = val
	}
	if off != len(v) {
		return nil, fmt.Errorf("%w: %d trailing upload bytes", ErrMetaCorrupt, len(v)-off)
	}
	return u, nil
}

func encodePart(p *part) []byte {
	le := binary.LittleEndian
	buf := make([]byte, 0, 24+24*len(p.extents))
	buf = le.AppendUint64(buf, p.txn)
	buf = le.AppendUint64(buf, uint64(p.size))
	buf = le.AppendUint32(buf, p.crc)
	buf = le.AppendUint32(buf, uint32(len(p.extents)))
	for _, e := range p.extents {
		buf = le.AppendUint64(buf, uint64(e.Start))
		buf = le.AppendUint32(buf, uint32(e.Strips))
		buf = le.AppendUint64(buf, uint64(e.Bytes))
		buf = le.AppendUint32(buf, e.CRC)
	}
	return buf
}

func decodePart(v []byte) (*part, error) {
	le := binary.LittleEndian
	if len(v) < 24 {
		return nil, fmt.Errorf("%w: short part record", ErrMetaCorrupt)
	}
	p := &part{
		txn:  le.Uint64(v),
		size: int64(le.Uint64(v[8:])),
		crc:  le.Uint32(v[16:]),
	}
	n := int(le.Uint32(v[20:]))
	if p.size < 0 || n > maxExtents || 24+24*n != len(v) {
		return nil, fmt.Errorf("%w: part extent count %d", ErrMetaCorrupt, n)
	}
	off := 24
	var total int64
	for i := 0; i < n; i++ {
		e := Extent{
			Start:  int64(le.Uint64(v[off:])),
			Strips: int32(le.Uint32(v[off+8:])),
			Bytes:  int64(le.Uint64(v[off+12:])),
			CRC:    le.Uint32(v[off+20:]),
		}
		off += 24
		if e.Start < 0 || e.Strips <= 0 || e.Bytes <= 0 {
			return nil, fmt.Errorf("%w: part extent %d out of bounds", ErrMetaCorrupt, i)
		}
		total += e.Bytes
		p.extents = append(p.extents, e)
	}
	if total != p.size {
		return nil, fmt.Errorf("%w: part extents cover %d of %d bytes", ErrMetaCorrupt, total, p.size)
	}
	return p, nil
}
