package object

import (
	"context"
	"fmt"
	"hash/crc32"
	"io"
	"sort"
	"strconv"
	"time"
)

// maxPartNumber bounds multipart part numbers (1-based, S3-ish).
const maxPartNumber = 10000

// PartInfo describes one committed part of a multipart upload.
type PartInfo struct {
	Part int    `json:"part"`
	Size int64  `json:"size"`
	ETag string `json:"etag"`
}

// CreateUpload starts a multipart upload and returns its id. The root
// record is fsynced, so an upload (and the parts committed into it)
// survives a restart until completed or aborted.
func (s *Store) CreateUpload(ctx context.Context, bucket, key string, userMeta map[string]string) (string, error) {
	if err := ValidateBucketName(bucket); err != nil {
		return "", err
	}
	if err := ValidateObjectKey(key); err != nil {
		return "", err
	}
	if err := validateUserMeta(userMeta); err != nil {
		return "", err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.buckets[bucket]; !ok {
		return "", fmt.Errorf("%w: %q", ErrNoSuchBucket, bucket)
	}
	s.seq++
	id := s.seq
	u := &upload{
		bucket:   bucket,
		key:      key,
		created:  time.Now().UnixNano(),
		userMeta: copyStringMap(userMeta),
		parts:    make(map[int]*part),
	}
	if err := s.jn.PutKV(kvUpload(id), encodeUpload(u), true); err != nil {
		return "", err
	}
	s.uploads[id] = u
	return strconv.FormatUint(id, 10), nil
}

// lookupUpload resolves an upload id against the (bucket, key) it was
// created for.
func (s *Store) lookupUploadLocked(bucket, key, uploadID string) (uint64, *upload, error) {
	id, err := strconv.ParseUint(uploadID, 10, 64)
	if err != nil {
		return 0, nil, fmt.Errorf("%w: id %q", ErrNoSuchUpload, uploadID)
	}
	u, ok := s.uploads[id]
	if !ok || u.bucket != bucket || u.key != key || u.completing {
		return 0, nil, fmt.Errorf("%w: id %q", ErrNoSuchUpload, uploadID)
	}
	return id, u, nil
}

// UploadPart streams one part into newly allocated strips under the
// same staged write-then-commit protocol as PutObject; the part record
// (fsynced) is the commit point. Re-uploading a part number replaces
// the previous part and frees its strips.
func (s *Store) UploadPart(ctx context.Context, bucket, key, uploadID string, partNum int, r io.Reader, size int64) (PartInfo, error) {
	if partNum < 1 || partNum > maxPartNumber {
		return PartInfo{}, fmt.Errorf("%w: part number %d not in [1,%d]", ErrBadUpload, partNum, maxPartNumber)
	}
	if size < 0 {
		return PartInfo{}, fmt.Errorf("%w: negative part size %d", ErrBadUpload, size)
	}
	s.mu.Lock()
	id, _, err := s.lookupUploadLocked(bucket, key, uploadID)
	s.mu.Unlock()
	if err != nil {
		return PartInfo{}, err
	}
	partKey := kvPart(id, partNum)
	txn, runs, err := s.stage(bucket, partKey, size)
	if err != nil {
		return PartInfo{}, err
	}
	exts, crc, err := s.writeRuns(ctx, r, size, runs)
	if err != nil {
		s.abortStage(txn, runs)
		return PartInfo{}, err
	}
	p := &part{txn: txn, size: size, crc: crc, extents: exts}

	s.mu.Lock()
	defer s.mu.Unlock()
	_, u, err := s.lookupUploadLocked(bucket, key, uploadID)
	if err != nil {
		// Aborted while we streamed: release our strips, retire the intent.
		for _, rn := range runs {
			s.alloc.release(rn.start, rn.n)
		}
		delete(s.inflight, txn)
		_ = s.jn.DeleteKV(kvTxn(txn), false)
		return PartInfo{}, err
	}
	if err := s.jn.PutKV(partKey, encodePart(p), false); err != nil {
		return PartInfo{}, err
	}
	if err := s.jn.DeleteKV(kvTxn(txn), true); err != nil {
		return PartInfo{}, err
	}
	delete(s.inflight, txn)
	if old, ok := u.parts[partNum]; ok {
		for _, e := range old.extents {
			s.alloc.release(e.Start, int64(e.Strips))
		}
	}
	u.parts[partNum] = p
	return PartInfo{Part: partNum, Size: size, ETag: fmt.Sprintf("%08x", crc)}, nil
}

// CompleteUpload assembles the uploaded parts, in part-number order,
// into one committed object. The object's content is read back once to
// compute (and verify) the whole-object CRC, then the object commits
// in the same critical region shape as PutObject; the upload's records
// are retired in the same batch. The object's ETag is S3-multipart-
// style: a CRC over the part CRCs, suffixed with the part count.
func (s *Store) CompleteUpload(ctx context.Context, bucket, key, uploadID string) (Info, error) {
	s.mu.Lock()
	id, u, err := s.lookupUploadLocked(bucket, key, uploadID)
	if err != nil {
		s.mu.Unlock()
		return Info{}, err
	}
	if len(u.parts) == 0 {
		s.mu.Unlock()
		return Info{}, fmt.Errorf("%w: upload %s has no parts", ErrBadUpload, uploadID)
	}
	u.completing = true // block concurrent abort/upload-part while assembling
	nums := make([]int, 0, len(u.parts))
	for n := range u.parts {
		nums = append(nums, n)
	}
	sort.Ints(nums)
	var (
		exts    []Extent
		size    int64
		etagSum []byte
	)
	for _, n := range nums {
		p := u.parts[n]
		exts = append(exts, p.extents...)
		size += p.size
		var crcLE [4]byte
		crcLE[0], crcLE[1], crcLE[2], crcLE[3] = byte(p.crc), byte(p.crc>>8), byte(p.crc>>16), byte(p.crc>>24)
		etagSum = append(etagSum, crcLE[:]...)
	}
	s.seq++
	txn := s.seq
	s.mu.Unlock()

	whole, err := s.readBackCRC(ctx, exts)
	if err != nil {
		s.mu.Lock()
		u.completing = false
		s.mu.Unlock()
		return Info{}, err
	}
	now := time.Now().UnixNano()
	meta := &Meta{
		Txn:      txn,
		Upload:   id,
		Size:     size,
		Created:  now,
		Modified: now,
		CRC:      whole,
		Parts:    int32(len(nums)),
		ETag:     fmt.Sprintf("%08x-%d", crc32.Checksum(etagSum, castagnoli), len(nums)),
		UserMeta: copyStringMap(u.userMeta),
		Extents:  exts,
	}
	enc, err := EncodeMeta(meta)
	if err != nil {
		s.mu.Lock()
		u.completing = false
		s.mu.Unlock()
		return Info{}, err
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.buckets[bucket]
	if !ok {
		u.completing = false
		return Info{}, fmt.Errorf("%w: %q", ErrNoSuchBucket, bucket)
	}
	// Commit order matters for the mount-time sweep: the object record
	// (carrying Upload=id) lands before the upload records are retired,
	// so a crash anywhere in this batch leaves either a live upload or
	// a committed object that claims the upload's extents — never both
	// owning the strips, never neither.
	if err := s.jn.PutKV(kvObject(bucket, key), enc, false); err != nil {
		u.completing = false
		return Info{}, err
	}
	for _, n := range nums {
		if err := s.jn.DeleteKV(kvPart(id, n), false); err != nil {
			u.completing = false
			return Info{}, err
		}
	}
	if err := s.jn.DeleteKV(kvUpload(id), true); err != nil {
		u.completing = false
		return Info{}, err
	}
	if old, ok := b.objects[key]; ok {
		meta.Created = old.Created
		s.freeMetaLocked(old)
	}
	b.objects[key] = meta
	delete(s.uploads, id)
	return meta.info(bucket, key), nil
}

// readBackCRC streams the assembled extents once, verifying each
// extent CRC and computing the whole-object CRC — both an integrity
// check that every part actually landed and the source of Meta.CRC.
func (s *Store) readBackCRC(ctx context.Context, exts []Extent) (uint32, error) {
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
				return 0, fmt.Errorf("object: reading back part: %w", err)
			}
			extCRC = crc32.Update(extCRC, castagnoli, buf[:chunk])
			off += int64(chunk)
			left -= int64(chunk)
		}
		if extCRC != e.CRC {
			return 0, fmt.Errorf("%w: part extent at strip %d", ErrCorruptObject, e.Start)
		}
		whole = crcCombine(whole, extCRC, e.Bytes)
	}
	return whole, nil
}

// AbortUpload discards an upload: the root record is deleted (fsynced
// — the abort is durable), part records are retired, strips freed.
func (s *Store) AbortUpload(ctx context.Context, bucket, key, uploadID string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	id, u, err := s.lookupUploadLocked(bucket, key, uploadID)
	if err != nil {
		return err
	}
	if err := s.jn.DeleteKV(kvUpload(id), true); err != nil {
		return err
	}
	for n, p := range u.parts {
		_ = s.jn.DeleteKV(kvPart(id, n), false)
		for _, e := range p.extents {
			s.alloc.release(e.Start, int64(e.Strips))
		}
	}
	delete(s.uploads, id)
	return nil
}
