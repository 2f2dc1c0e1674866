package object

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"time"
	"unicode/utf8"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// crcCombine returns the CRC-32C of a‖b given crcA, the CRC-32C of a, and
// crcB, that of b, which is lenB bytes long — without touching the bytes, so
// an object's whole CRC follows from its extents' CRCs. It is zlib's
// crc32_combine over the Castagnoli polynomial: crcA shifted past lenB zero
// bytes (a multiply by x^(8·lenB) modulo the polynomial), xored with crcB.
func crcCombine(crcA, crcB uint32, lenB int64) uint32 {
	return crcMulMod(crcXPow8n(lenB), crcA) ^ crcB
}

// crcPoly is the Castagnoli polynomial, bit-reversed as the table uses it:
// bit 31 is x^0.
const crcPoly = 0x82f63b78

// crcMulMod returns a·b modulo crcPoly.
func crcMulMod(a, b uint32) uint32 {
	var p uint32
	for m := uint32(1) << 31; m != 0 && a != 0; m >>= 1 {
		if a&m != 0 {
			p ^= b
			a ^= m
		}
		if b&1 != 0 {
			b = b>>1 ^ crcPoly
		} else {
			b >>= 1
		}
	}
	return p
}

// crcXPow8n returns x^(8·n) modulo crcPoly, by squaring: x^8, x^16, x^32, …
// for the bits set in n.
func crcXPow8n(n int64) uint32 {
	p, sq := uint32(1)<<31, uint32(1)<<(31-8) // x^0, x^8
	for ; n > 0; n >>= 1 {
		if n&1 != 0 {
			p = crcMulMod(sq, p)
		}
		sq = crcMulMod(sq, sq)
	}
	return p
}

// Name limits, S3-ish: bucket names are DNS-label-like, object keys are
// printable UTF-8 paths (slashes allowed, they are just bytes).
const (
	minBucketName = 3
	maxBucketName = 63
	maxObjectKey  = 1024
	maxUserMeta   = 32   // distinct user-metadata keys per object
	maxUserMetaKV = 2048 // bytes per user-metadata key or value
	maxExtents    = 1 << 20
)

// ValidateBucketName enforces the bucket grammar: 3–63 characters of
// [a-z0-9.-], starting and ending alphanumeric, no "..".
func ValidateBucketName(name string) error {
	if len(name) < minBucketName || len(name) > maxBucketName {
		return fmt.Errorf("%w: bucket %q length %d not in [%d,%d]", ErrBadName, name, len(name), minBucketName, maxBucketName)
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9':
		case c == '.' || c == '-':
			if i == 0 || i == len(name)-1 {
				return fmt.Errorf("%w: bucket %q must start and end alphanumeric", ErrBadName, name)
			}
			if c == '.' && name[i-1] == '.' {
				return fmt.Errorf("%w: bucket %q contains %q", ErrBadName, name, "..")
			}
		default:
			return fmt.Errorf("%w: bucket %q contains byte %#x", ErrBadName, name, c)
		}
	}
	return nil
}

// ValidateObjectKey enforces the key grammar: 1–1024 bytes of valid
// UTF-8 with no control characters.
func ValidateObjectKey(key string) error {
	if len(key) == 0 || len(key) > maxObjectKey {
		return fmt.Errorf("%w: key length %d not in [1,%d]", ErrBadName, len(key), maxObjectKey)
	}
	if !utf8.ValidString(key) {
		return fmt.Errorf("%w: key is not valid UTF-8", ErrBadName)
	}
	for _, r := range key {
		if r < 0x20 || r == 0x7f {
			return fmt.Errorf("%w: key contains control character %#x", ErrBadName, r)
		}
	}
	return nil
}

func validateUserMeta(m map[string]string) error {
	if len(m) > maxUserMeta {
		return fmt.Errorf("%w: %d user-metadata keys, max %d", ErrBadName, len(m), maxUserMeta)
	}
	for k, v := range m {
		if len(k) == 0 || len(k) > maxUserMetaKV || len(v) > maxUserMetaKV {
			return fmt.Errorf("%w: user-metadata entry %q too large", ErrBadName, k)
		}
	}
	return nil
}

// Extent is one run of logical strips holding part of an object's
// content. Bytes is the content length within the run — the final
// strip of a run may be partially used, the remainder is padding.
type Extent struct {
	Start  int64  // first logical strip
	Strips int32  // strips in the run
	Bytes  int64  // content bytes (0 < Bytes <= Strips*stripBytes)
	CRC    uint32 // CRC-32C of the content bytes
}

// Meta is the durable metadata record of one committed object.
type Meta struct {
	// Txn is the allocation-intent id the object committed under; the
	// mount-time sweep uses it to tell a committed intent from an
	// abandoned one.
	Txn uint64
	// Upload is the multipart upload id the object was assembled from
	// (0 for a simple PUT); the mount-time sweep uses it to retire the
	// upload's part records without treating their extents as
	// double-allocated.
	Upload   uint64
	Size     int64
	Created  int64 // unix nanoseconds
	Modified int64
	CRC      uint32 // whole-object CRC-32C
	Parts    int32  // parts the object was assembled from (0 = simple PUT)
	ETag     string
	UserMeta map[string]string
	Extents  []Extent
}

const (
	metaMagic   = "OIM1"
	metaVersion = 1
)

// EncodeMeta serialises the record with a trailing CRC-32C. The layout
// is versioned and length-prefixed throughout so DecodeMeta can reject
// arbitrary corruption without panicking.
func EncodeMeta(m *Meta) ([]byte, error) {
	if len(m.ETag) > 255 {
		return nil, fmt.Errorf("%w: etag length %d", ErrBadName, len(m.ETag))
	}
	if err := validateUserMeta(m.UserMeta); err != nil {
		return nil, err
	}
	if len(m.Extents) > maxExtents {
		return nil, fmt.Errorf("%w: %d extents", ErrMetaCorrupt, len(m.Extents))
	}
	le := binary.LittleEndian
	buf := make([]byte, 0, 128+24*len(m.Extents))
	buf = append(buf, metaMagic...)
	buf = append(buf, metaVersion)
	buf = le.AppendUint64(buf, m.Txn)
	buf = le.AppendUint64(buf, m.Upload)
	buf = le.AppendUint64(buf, uint64(m.Size))
	buf = le.AppendUint64(buf, uint64(m.Created))
	buf = le.AppendUint64(buf, uint64(m.Modified))
	buf = le.AppendUint32(buf, m.CRC)
	buf = le.AppendUint32(buf, uint32(m.Parts))
	buf = append(buf, byte(len(m.ETag)))
	buf = append(buf, m.ETag...)
	buf = le.AppendUint32(buf, uint32(len(m.Extents)))
	for _, e := range m.Extents {
		buf = le.AppendUint64(buf, uint64(e.Start))
		buf = le.AppendUint32(buf, uint32(e.Strips))
		buf = le.AppendUint64(buf, uint64(e.Bytes))
		buf = le.AppendUint32(buf, e.CRC)
	}
	buf = le.AppendUint16(buf, uint16(len(m.UserMeta)))
	for _, k := range sortedKeys(m.UserMeta) {
		buf = le.AppendUint16(buf, uint16(len(k)))
		buf = append(buf, k...)
		buf = le.AppendUint16(buf, uint16(len(m.UserMeta[k])))
		buf = append(buf, m.UserMeta[k]...)
	}
	return le.AppendUint32(buf, crc32.Checksum(buf, castagnoli)), nil
}

// DecodeMeta parses a record produced by EncodeMeta, validating magic,
// version, CRC, and every field bound. It never panics on arbitrary
// input (fuzzed by FuzzObjectMetaDecode).
func DecodeMeta(buf []byte) (*Meta, error) {
	le := binary.LittleEndian
	if len(buf) < 4+1+8*5+4+4+1+4+2+4 {
		return nil, fmt.Errorf("%w: record too short (%d bytes)", ErrMetaCorrupt, len(buf))
	}
	if string(buf[:4]) != metaMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrMetaCorrupt)
	}
	if got := le.Uint32(buf[len(buf)-4:]); got != crc32.Checksum(buf[:len(buf)-4], castagnoli) {
		return nil, fmt.Errorf("%w: bad checksum", ErrMetaCorrupt)
	}
	if buf[4] != metaVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrMetaCorrupt, buf[4])
	}
	body := buf[:len(buf)-4]
	off := 5
	need := func(n int) bool { return off+n <= len(body) }
	if !need(8*5 + 4 + 4 + 1) {
		return nil, fmt.Errorf("%w: truncated header", ErrMetaCorrupt)
	}
	m := &Meta{
		Txn:      le.Uint64(body[off:]),
		Upload:   le.Uint64(body[off+8:]),
		Size:     int64(le.Uint64(body[off+16:])),
		Created:  int64(le.Uint64(body[off+24:])),
		Modified: int64(le.Uint64(body[off+32:])),
		CRC:      le.Uint32(body[off+40:]),
		Parts:    int32(le.Uint32(body[off+44:])),
	}
	off += 48
	etagLen := int(body[off])
	off++
	if m.Size < 0 || m.Parts < 0 || !need(etagLen) {
		return nil, fmt.Errorf("%w: header fields out of bounds", ErrMetaCorrupt)
	}
	m.ETag = string(body[off : off+etagLen])
	off += etagLen
	if !need(4) {
		return nil, fmt.Errorf("%w: truncated extent count", ErrMetaCorrupt)
	}
	nExt := int(le.Uint32(body[off:]))
	off += 4
	if nExt > maxExtents || !need(24*nExt) {
		return nil, fmt.Errorf("%w: extent count %d out of bounds", ErrMetaCorrupt, nExt)
	}
	var total int64
	for i := 0; i < nExt; i++ {
		e := Extent{
			Start:  int64(le.Uint64(body[off:])),
			Strips: int32(le.Uint32(body[off+8:])),
			Bytes:  int64(le.Uint64(body[off+12:])),
			CRC:    le.Uint32(body[off+20:]),
		}
		off += 24
		if e.Start < 0 || e.Strips <= 0 || e.Bytes <= 0 {
			return nil, fmt.Errorf("%w: extent %d out of bounds (%+v)", ErrMetaCorrupt, i, e)
		}
		total += e.Bytes
		m.Extents = append(m.Extents, e)
	}
	if total != m.Size {
		return nil, fmt.Errorf("%w: extents cover %d bytes, size %d", ErrMetaCorrupt, total, m.Size)
	}
	if !need(2) {
		return nil, fmt.Errorf("%w: truncated user-metadata count", ErrMetaCorrupt)
	}
	nUser := int(le.Uint16(body[off:]))
	off += 2
	if nUser > maxUserMeta {
		return nil, fmt.Errorf("%w: %d user-metadata keys", ErrMetaCorrupt, nUser)
	}
	if nUser > 0 {
		m.UserMeta = make(map[string]string, nUser)
	}
	for i := 0; i < nUser; i++ {
		if !need(2) {
			return nil, fmt.Errorf("%w: truncated user-metadata key", ErrMetaCorrupt)
		}
		klen := int(le.Uint16(body[off:]))
		off += 2
		if klen == 0 || klen > maxUserMetaKV || !need(klen+2) {
			return nil, fmt.Errorf("%w: user-metadata key length %d", ErrMetaCorrupt, klen)
		}
		k := string(body[off : off+klen])
		off += klen
		vlen := int(le.Uint16(body[off:]))
		off += 2
		if vlen > maxUserMetaKV || !need(vlen) {
			return nil, fmt.Errorf("%w: user-metadata value length %d", ErrMetaCorrupt, vlen)
		}
		m.UserMeta[k] = string(body[off : off+vlen])
		off += vlen
	}
	if off != len(body) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrMetaCorrupt, len(body)-off)
	}
	return m, nil
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
}

// Info is the caller-facing view of an object (JSON-ready; the HTTP
// plane serves it verbatim).
type Info struct {
	Bucket   string            `json:"bucket"`
	Key      string            `json:"key"`
	Size     int64             `json:"size"`
	ETag     string            `json:"etag"`
	CRC      uint32            `json:"crc32c"`
	Parts    int32             `json:"parts,omitempty"`
	Extents  int               `json:"extents"`
	Created  time.Time         `json:"created"`
	Modified time.Time         `json:"modified"`
	UserMeta map[string]string `json:"user_meta,omitempty"`
}

func (m *Meta) info(bucket, key string) Info {
	um := make(map[string]string, len(m.UserMeta))
	for k, v := range m.UserMeta {
		um[k] = v
	}
	if len(um) == 0 {
		um = nil
	}
	return Info{
		Bucket:   bucket,
		Key:      key,
		Size:     m.Size,
		ETag:     m.ETag,
		CRC:      m.CRC,
		Parts:    m.Parts,
		Extents:  len(m.Extents),
		Created:  time.Unix(0, m.Created).UTC(),
		Modified: time.Unix(0, m.Modified).UTC(),
		UserMeta: um,
	}
}
