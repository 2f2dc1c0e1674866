package netdev

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"net/http"

	"github.com/oiraid/oiraid/internal/store"
)

// The batch RPC carries the strip ops of one request that share a node as
// one message each way (DESIGN.md §13): POST /node/v1/strips/read and
// POST /node/v1/strips/write. What an RPC costs on this plane is the round
// trip, not the bytes, so a strip that rides along is a fraction of a strip
// that travels alone.
//
// Batch layout (big endian), the same for requests and responses:
//
//	0  4  magic "oSTB"
//	4  1  version (1)
//	5  1  kind
//	6  2  reserved (zero)
//	8  4  item count
//	12 …  items
//	-4 4  CRC-32C of everything before it except the frames
//
// and each item:
//
//	1  device name length, then the name
//	8  strip index
//	1  error code length, then the code (responses; empty = done)
//	2  error text length, then the text
//	4  frame length, then the frame (0 = none)
//
// A payload still crosses the wire inside a strip-transport frame with its
// own checksum — a read response's items and a write request's items carry
// one — so the trailer covers only what the frames do not: names, indices
// and verdicts.
const (
	batchVersion   = 1
	batchHeaderLen = 12
	batchItemMin   = 1 + 8 + 1 + 2 + 4
	batchTrailer   = 4

	kindReadReq   = 0x01 // items name strips
	kindReadResp  = 0x02 // items carry OpRead frames, or a code
	kindWriteReq  = 0x03 // items carry OpWrite frames
	kindWriteResp = 0x04 // items carry a code, or nothing

	// batchMaxBytes caps one batch message in either direction; a client
	// splits a larger group. With store's 128 KiB gather window only a group
	// of strips that are themselves megabytes comes near it.
	batchMaxBytes = 4 << 20
)

var batchMagic = [4]byte{'o', 'S', 'T', 'B'}

// batchItem is one strip of a batch message.
type batchItem struct {
	Dev   string
	Strip int64
	// Code and Msg are a response item's verdict: the node catalogue's code
	// and the error's text, both empty for an op that was done.
	Code, Msg string
	// Payload is the content of the item's frame, nil for an item without
	// one. Decoded, it aliases the message.
	Payload []byte
}

// frameOp is the op of the frames a batch of the given kind carries, 0 when
// it carries none.
func frameOp(kind byte) byte {
	switch kind {
	case kindReadResp:
		return OpRead
	case kindWriteReq:
		return OpWrite
	}
	return 0
}

// batchStripMax is the largest strip of device dev that a batch message
// can carry alone: the cap less the message's framing and the item's.
func batchStripMax(dev string) int {
	return batchMaxBytes - batchHeaderLen - batchTrailer - batchItemMin - len(dev) - FrameHeaderLen
}

func (it *batchItem) wireSize() int {
	n := batchItemMin + len(it.Dev) + len(it.Code) + len(it.Msg)
	if it.Payload != nil {
		n += FrameHeaderLen + len(it.Payload)
	}
	return n
}

// encodeBatch builds the message of kind over items in one buffer of its
// exact size; each payload is framed where it lands. With fill, a payload's
// content is not copied from the item but produced in place — fill(i, p) for
// item i, whose Payload gives only the length and is left pointing at p — so
// a node reads strips off its devices straight into the response. Names and
// codes longer than a byte can count, or texts longer than two, are the
// caller's bug and are cut.
func encodeBatch(kind byte, items []batchItem, fill func(i int, p []byte)) []byte {
	size := batchHeaderLen + batchTrailer
	for i := range items {
		it := &items[i]
		it.Dev, it.Code, it.Msg = it.Dev[:min(len(it.Dev), 0xFF)], it.Code[:min(len(it.Code), 0xFF)], it.Msg[:min(len(it.Msg), 0xFFFF)]
		size += it.wireSize()
	}
	b := make([]byte, batchHeaderLen, size)
	copy(b, batchMagic[:])
	b[4], b[5] = batchVersion, kind
	binary.BigEndian.PutUint32(b[8:12], uint32(len(items)))
	sum, mark := uint32(0), 0 // b[mark:] is not yet in sum
	for i := range items {
		it := &items[i]
		b = append(append(b, byte(len(it.Dev))), it.Dev...)
		b = binary.BigEndian.AppendUint64(b, uint64(it.Strip))
		b = append(append(b, byte(len(it.Code))), it.Code...)
		b = append(binary.BigEndian.AppendUint16(b, uint16(len(it.Msg))), it.Msg...)
		if it.Payload == nil {
			b = binary.BigEndian.AppendUint32(b, 0)
			continue
		}
		b = binary.BigEndian.AppendUint32(b, uint32(FrameHeaderLen+len(it.Payload)))
		sum, mark = crc32.Update(sum, castagnoli, b[mark:]), len(b)+FrameHeaderLen+len(it.Payload)
		frame := b[len(b):mark]
		if fill != nil {
			it.Payload = frame[FrameHeaderLen:]
			fill(i, it.Payload)
		} else {
			copy(frame[FrameHeaderLen:], it.Payload)
		}
		sealFrame(frame, frameOp(kind), it.Strip)
		b = b[:mark]
	}
	return binary.BigEndian.AppendUint32(b, crc32.Update(sum, castagnoli, b[mark:]))
}

// batchReader walks a batch message's items; short is set, and stays set,
// once a field runs past the items' end.
type batchReader struct {
	b        []byte
	off, end int
	short    bool
}

func (r *batchReader) take(n int) []byte {
	if r.short || n > r.end-r.off {
		r.short = true
		return nil
	}
	r.off += n
	return r.b[r.off-n : r.off]
}

func (r *batchReader) uint(width int) (v uint64) {
	for _, c := range r.take(width) {
		v = v<<8 | uint64(c)
	}
	return v
}

// decodeBatch parses and validates a message of the given kind: structure,
// trailer checksum, and every frame — its own checksum, the kind's op, the
// item's strip index, at most maxPayload bytes (negative: unbounded).
// Anything else is ErrBadFrame. The items' payloads alias b.
func decodeBatch(b []byte, kind byte, maxPayload int) ([]batchItem, error) {
	bad := func(format string, args ...any) ([]batchItem, error) {
		return nil, fmt.Errorf("%w: batch: %s", ErrBadFrame, fmt.Sprintf(format, args...))
	}
	if len(b) < batchHeaderLen+batchTrailer {
		return bad("%d bytes", len(b))
	}
	if [4]byte(b[0:4]) != batchMagic || b[4] != batchVersion || b[6] != 0 || b[7] != 0 {
		return bad("bad header % x", b[:8])
	}
	if b[5] != kind {
		return bad("kind %d, want %d", b[5], kind)
	}
	r := batchReader{b: b, off: batchHeaderLen, end: len(b) - batchTrailer}
	count := binary.BigEndian.Uint32(b[8:12])
	if int64(count)*batchItemMin > int64(r.end-r.off) {
		return bad("%d items in %d bytes", count, len(b))
	}
	items := make([]batchItem, count)
	sum, mark := uint32(0), 0 // b[mark:r.off] is not yet in sum
	for i := range items {
		it := &items[i]
		it.Dev = string(r.take(int(r.uint(1))))
		it.Strip = int64(r.uint(8))
		it.Code = string(r.take(int(r.uint(1))))
		it.Msg = string(r.take(int(r.uint(2))))
		length := int(r.uint(4))
		if r.short {
			return bad("item %d cut short", i)
		}
		if length == 0 {
			continue
		}
		sum, mark = crc32.Update(sum, castagnoli, b[mark:r.off]), r.off+length
		frame := r.take(length)
		if frameOp(kind) == 0 || frame == nil {
			return bad("item %d: a frame of %d bytes", i, length)
		}
		fr, err := DecodeFrame(frame, maxPayload)
		if err != nil {
			return nil, fmt.Errorf("batch item %d: %w", i, err)
		}
		if fr.Op != frameOp(kind) || fr.Strip != it.Strip {
			return bad("item %d: frame op=%d strip=%d, want op=%d strip=%d", i, fr.Op, fr.Strip, frameOp(kind), it.Strip)
		}
		it.Payload = fr.Payload
	}
	if r.off != r.end {
		return bad("%d bytes after the last item", r.end-r.off)
	}
	if got, want := crc32.Update(sum, castagnoli, b[mark:r.end]), binary.BigEndian.Uint32(b[r.end:]); got != want {
		return bad("crc %08x, trailer says %08x", got, want)
	}
	return items, nil
}

// BatchKey implements store.StripBatcher: the strip ops of every device on
// one node can share a message.
func (d *NetDevice) BatchKey() any { return d.c }

// ReadStrips implements store.StripBatcher.
func (d *NetDevice) ReadStrips(ops []store.StripOp) { d.c.stripBatch(ops, false) }

// WriteStrips implements store.StripBatcher. Fenced like WriteStrip, and as
// idempotent: a batch whose ack was lost is re-sent whole.
func (d *NetDevice) WriteStrips(ops []store.StripOp) { d.c.stripBatch(ops, true) }

var _ store.StripBatcher = (*NetDevice)(nil)

// stripBatch performs ops, all on devices of this node, in as few batch RPCs
// as batchMaxBytes allows, setting each op's Err. An op that fails its local
// geometry check is not sent, and an op that is alone travels as the single
// strip it is: that RPC is the cheaper one by the batch's framing.
func (c *NodeClient) stripBatch(ops []store.StripOp, write bool) {
	if d, ok := ops[0].Dev.(*NetDevice); ok && len(ops) == 1 && d.c == c {
		if op := &ops[0]; write {
			op.Err = d.WriteStrip(op.Idx, op.Buf)
		} else {
			op.Err = d.ReadStrip(op.Idx, op.Buf)
		}
		return
	}
	sent := make([]int, 0, len(ops)) // indices into ops of the chunk being built
	items := make([]batchItem, 0, len(ops))
	size := 0 // of the chunk's larger message
	flush := func() {
		if len(sent) > 0 {
			c.sendBatch(ops, sent, items, write)
		}
		sent, items, size = sent[:0], items[:0], 0
	}
	for i := range ops {
		op := &ops[i]
		d, ok := op.Dev.(*NetDevice)
		if !ok || d.c != c {
			op.Err = fmt.Errorf("netdev: batch op on %T is not a device of %s", op.Dev, c.base)
			continue
		}
		if op.Err = d.check(op.Idx, op.Buf); op.Err != nil {
			continue
		}
		it := batchItem{Dev: d.name, Strip: op.Idx, Payload: op.Buf}
		n := it.wireSize() // the item with its frame: a write's request, a read's response
		if !write {
			it.Payload = nil
		}
		if len(sent) > 0 && batchHeaderLen+batchTrailer+size+n > batchMaxBytes {
			flush()
		}
		sent, items, size = append(sent, i), append(items, it), size+n
	}
	flush()
}

// sendBatch is one batch RPC: items[k] is ops[sent[k]]. It goes through do
// like every other call, so a transport failure, a torn response or a
// refusal of the whole message (a stale fencing epoch) lands on every op of
// it. The node's verdict on a single item lands on that op alone — unless
// the catalogue calls it retryable, in which case the whole batch is, as the
// single op would have been.
func (c *NodeClient) sendBatch(ops []store.StripOp, sent []int, items []batchItem, write bool) {
	url, reqKind, respKind := c.base+"/node/v1/strips/read", byte(kindReadReq), byte(kindReadResp)
	if write {
		url, reqKind, respKind = c.withFence(c.base+"/node/v1/strips/write"), kindWriteReq, kindWriteResp
	}
	rq := call{method: http.MethodPost, url: url, body: encodeBatch(reqKind, items, nil), ctype: octetStream}
	err := c.do(rq, func(resp *http.Response) error {
		body, err := readBody(resp, batchMaxBytes)
		if err != nil {
			return err
		}
		got, err := decodeBatch(body, respKind, -1)
		if err != nil {
			return err
		}
		if len(got) != len(items) {
			return fmt.Errorf("%w: batch of %d items answered with %d", ErrBadFrame, len(items), len(got))
		}
		for k := range got {
			it, op := &got[k], &ops[sent[k]]
			if it.Dev != items[k].Dev || it.Strip != items[k].Strip {
				return fmt.Errorf("%w: batch item %d answers %s/%d, want %s/%d", ErrBadFrame, k, it.Dev, it.Strip, items[k].Dev, items[k].Strip)
			}
			switch {
			case it.Code != "":
				var retryable bool
				if op.Err, retryable = itemError(it); retryable {
					return op.Err
				}
			case !write && len(it.Payload) != len(op.Buf):
				return fmt.Errorf("%w: batch item %d carries %d payload bytes, strip is %d", ErrBadFrame, k, len(it.Payload), len(op.Buf))
			default:
				if !write {
					copy(op.Buf, it.Payload)
				}
				op.Err = nil
			}
		}
		return nil
	})
	if err != nil {
		for _, i := range sent {
			ops[i].Err = err
		}
	}
}

// itemError turns a response item's verdict back into the catalogue's
// sentinel, as Catalogue.Decode does for a whole response.
func itemError(it *batchItem) (err error, retryable bool) {
	for _, row := range Catalogue {
		if row.Code == it.Code {
			if row.Err == nil {
				return fmt.Errorf("netdev: %s/%d: %s", it.Dev, it.Strip, it.Msg), row.Retryable
			}
			return fmt.Errorf("%w (%s)", row.Err, it.Msg), row.Retryable
		}
	}
	return fmt.Errorf("netdev: %s/%d: %s: %s", it.Dev, it.Strip, it.Code, it.Msg), false
}
