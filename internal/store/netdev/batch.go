package netdev

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"sync"

	"github.com/oiraid/oiraid/internal/store"
)

// Every strip op crosses the wire as one message of this codec, on a stream
// (stream.go, DESIGN.md §13): the client writes a read or write request, the
// node answers it with a message of the matching response kind. A node's
// share of a parity closure or of a rebuild window is one message each way,
// and a strip that travels alone is a message of one item.
//
// Message layout (big endian), the same for requests and responses:
//
//	0  4  magic "oSTB"
//	4  1  version (2)
//	5  1  kind
//	6  1  flags (bit 0: the message carries a fencing epoch)
//	7  1  reserved (zero)
//	8  4  length of the whole message, this header and the trailer included
//	12 8  fencing epoch (zero unless flagged)
//	20 4  item count
//	24 …  items
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
// A payload crosses the wire inside a strip-transport frame with its own
// checksum — a read response's items and a write request's items carry one —
// so the trailer covers only what the frames do not: the header, names,
// indices and verdicts. The length in the header is what lets a reader cut
// messages off a stream; the fence is in the header because a stream
// outlives the epochs its messages are sent under.
const (
	batchVersion   = 2
	batchLenEnd    = 12 // the header up to the length: what a stream reader needs first
	batchHeaderLen = 24
	batchItemMin   = 1 + 8 + 1 + 2 + 4
	batchTrailer   = 4

	kindReadReq   = 0x01 // items name strips
	kindReadResp  = 0x02 // items carry OpRead frames, or a code
	kindWriteReq  = 0x03 // items carry OpWrite frames
	kindWriteResp = 0x04 // items carry a code, or nothing

	flagFenced = 0x01

	// batchMaxBytes caps one message in either direction; a client splits a
	// larger group. With store's 128 KiB gather window only a group of strips
	// that are themselves megabytes comes near it.
	batchMaxBytes = 4 << 20
)

var batchMagic = [4]byte{'o', 'S', 'T', 'B'}

// fence is the fencing stamp of a write message: the epoch of the
// coordinator that sent it, when it has one (see SetFence).
type fence struct {
	epoch uint64
	on    bool
}

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
// exact size, stamped with f; each payload is framed where it lands. With
// fill, a payload's content is not copied from the item but produced in
// place — fill(i, p) for item i, whose Payload gives only the length and is
// left pointing at p — so a node reads strips off its devices straight into
// the response. Names and codes longer than a byte can count, or texts longer
// than two, are the caller's bug and are cut.
func encodeBatch(kind byte, f fence, items []batchItem, fill func(i int, p []byte)) []byte {
	size := batchHeaderLen + batchTrailer
	for i := range items {
		it := &items[i]
		it.Dev, it.Code, it.Msg = it.Dev[:min(len(it.Dev), 0xFF)], it.Code[:min(len(it.Code), 0xFF)], it.Msg[:min(len(it.Msg), 0xFFFF)]
		size += it.wireSize()
	}
	b := getMsg(size)[:batchHeaderLen] // a recycled buffer: every byte is written below
	copy(b, batchMagic[:])
	b[4], b[5], b[6], b[7] = batchVersion, kind, 0, 0
	if f.on {
		b[6] = flagFenced
	}
	binary.BigEndian.PutUint32(b[8:12], uint32(size))
	binary.BigEndian.PutUint64(b[12:20], f.epoch)
	binary.BigEndian.PutUint32(b[20:24], uint32(len(items)))
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

// readMessage cuts the next message off a stream into one buffer of its
// declared length (getMsg), reading the header's first batchLenEnd bytes
// into head first. A stream that ends between messages returns io.EOF. A
// header that is not this codec's, a length outside [header+trailer, max],
// or a message cut short is ErrBadFrame: the stream cannot be resynchronised
// after it. The message is checked no further; decodeBatch does that.
func readMessage(r io.Reader, head *[batchLenEnd]byte, max int) ([]byte, error) {
	if _, err := io.ReadFull(r, head[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			err = fmt.Errorf("%w: message header cut short", ErrBadFrame)
		}
		return nil, err
	}
	if [4]byte(head[0:4]) != batchMagic || head[4] != batchVersion {
		return nil, fmt.Errorf("%w: stream message header % x", ErrBadFrame, head[:8])
	}
	n := binary.BigEndian.Uint32(head[8:12])
	if n < batchHeaderLen+batchTrailer || int64(n) > int64(max) {
		return nil, fmt.Errorf("%w: stream message of %d bytes, bound is %d", ErrBadFrame, n, max)
	}
	b := getMsg(int(n))
	copy(b, head[:])
	if _, err := io.ReadFull(r, b[batchLenEnd:]); err != nil {
		return nil, fmt.Errorf("%w: message of %d bytes cut short: %v", ErrBadFrame, n, err)
	}
	return b, nil
}

// Message buffers of the small classes are recycled: a message's bytes live
// from its encoding, or its reading off a stream, until its answer has been
// taken apart or written back, and the next message of that class takes them.
// Those are the messages of single strips and of closures of small strips,
// the bulk of a coordinator's traffic. On the bench's cluster-4k (six
// alternating 20 s runs, go1.24) allocating every message instead set
// setup_s back from 0.0183 to 0.0221 s, write_mbps from 44 to 36 and
// mem_peak_mb up from 23.4 to 24.0 MiB. A larger message — a rebuild or
// migration window — is allocated and left to the collector: a pool holding
// windows of 128 KiB costs more resident memory than their allocation does.
const (
	msgMinShift = 12 // the smallest class: 4 KiB
	msgClasses  = 3  // 4, 8 and 16 KiB
)

var msgBufs [msgClasses]sync.Pool

// msgClass is the class of an n-byte message, msgClasses when it is past
// the largest.
func msgClass(n int) int {
	c := 0
	for n > 1<<(msgMinShift+c) && c < msgClasses {
		c++
	}
	return c
}

// getMsg returns a buffer of length n, recycled when its class has one.
func getMsg(n int) []byte {
	c := msgClass(n)
	if c == msgClasses {
		return make([]byte, n)
	}
	if b, ok := msgBufs[c].Get().(*[]byte); ok {
		return (*b)[:n]
	}
	return make([]byte, n, 1<<(msgMinShift+c))
}

// putMsg recycles a buffer getMsg returned once nothing refers to its bytes.
func putMsg(b []byte) {
	if c := msgClass(cap(b)); c < msgClasses && cap(b) == 1<<(msgMinShift+c) {
		msgBufs[c].Put(&b)
	}
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
// declared length, fence, trailer checksum, and every frame — its own
// checksum, the kind's op, the item's strip index, at most maxPayload bytes
// (negative: unbounded). Anything else is ErrBadFrame. The items' payloads
// alias b.
func decodeBatch(b []byte, kind byte, maxPayload int) ([]batchItem, fence, error) {
	var f fence
	bad := func(format string, args ...any) ([]batchItem, fence, error) {
		return nil, fence{}, fmt.Errorf("%w: batch: %s", ErrBadFrame, fmt.Sprintf(format, args...))
	}
	if len(b) < batchHeaderLen+batchTrailer {
		return bad("%d bytes", len(b))
	}
	if [4]byte(b[0:4]) != batchMagic || b[4] != batchVersion || b[6]&^flagFenced != 0 || b[7] != 0 {
		return bad("bad header % x", b[:8])
	}
	if b[5] != kind {
		return bad("kind %d, want %d", b[5], kind)
	}
	if n := binary.BigEndian.Uint32(b[8:12]); int64(n) != int64(len(b)) {
		return bad("%d bytes, header declares %d", len(b), n)
	}
	f.epoch, f.on = binary.BigEndian.Uint64(b[12:20]), b[6]&flagFenced != 0
	if !f.on && f.epoch != 0 {
		return bad("epoch %d without the fence flag", f.epoch)
	}
	r := batchReader{b: b, off: batchHeaderLen, end: len(b) - batchTrailer}
	count := binary.BigEndian.Uint32(b[20:24])
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
			return nil, fence{}, fmt.Errorf("batch item %d: %w", i, err)
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
	return items, f, nil
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

// stripBatch performs ops, all on devices of this node, in as few messages as
// batchMaxBytes allows, setting each op's Err. An op that fails its local
// geometry check is not sent.
func (c *NodeClient) stripBatch(ops []store.StripOp, write bool) {
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

// sendBatch is one message: items[k] is ops[sent[k]]. It goes through send
// like every strip message, so a transport failure or a torn answer lands on
// every op of it. The node's verdict on a single item lands on that op alone
// — unless the catalogue calls it retryable, in which case the whole message
// is, as the single op would have been. A write message is stamped with the
// client's fence as it is now; a deposed writer's message is refused item by
// item with ErrStaleEpoch.
func (c *NodeClient) sendBatch(ops []store.StripOp, sent []int, items []batchItem, write bool) {
	reqKind, respKind := byte(kindReadReq), byte(kindReadResp)
	var f fence
	if write {
		reqKind, respKind = kindWriteReq, kindWriteResp
		if t := c.fence.Load(); t != nil {
			f = fence{epoch: t.Epoch(), on: true}
		}
	}
	msg := encodeBatch(reqKind, f, items, nil)
	defer putMsg(msg)
	err := c.send(msg, func(answer []byte) error {
		defer putMsg(answer)
		got, _, err := decodeBatch(answer, respKind, -1)
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
