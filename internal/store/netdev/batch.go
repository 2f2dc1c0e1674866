// Package netdev is the network plane of the data path: it exports local
// strip devices and blobs from a *storage node* over upgraded HTTP streams,
// and implements store.Device / store.Blob clients that a coordinator mounts
// an array across. The package is built robustness-first:
//
//   - Every call a coordinator makes to a node — a device or blob op, the
//     identity ping, the inventory read, the lease — crosses the wire as a
//     message of one codec
//     (this file), whose trailer is a CRC-32C over every byte before it, so
//     a torn or bit-flipped answer is detected at the codec and retried
//     instead of being written into the array as data, and a damaged
//     request is refused before anything it names is touched.
//   - NodeClient bounds every operation with a per-attempt deadline and
//     runs it through the tree's one retry loop and circuit breaker
//     (internal/retry), and probes an unreachable node in the background
//     until it answers again.
//   - Unreachability is classified by a grace window: within it the
//     client returns store.ErrUnreachable (transient — the engine
//     reconstructs reads around the node and retries writes); once the
//     window elapses the node is declared lost and errors become
//     store.ErrPermanent, which drives the existing evict→spare→rebuild
//     heal path.
package netdev

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sync"

	"github.com/oiraid/oiraid/internal/store"
)

// Every call a coordinator makes to a node crosses the wire as one message of
// this codec, on a stream (stream.go, DESIGN.md §13): the client writes a
// request, the node answers it with a message of the request's kind plus one.
// A node's share of a parity closure or of a rebuild window is one message
// each way, a strip that travels alone is a message of one item, and so is
// each device or blob op, each ping, inventory read and lease.
//
// Message layout (big endian), the same for requests and answers:
//
//	0  4  magic "oSTB"
//	4  1  version (5)
//	5  1  kind
//	6  1  flags (bit 0: the message carries a fencing epoch)
//	7  1  reserved (zero)
//	8  4  length of the whole message, this header and the trailer included
//	12 8  fencing epoch (zero unless flagged)
//	20 4  item count
//	24 …  items
//	-4 4  CRC-32C of every byte before it
//
// and each item:
//
//	1  name length, then the name of the device or blob, or a lease's holder
//	8  strip: a strip index, a blob offset, the first strip of a sums op,
//	   the strip count of a device create, a lease's epoch
//	8  size: the bytes of a blob read, the size of a truncate, the strips
//	   of a sums op, the strip bytes of a device create, 1 for a lease
//	   renewal (0: an acquire); in a blob stat answer, the blob's size
//	8  generation: a blob op's stamp (0: none); in a read or stat answer,
//	   the blob's
//	1  flags (bit 0, in a blob read's answer: the read ran off the end)
//	1  error code length, then the code (answers; empty = done)
//	2  error text length, then the text
//	4  payload length, then the payload (0 = none)
//
// Only strip-write and blob-write requests, and strip-read, sums, blob-read,
// ping and stat answers, carry payloads (hasPayload). The one checksum covers the
// header, the items and their payloads, and is checked before any item is
// parsed, so nothing a damaged message names is touched. The length in the
// header is what lets a reader cut messages off a stream; the fence is in the
// header because a stream outlives the epochs its messages are sent under.
const (
	batchVersion   = 5
	batchLenEnd    = 12 // the header up to the length: what a stream reader needs first
	batchHeaderLen = 24
	batchItemMin   = 1 + 8 + 8 + 8 + 1 + 1 + 2 + 4
	batchTrailer   = 4

	// Every request kind is odd, and its answer is the kind after it.
	kindReadReq      = 0x01 // items name strips
	kindReadResp     = 0x02 // items carry the strips, or a code
	kindWriteReq     = 0x03 // items carry the strips
	kindWriteResp    = 0x04 // items carry a code, or nothing
	kindDevCreate    = 0x05
	kindDevDelete    = 0x07
	kindDevSums      = 0x09 // answered with 4-byte CRC-32Cs, one per strip
	kindBlobCreate   = 0x0B
	kindBlobDelete   = 0x0D
	kindBlobRead     = 0x0F // answered with the bytes read
	kindBlobWrite    = 0x11 // items carry the bytes to write
	kindBlobSync     = 0x13
	kindBlobTruncate = 0x15
	kindBlobStat     = 0x17
	kindPing         = 0x19 // answered with the node's id
	kindStat         = 0x1B // answered with the node's inventory, NodeStat's JSON
	kindLease        = 0x1D // acquires or renews the lease (meta.go)
	kindEnd          = 0x1F // past the last kind

	flagFenced = 0x01 // message
	flagEOF    = 0x01 // item

	// batchMaxBytes caps one message in either direction; a client splits a
	// larger group. With store's 128 KiB gather window only a group of strips
	// that are themselves megabytes comes near it.
	batchMaxBytes = 4 << 20
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrBadFrame reports a message that failed validation: short or oversized,
// wrong magic or version, a length field that disagrees with the body, a
// payload on a kind that carries none, or a checksum mismatch. On an answer
// it means the bytes were torn or corrupted in flight and the operation is
// retried; on a request the node refuses the whole message, so damaged bytes
// never reach media.
var ErrBadFrame = errors.New("netdev: bad message on the node wire")

// mutates reports whether a request of kind changes the node behind the
// fence, and so carries the client's. A lease moves the fence itself, by
// rules of its own (meta.go).
func mutates(kind byte) bool {
	switch kind {
	case kindReadReq, kindDevSums, kindBlobRead, kindBlobStat, kindPing, kindStat, kindLease:
		return false
	}
	return true
}

// hasPayload reports whether the items of a message of kind carry payloads.
func hasPayload(kind byte) bool {
	switch kind {
	case kindReadResp, kindWriteReq, kindDevSums + 1, kindBlobRead + 1, kindBlobWrite, kindPing + 1, kindStat + 1:
		return true
	}
	return false
}

var batchMagic = [4]byte{'o', 'S', 'T', 'B'}

// fence is the fencing stamp of a mutating message: the epoch of the
// coordinator that sent it, when it has one (see SetFence).
type fence struct {
	epoch uint64
	on    bool
}

// batchItem is one op of a batch message: a strip, or a device or blob op.
type batchItem struct {
	Name  string
	Strip int64  // see the item layout above
	Size  int64  // see the item layout above
	Gen   uint64 // a blob's generation stamp, 0 for none
	EOF   bool   // a blob read's answer: the read ran off the end
	// Code and Msg are a response item's verdict: the node catalogue's code
	// and the error's text, both empty for an op that was done.
	Code, Msg string
	// Payload is the item's bytes, nil for none: an empty payload decodes
	// as nil. Decoded, it aliases the message.
	Payload []byte
}

// batchStripMax is the largest payload — a strip, a chunk of a blob — that a
// batch message can carry alone for the device or blob name: the cap less
// the message's header and trailer and the item's fields.
func batchStripMax(name string) int {
	return batchMaxBytes - batchHeaderLen - batchTrailer - batchItemMin - len(name)
}

func (it *batchItem) wireSize() int {
	return batchItemMin + len(it.Name) + len(it.Code) + len(it.Msg) + len(it.Payload)
}

// encodeBatch builds the message of kind over items in one buffer of its
// exact size, stamped with f. With fill, a payload's content is not copied
// from the item but produced in place — fill(i, p) for item i, whose Payload
// gives only the length and is left pointing at p — so a node reads strips
// off its devices straight into the response. Names and codes longer than a
// byte can count, or texts longer than two, are the caller's bug and are cut.
func encodeBatch(kind byte, f fence, items []batchItem, fill func(i int, p []byte)) []byte {
	size := batchHeaderLen + batchTrailer
	for i := range items {
		it := &items[i]
		it.Name, it.Code, it.Msg = it.Name[:min(len(it.Name), 0xFF)], it.Code[:min(len(it.Code), 0xFF)], it.Msg[:min(len(it.Msg), 0xFFFF)]
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
	for i := range items {
		it := &items[i]
		b = append(append(b, byte(len(it.Name))), it.Name...)
		b = binary.BigEndian.AppendUint64(b, uint64(it.Strip))
		b = binary.BigEndian.AppendUint64(b, uint64(it.Size))
		b = binary.BigEndian.AppendUint64(b, it.Gen)
		var flags byte
		if it.EOF {
			flags = flagEOF
		}
		b = append(b, flags)
		b = append(append(b, byte(len(it.Code))), it.Code...)
		b = append(binary.BigEndian.AppendUint16(b, uint16(len(it.Msg))), it.Msg...)
		b = binary.BigEndian.AppendUint32(b, uint32(len(it.Payload)))
		if len(it.Payload) == 0 {
			continue
		}
		payload := b[len(b) : len(b)+len(it.Payload)]
		if fill != nil {
			it.Payload = payload
			fill(i, payload)
		} else {
			copy(payload, it.Payload)
		}
		b = b[:len(b)+len(payload)]
	}
	return binary.BigEndian.AppendUint32(b, crc32.Checksum(b, castagnoli))
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

// decodeBatch parses and validates a message of the given kind: its
// structure, declared length and fence, the trailer's checksum (before any
// item is parsed), and that only a kind that carries payloads carries one.
// Anything else is ErrBadFrame. The items' payloads alias b.
func decodeBatch(b []byte, kind byte) ([]batchItem, fence, error) {
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
	end := len(b) - batchTrailer
	if got, want := crc32.Checksum(b[:end], castagnoli), binary.BigEndian.Uint32(b[end:]); got != want {
		return bad("crc %08x, trailer says %08x", got, want)
	}
	f.epoch, f.on = binary.BigEndian.Uint64(b[12:20]), b[6]&flagFenced != 0
	if !f.on && f.epoch != 0 {
		return bad("epoch %d without the fence flag", f.epoch)
	}
	r := batchReader{b: b, off: batchHeaderLen, end: end}
	count := binary.BigEndian.Uint32(b[20:24])
	if int64(count)*batchItemMin > int64(r.end-r.off) {
		return bad("%d items in %d bytes", count, len(b))
	}
	items := make([]batchItem, count)
	for i := range items {
		it := &items[i]
		it.Name = string(r.take(int(r.uint(1))))
		it.Strip = int64(r.uint(8))
		it.Size = int64(r.uint(8))
		it.Gen = r.uint(8)
		flags := r.uint(1)
		it.EOF = flags&flagEOF != 0
		it.Code = string(r.take(int(r.uint(1))))
		it.Msg = string(r.take(int(r.uint(2))))
		payload := r.take(int(r.uint(4)))
		if r.short {
			return bad("item %d cut short", i)
		}
		if flags&^flagEOF != 0 {
			return bad("item %d: flags %#x", i, flags)
		}
		if len(payload) == 0 {
			continue
		}
		if !hasPayload(kind) {
			return bad("item %d: a payload of %d bytes", i, len(payload))
		}
		it.Payload = payload
	}
	if r.off != r.end {
		return bad("%d bytes after the last item", r.end-r.off)
	}
	return items, f, nil
}

// BatchKey implements store.StripBatcher: the strip ops of every device on
// one node can share a message.
func (d *NetDevice) BatchKey() any { return d.c }

// ReadStrips implements store.StripBatcher: ctx bounds the read messages
// (see NodeClient.run), and one cut in flight ends its stream.
func (d *NetDevice) ReadStrips(ctx context.Context, ops []store.StripOp) {
	d.c.stripBatch(ctx, ops, false)
}

// WriteStrips implements store.StripBatcher. Fenced like WriteStrip, and as
// idempotent: a batch whose ack was lost is re-sent whole.
func (d *NetDevice) WriteStrips(ops []store.StripOp) { d.c.stripBatch(d.c.done, ops, true) }

var _ store.StripBatcher = (*NetDevice)(nil)

// stripBatch performs ops, all on devices of this node, in as few messages as
// batchMaxBytes allows and under ctx, setting each op's Err. An op that fails
// its local geometry check is not sent.
func (c *NodeClient) stripBatch(ctx context.Context, ops []store.StripOp, write bool) {
	sent := make([]int, 0, len(ops)) // indices into ops of the chunk being built
	items := make([]batchItem, 0, len(ops))
	size := 0 // of the chunk's larger message
	flush := func() {
		if len(sent) > 0 {
			c.sendBatch(ctx, ops, sent, items, write)
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
		it := batchItem{Name: d.name, Strip: op.Idx, Payload: op.Buf}
		n := it.wireSize() // the item with its strip: a write's request, a read's response
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

// sendBatch is one message: items[k] is ops[sent[k]]. A transport failure
// or a torn answer lands on every op of it, and the node's verdict on a single
// item — a device's own error among them — on that op alone (see message). A
// deposed writer's message is refused item by item with ErrStaleEpoch.
func (c *NodeClient) sendBatch(ctx context.Context, ops []store.StripOp, sent []int, items []batchItem, write bool) {
	kind := byte(kindReadReq)
	if write {
		kind = kindWriteReq
	}
	err := c.message(ctx, false, kind, items, func(k int, it *batchItem, verdict error) error {
		op := &ops[sent[k]]
		switch {
		case verdict != nil:
		case !write && len(it.Payload) != len(op.Buf):
			return fmt.Errorf("%w: batch item %d carries %d payload bytes, strip is %d", ErrBadFrame, k, len(it.Payload), len(op.Buf))
		case !write:
			copy(op.Buf, it.Payload)
		}
		op.Err = verdict
		return nil
	})
	if err != nil {
		for _, i := range sent {
			ops[i].Err = err
		}
	}
}

// message sends items as one message of kind under ctx — through the retry
// loop, or as one attempt outside it and the breaker when once is set (the
// prober's ping) — stamped with the client's fence as it is now when the kind
// mutates, and hands each answered
// item to each with the node's verdict on it (nil: done). Only a verdict the
// catalogue calls retryable — the node closing its device ("closed") — fails
// the whole message, which is retried as a wire fault would be; a device's
// error, transient or not, is the verdict on its item and retries nothing.
// each returns ErrBadFrame for an answer that does not
// fit its item, and must not keep the item's payload, which aliases the
// answer.
func (c *NodeClient) message(ctx context.Context, once bool, kind byte, items []batchItem, each func(k int, it *batchItem, verdict error) error) error {
	var f fence
	if t := c.fence.Load(); t != nil && mutates(kind) {
		f = fence{epoch: t.Epoch(), on: true}
	}
	msg := encodeBatch(kind, f, items, nil)
	defer putMsg(msg)
	apply := func(answer []byte) error {
		defer putMsg(answer)
		got, _, err := decodeBatch(answer, kind+1)
		if err != nil {
			return err
		}
		if len(got) != len(items) {
			return fmt.Errorf("%w: batch of %d items answered with %d", ErrBadFrame, len(items), len(got))
		}
		for k := range got {
			it := &got[k]
			if it.Name != items[k].Name || it.Strip != items[k].Strip {
				return fmt.Errorf("%w: batch item %d answers %s/%d, want %s/%d", ErrBadFrame, k, it.Name, it.Strip, items[k].Name, items[k].Strip)
			}
			var verdict error
			if it.Code != "" {
				var retryable bool
				if verdict, retryable = itemError(it); retryable {
					return verdict
				}
			}
			if err := each(k, it, verdict); err != nil {
				return err
			}
		}
		return nil
	}
	if once {
		_, _, err := c.attempt(ctx, msg, apply)
		return err
	}
	return c.send(ctx, msg, apply)
}

// do is one device, blob or node op: it as a message of its own, under the
// client's own context. got, when not nil, reads the answered item of an op
// the node did (see message).
func (c *NodeClient) do(kind byte, it batchItem, got func(*batchItem) error) error {
	var verdict error
	err := c.message(c.done, false, kind, []batchItem{it}, func(_ int, a *batchItem, err error) error {
		if verdict = err; err != nil || got == nil {
			return nil
		}
		return got(a)
	})
	if err != nil {
		return err
	}
	return verdict
}

// itemError turns a response item's verdict back into the catalogue's
// sentinel, as Catalogue.Decode does for a whole response.
func itemError(it *batchItem) (err error, retryable bool) {
	for _, row := range Catalogue {
		if row.Code == it.Code {
			if row.Err == nil {
				return fmt.Errorf("netdev: %s/%d: %s", it.Name, it.Strip, it.Msg), row.Retryable
			}
			return fmt.Errorf("%w (%s)", row.Err, it.Msg), row.Retryable
		}
	}
	return fmt.Errorf("netdev: %s/%d: %s: %s", it.Name, it.Strip, it.Code, it.Msg), false
}
