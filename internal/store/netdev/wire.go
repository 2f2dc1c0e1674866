// Package netdev is the network plane of the data path: it exports local
// strip devices and blobs from a *storage node* over HTTP, and
// implements store.Device / store.Blob clients that a coordinator mounts
// an array across. The package is built robustness-first:
//
//   - Every strip payload crosses the wire inside a checksummed frame
//     (EncodeFrame/DecodeFrame), so a torn or bit-flipped response is
//     detected at the codec and retried instead of being written into the
//     array as data.
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
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Frame ops. A frame carries one strip payload in either direction: the
// node's response to a strip read, or the client's strip-write request
// body. Probe and stat traffic is plain HTTP/JSON — only bulk strip data
// gets the binary framing (and its checksum).
const (
	// OpRead marks a strip-read response frame (node → client).
	OpRead = 0x01
	// OpWrite marks a strip-write request frame (client → node).
	OpWrite = 0x02
)

// Frame layout (big endian):
//
//	0  4  magic "oSTP"
//	4  1  version (1)
//	5  1  op
//	6  2  reserved (zero)
//	8  8  strip index
//	16 4  payload length
//	20 4  CRC-32C of payload
//	24 …  payload
const (
	frameVersion = 1
	// FrameHeaderLen is the fixed frame header size in bytes.
	FrameHeaderLen = 24
)

var frameMagic = [4]byte{'o', 'S', 'T', 'P'}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrBadFrame reports a strip-transport frame that failed validation:
// short or oversized, wrong magic or version, a length field that
// disagrees with the body, or a payload checksum mismatch. On a response
// it means the bytes were torn or corrupted in flight and the operation
// is retried; on a request the node refuses the write, so damaged bytes
// never reach media.
var ErrBadFrame = errors.New("netdev: bad strip-transport frame")

// Frame is one decoded strip-transport frame.
type Frame struct {
	Op      byte
	Strip   int64
	Payload []byte
}

// EncodeFrame wraps payload in a checksummed frame.
func EncodeFrame(op byte, strip int64, payload []byte) []byte {
	b := make([]byte, FrameHeaderLen+len(payload))
	copy(b[FrameHeaderLen:], payload)
	sealFrame(b, op, strip)
	return b
}

// sealFrame writes the header of the frame that fills b, over the payload
// already in place at b[FrameHeaderLen:] — a sender that can produce the
// payload there (a node reading a strip off its device) builds the frame
// in one buffer.
func sealFrame(b []byte, op byte, strip int64) {
	payload := b[FrameHeaderLen:]
	copy(b[0:4], frameMagic[:])
	b[4] = frameVersion
	b[5] = op
	b[6], b[7] = 0, 0 // reserved: zero whatever b held
	binary.BigEndian.PutUint64(b[8:16], uint64(strip))
	binary.BigEndian.PutUint32(b[16:20], uint32(len(payload)))
	binary.BigEndian.PutUint32(b[20:24], crc32.Checksum(payload, castagnoli))
}

// DecodeFrame parses and validates a frame. maxPayload bounds the
// declared payload length (a strip size, typically), so a corrupted
// length field cannot make the caller trust an absurd allocation. The
// returned payload aliases b.
func DecodeFrame(b []byte, maxPayload int) (Frame, error) {
	var fr Frame
	if len(b) < FrameHeaderLen {
		return fr, fmt.Errorf("%w: %d bytes, header is %d", ErrBadFrame, len(b), FrameHeaderLen)
	}
	if [4]byte(b[0:4]) != frameMagic {
		return fr, fmt.Errorf("%w: bad magic %q", ErrBadFrame, b[0:4])
	}
	if b[4] != frameVersion {
		return fr, fmt.Errorf("%w: version %d, want %d", ErrBadFrame, b[4], frameVersion)
	}
	if b[6] != 0 || b[7] != 0 {
		return fr, fmt.Errorf("%w: reserved bytes set", ErrBadFrame)
	}
	length := binary.BigEndian.Uint32(b[16:20])
	if maxPayload >= 0 && length > uint32(maxPayload) {
		return fr, fmt.Errorf("%w: payload %d exceeds bound %d", ErrBadFrame, length, maxPayload)
	}
	if int64(len(b)-FrameHeaderLen) != int64(length) {
		return fr, fmt.Errorf("%w: body %d bytes, header declares %d", ErrBadFrame, len(b)-FrameHeaderLen, length)
	}
	payload := b[FrameHeaderLen:]
	if got, want := crc32.Checksum(payload, castagnoli), binary.BigEndian.Uint32(b[20:24]); got != want {
		return fr, fmt.Errorf("%w: payload crc %08x, header says %08x", ErrBadFrame, got, want)
	}
	fr.Op = b[5]
	fr.Strip = int64(binary.BigEndian.Uint64(b[8:16]))
	fr.Payload = payload
	return fr, nil
}

// readSized reads an HTTP body of at most max bytes whose declared
// Content-Length is n into one buffer sized from n: a strip RPC body has a
// known size, and io.ReadAll would reach it by doubling from 512 bytes. A
// declared length past the bound is refused before anything is allocated
// for it, and a body shorter or longer than declared is a damaged
// transfer. Only n < 0 (chunked, or decompressed by the transport) is left
// to a bounded io.ReadAll, which returns at most max+1 bytes — the last
// one being the caller's cue to refuse.
func readSized(body io.Reader, n int64, max int) ([]byte, error) {
	if n < 0 {
		b, err := io.ReadAll(io.LimitReader(body, int64(max)+1))
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadFrame, err)
		}
		return b, nil
	}
	if n > int64(max) {
		return nil, fmt.Errorf("%w: body declares %d bytes, bound is %d", ErrBadFrame, n, max)
	}
	// One spare byte to probe for excess with: net/http reports the end of
	// a declared-length body along with its last byte, so the probe costs
	// nothing and leaves the connection reusable.
	b := make([]byte, n+1)
	if _, err := io.ReadFull(body, b[:n]); err != nil {
		return nil, fmt.Errorf("%w: body shorter than the %d bytes declared: %v", ErrBadFrame, n, err)
	}
	if extra, _ := body.Read(b[n:]); extra > 0 {
		return nil, fmt.Errorf("%w: body longer than the %d bytes declared", ErrBadFrame, n)
	}
	return b[:n:n], nil
}

// blobCRC is the integrity checksum carried in the X-Oiraid-Crc header
// of blob reads and writes, covering exactly the transferred bytes.
func blobCRC(p []byte) string {
	return fmt.Sprintf("%08x", crc32.Checksum(p, castagnoli))
}
