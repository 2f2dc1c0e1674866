package netdev

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"github.com/oiraid/oiraid/internal/store"
)

// NetDevice is a store.Device whose strips live on a remote storage
// node. All wire robustness — deadlines, retries, backoff, the breaker,
// the unreachable/lost classification — lives in the shared NodeClient;
// the device itself only checks its geometry and what comes back.
type NetDevice struct {
	c          *NodeClient
	name       string
	strips     int64
	stripBytes int
}

var _ store.Device = (*NetDevice)(nil)

// Device binds to a device on the node without a network round trip,
// trusting the caller's geometry (a cluster manifest). The mount that
// follows verifies everything against superblocks anyway, and binding
// blind is what lets a coordinator assemble a degraded array while one
// node is unreachable.
func (c *NodeClient) Device(name string, strips int64, stripBytes int) *NetDevice {
	return &NetDevice{c: c, name: name, strips: strips, stripBytes: stripBytes}
}

// CreateDevice creates (idempotently) a device on the node and binds to
// it. A device of that name with another geometry is ErrBadGeometry.
func (c *NodeClient) CreateDevice(name string, strips int64, stripBytes int) (*NetDevice, error) {
	if err := c.do(kindDevCreate, batchItem{Name: name, Strip: strips, Size: int64(stripBytes)}, nil); err != nil {
		return nil, err
	}
	return c.Device(name, strips, stripBytes), nil
}

// Strips implements store.Device.
func (d *NetDevice) Strips() int64 { return d.strips }

// StripBytes implements store.Device.
func (d *NetDevice) StripBytes() int { return d.stripBytes }

// Close implements store.Device. It does not close the shared
// NodeClient (several devices ride one client); the node-side device
// stays open for the next mount.
func (d *NetDevice) Close() error { return nil }

// check validates a strip index and buffer against the bound geometry.
func (d *NetDevice) check(idx int64, p []byte) error {
	if idx < 0 || idx >= d.strips {
		return fmt.Errorf("%w: strip %d of %d", store.ErrStripOutOfRange, idx, d.strips)
	}
	if len(p) != d.stripBytes {
		return fmt.Errorf("%w: %d bytes, strip is %d", store.ErrShortBuffer, len(p), d.stripBytes)
	}
	return nil
}

// ReadStrip implements store.Device: a read message of one item. A torn or
// corrupted answer fails the codec's checksums and is retried as a wire
// fault.
func (d *NetDevice) ReadStrip(idx int64, p []byte) error { return d.single(idx, p, false) }

// WriteStrip implements store.Device: a write message of one item. Strip
// writes are idempotent, so a write whose ack was lost (an asymmetric
// partition: the node executed it, the answer never came back) is safely
// re-sent until acknowledged.
func (d *NetDevice) WriteStrip(idx int64, p []byte) error { return d.single(idx, p, true) }

func (d *NetDevice) single(idx int64, p []byte, write bool) error {
	ops := [1]store.StripOp{{Dev: d, Idx: idx, Buf: p}}
	d.c.stripBatch(ops[:], write)
	return ops[0].Err
}

// StripSums fetches per-strip CRC-32C checksums for a range, as hex strings
// — how a resuming migration verifies its already-committed prefix without
// moving the data again.
func (d *NetDevice) StripSums(start int64, count int) ([]string, error) {
	if start < 0 || count <= 0 || start+int64(count) > d.strips {
		return nil, fmt.Errorf("%w: range [%d,%d) of %d strips", store.ErrStripOutOfRange, start, start+int64(count), d.strips)
	}
	sums := make([]string, count)
	err := d.c.do(kindDevSums, batchItem{Name: d.name, Strip: start, Size: int64(count)}, func(it *batchItem) error {
		if len(it.Payload) != 4*count {
			return fmt.Errorf("%w: %d bytes of sums for %d strips", ErrBadFrame, len(it.Payload), count)
		}
		for i := range sums {
			sums[i] = fmt.Sprintf("%08x", binary.BigEndian.Uint32(it.Payload[4*i:]))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return sums, nil
}

// DeleteDevice removes a device from the node (fenced, idempotent) —
// the source-reclaim step after a migration flips placement.
func (c *NodeClient) DeleteDevice(name string) error {
	return c.do(kindDevDelete, batchItem{Name: name}, nil)
}

// DeleteBlob removes a blob from the node (fenced, idempotent).
func (c *NodeClient) DeleteBlob(name string) error {
	return c.do(kindBlobDelete, batchItem{Name: name}, nil)
}

// NetBlob is a store.Blob on a remote storage node: the substrate the
// coordinator writes per-disk superblocks through, and the replica of a
// quorum-replicated metadata blob (AtGen). Its bytes cross the wire in
// checksummed messages, so metadata gets the same torn-bytes detection as
// strips.
type NetBlob struct {
	c    *NodeClient
	name string
	gen  uint64 // the generation its mutating ops carry; 0: none
}

var _ store.Blob = (*NetBlob)(nil)

// Blob binds to a blob on the node without a network round trip (see
// Device).
func (c *NodeClient) Blob(name string) *NetBlob {
	return &NetBlob{c: c, name: name}
}

// CreateBlob creates (idempotently) a blob on the node and binds to it.
func (c *NodeClient) CreateBlob(name string) (*NetBlob, error) {
	if err := c.do(kindBlobCreate, batchItem{Name: name}, nil); err != nil {
		return nil, err
	}
	return c.Blob(name), nil
}

// AtGen returns the blob bound with generation stamp gen (≥ 1): its
// writes, syncs and truncates carry it, and the node applies the
// generation rule to them — it refuses a stamp below the blob's
// generation, wipes the blob for one above it, and makes a missing blob
// for a stamped write or truncate. A stamped op must also carry an
// epoch, so the client needs a fence (SetFence).
func (b *NetBlob) AtGen(gen uint64) *NetBlob {
	return &NetBlob{c: b.c, name: b.name, gen: gen}
}

// read fetches up to n bytes at off, one message per chunk of at most one
// message's payload, handing each chunk's bytes to take (which must not keep
// them): the blob's generation, and whether the read ran off the end. A
// generation that moves between chunks means a concurrent truncation and
// fails the read (transient — the caller re-reads the new stream).
func (b *NetBlob) read(off int64, n int, take func([]byte)) (gen uint64, eof bool, err error) {
	most := batchStripMax(b.name)
	for done := 0; ; {
		want := min(n-done, most)
		var got int
		var g uint64
		err := b.c.do(kindBlobRead, batchItem{Name: b.name, Strip: off + int64(done), Size: int64(want)}, func(it *batchItem) error {
			// The node answers the whole range, or a prefix marked EOF.
			if got = len(it.Payload); got > want || got < want && !it.EOF {
				return fmt.Errorf("%w: blob read of %d bytes answered with %d (eof %v)", ErrBadFrame, want, got, it.EOF)
			}
			g, eof = it.Gen, it.EOF
			take(it.Payload)
			return nil
		})
		if err != nil {
			return 0, false, err
		}
		if done > 0 && g != gen {
			return 0, false, fmt.Errorf("%w: blob %s generation moved %d→%d mid-read", store.ErrTransient, b.name, gen, g)
		}
		done, gen = done+got, g
		if eof || done == n {
			return gen, eof, nil
		}
	}
}

// ReadAt implements store.Blob with os.File semantics: a read crossing
// the end returns the available prefix and io.EOF.
func (b *NetBlob) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("%w: %d", store.ErrNegativeOffset, off)
	}
	n := 0
	_, eof, err := b.read(off, len(p), func(chunk []byte) { n += copy(p[n:], chunk) })
	switch {
	case err != nil:
		return 0, err
	case eof:
		return n, io.EOF
	}
	return n, nil
}

// ReadAll fetches the node's whole copy of the blob along with its
// generation, in chunks (see read).
func (b *NetBlob) ReadAll() ([]byte, uint64, error) {
	var out []byte
	gen, _, err := b.read(0, math.MaxInt, func(chunk []byte) { out = append(out, chunk...) })
	if err != nil {
		return nil, 0, err
	}
	return out, gen, nil
}

// WriteAt implements store.Blob, one message per chunk of at most one
// message's payload. Idempotent, so lost acks are re-sent.
func (b *NetBlob) WriteAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("%w: %d", store.ErrNegativeOffset, off)
	}
	most := batchStripMax(b.name)
	for done := 0; ; {
		chunk := p[done : done+min(len(p)-done, most)]
		if err := b.c.do(kindBlobWrite, batchItem{Name: b.name, Strip: off + int64(done), Gen: b.gen, Payload: chunk}, nil); err != nil {
			return done, err
		}
		if done += len(chunk); done == len(p) {
			return done, nil
		}
	}
}

// Sync implements store.Blob: the node fsyncs the backing file before
// acknowledging, preserving the written→durable barrier across the wire.
func (b *NetBlob) Sync() error {
	return b.c.do(kindBlobSync, batchItem{Name: b.name, Gen: b.gen}, nil)
}

// Size implements store.Blob.
func (b *NetBlob) Size() (int64, error) {
	var size int64
	err := b.c.do(kindBlobStat, batchItem{Name: b.name}, func(it *batchItem) error {
		size = it.Size
		return nil
	})
	return size, err
}

// Truncate implements store.Blob. The node syncs the blob before it
// answers.
func (b *NetBlob) Truncate(size int64) error {
	return b.c.do(kindBlobTruncate, batchItem{Name: b.name, Size: size, Gen: b.gen}, nil)
}

// Close implements store.Blob; the node-side blob stays open.
func (b *NetBlob) Close() error { return nil }
