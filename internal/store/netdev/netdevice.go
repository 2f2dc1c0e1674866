package netdev

import (
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"

	"github.com/oiraid/oiraid/internal/store"
)

// NetDevice is a store.Device whose strips live on a remote storage
// node. All wire robustness — deadlines, retries, backoff, the breaker,
// the unreachable/lost classification — lives in the shared NodeClient;
// the device itself only frames payloads and verifies what comes back.
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
// it.
func (c *NodeClient) CreateDevice(name string, strips int64, stripBytes int) (*NetDevice, error) {
	var g DeviceStat
	err := c.postJSON(c.withFence("/node/v1/devices/"+url.PathEscape(name)),
		DeviceStat{Strips: strips, StripBytes: stripBytes}, &g)
	if err != nil {
		return nil, err
	}
	return &NetDevice{c: c, name: name, strips: strips, stripBytes: stripBytes}, nil
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

// WriteStrip implements store.Device: a write message of one item, its strip
// inside a checksummed frame. Strip writes are idempotent, so a write whose
// ack was lost (an asymmetric partition: the node executed it, the answer
// never came back) is safely re-sent until acknowledged.
func (d *NetDevice) WriteStrip(idx int64, p []byte) error { return d.single(idx, p, true) }

func (d *NetDevice) single(idx int64, p []byte, write bool) error {
	ops := [1]store.StripOp{{Dev: d, Idx: idx, Buf: p}}
	d.c.stripBatch(ops[:], write)
	return ops[0].Err
}

// StripSums fetches per-strip CRC-32C checksums for a range — how a
// resuming migration verifies its already-committed prefix without
// moving the data again.
func (d *NetDevice) StripSums(start int64, count int) ([]string, error) {
	if start < 0 || count <= 0 || start+int64(count) > d.strips {
		return nil, fmt.Errorf("%w: range [%d,%d) of %d strips", store.ErrStripOutOfRange, start, start+int64(count), d.strips)
	}
	var out struct {
		Sums []string `json:"sums"`
	}
	q := "start=" + strconv.FormatInt(start, 10) + "&count=" + strconv.Itoa(count)
	if err := d.c.getJSON("/node/v1/devices/"+url.PathEscape(d.name)+"/sums?"+q, &out); err != nil {
		return nil, err
	}
	if len(out.Sums) != count {
		return nil, fmt.Errorf("%w: %d sums for %d strips", ErrBadFrame, len(out.Sums), count)
	}
	return out.Sums, nil
}

// DeleteDevice removes a device from the node (fenced, idempotent) —
// the source-reclaim step after a migration flips placement.
func (c *NodeClient) DeleteDevice(name string) error {
	return c.deleteReq(c.withFence("/node/v1/devices/" + url.PathEscape(name)))
}

// DeleteBlob removes a blob from the node (fenced, idempotent).
func (c *NodeClient) DeleteBlob(name string) error {
	return c.deleteReq(c.withFence("/node/v1/blobs/" + url.PathEscape(name)))
}

func (c *NodeClient) deleteReq(path string) error {
	return c.do(call{method: http.MethodDelete, url: c.base + path}, nil)
}

// NetBlob is a store.Blob on a remote storage node: the substrate the
// coordinator writes per-disk superblocks through, and the replica of a
// quorum-replicated metadata blob (AtGen). Reads and writes carry a
// CRC-32C header so metadata crossing the wire gets the same torn-bytes
// detection as strip frames.
type NetBlob struct {
	c    *NodeClient
	name string
	gen  uint64 // the generation its mutating requests carry; 0: none
}

var _ store.Blob = (*NetBlob)(nil)

// Blob binds to a blob on the node without a network round trip (see
// Device).
func (c *NodeClient) Blob(name string) *NetBlob {
	return &NetBlob{c: c, name: name}
}

// CreateBlob creates (idempotently) a blob on the node and binds to it.
func (c *NodeClient) CreateBlob(name string) (*NetBlob, error) {
	if err := c.postJSON(c.withFence("/node/v1/blobs/"+url.PathEscape(name)), nil, nil); err != nil {
		return nil, err
	}
	return &NetBlob{c: c, name: name}, nil
}

// AtGen returns the blob bound with generation stamp gen (≥ 1): its
// writes, syncs and truncates carry it, and the node applies the
// generation rule to them — it refuses a stamp below the blob's
// generation, wipes the blob for one above it, and makes a missing blob
// for a stamped write or truncate. A stamped request must also carry an
// epoch, so the client needs a fence (SetFence).
func (b *NetBlob) AtGen(gen uint64) *NetBlob {
	return &NetBlob{c: b.c, name: b.name, gen: gen}
}

func (b *NetBlob) url(suffix, query string) string {
	u := b.c.base + "/node/v1/blobs/" + url.PathEscape(b.name) + suffix
	if query != "" {
		u += "?" + query
	}
	return u
}

// mutation is the URL of a mutating request: fenced, and stamped with the
// blob's generation when it has one.
func (b *NetBlob) mutation(suffix, query string) string {
	if b.gen != 0 {
		if query != "" {
			query += "&"
		}
		query += "gen=" + strconv.FormatUint(b.gen, 10)
	}
	return b.c.withFence(b.url(suffix, query))
}

// read GETs up to n bytes at off: the available prefix, the blob's
// generation, and whether the read ran off the end. A response without a
// generation (an older node's superblock read) is generation 0.
func (b *NetBlob) read(off int64, n int) (body []byte, gen uint64, eof bool, err error) {
	q := "off=" + strconv.FormatInt(off, 10) + "&len=" + strconv.Itoa(n)
	err = b.c.do(call{method: http.MethodGet, url: b.url("", q)}, func(resp *http.Response) error {
		var err error
		if body, err = readBody(resp, n); err != nil {
			return err
		}
		if h := resp.Header.Get(genHeader); h != "" {
			if gen, err = strconv.ParseUint(h, 10, 64); err != nil {
				return fmt.Errorf("%w: bad gen header: %v", ErrBadFrame, err)
			}
		}
		// A short body without the EOF marker is a torn response: the
		// node always returns either the full requested range or a
		// prefix explicitly marked EOF.
		eof = resp.Header.Get(eofHeader) == "1"
		if len(body) < n && !eof {
			return fmt.Errorf("%w: short blob read %d of %d without EOF", ErrBadFrame, len(body), n)
		}
		return nil
	})
	return body, gen, eof, err
}

// ReadAt implements store.Blob with os.File semantics: a read crossing
// the end returns the available prefix and io.EOF.
func (b *NetBlob) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("%w: %d", store.ErrNegativeOffset, off)
	}
	body, _, eof, err := b.read(off, len(p))
	if err != nil {
		return 0, err
	}
	n := copy(p, body)
	if eof {
		return n, io.EOF
	}
	return n, nil
}

// readAllChunk bounds one read of ReadAll.
const readAllChunk = 4 << 20

// ReadAll fetches the node's whole copy of the blob along with its
// generation. The read is chunked; a generation change between chunks
// means a concurrent truncation and fails the read (transient — the
// caller re-reads the new stream).
func (b *NetBlob) ReadAll() ([]byte, uint64, error) {
	var out []byte
	var gen uint64
	for {
		chunk, g, eof, err := b.read(int64(len(out)), readAllChunk)
		if err != nil {
			return nil, 0, err
		}
		// Only a full chunk is followed by another, so out is empty only
		// at the first.
		if len(out) > 0 && g != gen {
			return nil, 0, fmt.Errorf("%w: blob %s generation moved %d→%d mid-read",
				store.ErrTransient, b.name, gen, g)
		}
		out, gen = append(out, chunk...), g
		if eof || len(chunk) == 0 {
			return out, gen, nil
		}
	}
}

// WriteAt implements store.Blob. Idempotent, so lost acks are re-sent.
func (b *NetBlob) WriteAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("%w: %d", store.ErrNegativeOffset, off)
	}
	u := b.mutation("", "off="+strconv.FormatInt(off, 10))
	if err := b.c.do(putBytes(u, p), decodeWritten(len(p))); err != nil {
		return 0, err
	}
	return len(p), nil
}

// Sync implements store.Blob: the node fsyncs the backing file before
// acknowledging, preserving the written→durable barrier across the wire.
func (b *NetBlob) Sync() error {
	return b.c.do(call{method: http.MethodPost, url: b.mutation("/sync", "")}, nil)
}

// Size implements store.Blob.
func (b *NetBlob) Size() (int64, error) {
	var st BlobStat
	if err := b.c.do(call{method: http.MethodGet, url: b.url("/stat", "")}, decodeJSON(&st)); err != nil {
		return 0, err
	}
	return st.Size, nil
}

// Truncate implements store.Blob. The node syncs the blob before it
// answers.
func (b *NetBlob) Truncate(size int64) error {
	return b.c.do(call{method: http.MethodPost, url: b.mutation("/truncate", "size="+strconv.FormatInt(size, 10))}, nil)
}

// Close implements store.Blob; the node-side blob stays open.
func (b *NetBlob) Close() error { return nil }
