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

// OpenDevice binds to an existing device on the node, taking geometry
// from the node's inventory.
func (c *NodeClient) OpenDevice(name string) (*NetDevice, error) {
	st, err := c.Stat()
	if err != nil {
		return nil, err
	}
	g, ok := st.Devices[name]
	if !ok {
		return nil, fmt.Errorf("%w: device %s on %s", ErrNodeNotFound, name, c.base)
	}
	return &NetDevice{c: c, name: name, strips: g.Strips, stripBytes: g.StripBytes}, nil
}

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
		createDeviceReq{Strips: strips, StripBytes: stripBytes}, &g)
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

func (d *NetDevice) stripURL(idx int64) string {
	return d.c.base + "/node/v1/devices/" + url.PathEscape(d.name) + "/strips/" + strconv.FormatInt(idx, 10)
}

// ReadStrip implements store.Device: GET the strip, decode and verify
// the frame, copy the payload out. A torn or corrupted response fails
// frame validation and is retried as a wire fault.
func (d *NetDevice) ReadStrip(idx int64, p []byte) error {
	if err := d.check(idx, p); err != nil {
		return err
	}
	return d.c.do(call{method: http.MethodGet, url: d.stripURL(idx)}, func(resp *http.Response) error {
		body, err := readBody(resp, FrameHeaderLen+d.stripBytes)
		if err != nil {
			return err
		}
		fr, err := DecodeFrame(body, d.stripBytes)
		if err != nil {
			return err
		}
		if fr.Op != OpRead || fr.Strip != idx || len(fr.Payload) != d.stripBytes {
			return fmt.Errorf("%w: response frame op=%d strip=%d len=%d, want op=%d strip=%d len=%d", ErrBadFrame, fr.Op, fr.Strip, len(fr.Payload), OpRead, idx, d.stripBytes)
		}
		copy(p, fr.Payload)
		return nil
	})
}

// WriteStrip implements store.Device: PUT the strip inside a checksummed
// frame. Strip writes are idempotent, so a write whose ack was lost (an
// asymmetric partition: the node executed it, the response never came
// back) is safely re-sent until acknowledged.
func (d *NetDevice) WriteStrip(idx int64, p []byte) error {
	if err := d.check(idx, p); err != nil {
		return err
	}
	return d.c.do(call{method: http.MethodPut, url: d.c.withFence(d.stripURL(idx)), body: EncodeFrame(OpWrite, idx, p), ctype: octetStream}, nil)
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
// coordinator writes per-disk superblocks through. Reads and writes
// carry a CRC-32C header so metadata crossing the wire gets the same
// torn-bytes detection as strip frames.
type NetBlob struct {
	c    *NodeClient
	name string
}

var _ store.Blob = (*NetBlob)(nil)

// Blob binds to a blob on the node without a network round trip (see
// Device).
func (c *NodeClient) Blob(name string) *NetBlob {
	return &NetBlob{c: c, name: name}
}

// OpenBlob binds to an existing blob on the node.
func (c *NodeClient) OpenBlob(name string) (*NetBlob, error) {
	st, err := c.Stat()
	if err != nil {
		return nil, err
	}
	if _, ok := st.Blobs[name]; !ok {
		return nil, fmt.Errorf("%w: blob %s on %s", ErrNodeNotFound, name, c.base)
	}
	return &NetBlob{c: c, name: name}, nil
}

// CreateBlob creates (idempotently) a blob on the node and binds to it.
func (c *NodeClient) CreateBlob(name string) (*NetBlob, error) {
	if err := c.postJSON(c.withFence("/node/v1/blobs/"+url.PathEscape(name)), nil, nil); err != nil {
		return nil, err
	}
	return &NetBlob{c: c, name: name}, nil
}

func (b *NetBlob) url(suffix, query string) string {
	u := b.c.base + "/node/v1/blobs/" + url.PathEscape(b.name) + suffix
	if query != "" {
		u += "?" + query
	}
	return u
}

// ReadAt implements store.Blob with os.File semantics: a read crossing
// the end returns the available prefix and io.EOF.
func (b *NetBlob) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("%w: %d", store.ErrNegativeOffset, off)
	}
	var n int
	var eof bool
	q := "off=" + strconv.FormatInt(off, 10) + "&len=" + strconv.Itoa(len(p))
	err := b.c.do(call{method: http.MethodGet, url: b.url("", q)}, func(resp *http.Response) error {
		body, err := readBody(resp, len(p))
		if err != nil {
			return err
		}
		if len(body) > len(p) {
			return fmt.Errorf("%w: %d bytes for a %d-byte read", ErrBadFrame, len(body), len(p))
		}
		n = copy(p, body)
		eof = resp.Header.Get(eofHeader) == "1"
		// A short body without the EOF marker is a torn response: the
		// node always returns either the full requested range or a
		// prefix explicitly marked EOF.
		if n < len(p) && !eof {
			return fmt.Errorf("%w: short blob read %d of %d without EOF", ErrBadFrame, n, len(p))
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	if eof {
		return n, io.EOF
	}
	return n, nil
}

// WriteAt implements store.Blob. Idempotent, so lost acks are re-sent.
func (b *NetBlob) WriteAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("%w: %d", store.ErrNegativeOffset, off)
	}
	u := b.c.withFence(b.url("", "off="+strconv.FormatInt(off, 10)))
	if err := b.c.do(putBytes(u, p), decodeWritten(len(p))); err != nil {
		return 0, err
	}
	return len(p), nil
}

// Sync implements store.Blob: the node fsyncs the backing file before
// acknowledging, preserving the written→durable barrier across the wire.
func (b *NetBlob) Sync() error {
	return b.c.postJSON(b.c.withFence("/node/v1/blobs/"+url.PathEscape(b.name)+"/sync"), nil, nil)
}

// Size implements store.Blob.
func (b *NetBlob) Size() (int64, error) {
	var out struct {
		Size int64 `json:"size"`
	}
	if err := b.c.getJSON("/node/v1/blobs/"+url.PathEscape(b.name)+"/stat", &out); err != nil {
		return 0, err
	}
	return out.Size, nil
}

// Truncate implements store.Blob.
func (b *NetBlob) Truncate(size int64) error {
	return b.c.postJSON(b.c.withFence("/node/v1/blobs/"+url.PathEscape(b.name)+"/truncate?size="+strconv.FormatInt(size, 10)), nil, nil)
}

// Close implements store.Blob; the node-side blob stays open.
func (b *NetBlob) Close() error { return nil }
