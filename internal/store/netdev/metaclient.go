package netdev

import (
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"

	"github.com/oiraid/oiraid/internal/store"
)

// ErrStaleGen reports a metadata-blob write rejected because the node
// holds a newer blob generation: another coordinator truncated the blob
// into a new stream. It wraps store.ErrStaleEpoch — both mean the same
// thing to the writer: it has been superseded and must stand down.
var ErrStaleGen = fmt.Errorf("netdev: metadata blob superseded by a newer generation: %w", store.ErrStaleEpoch)

// FenceToken carries the fencing epoch a coordinator stamps its writes
// with. One token is shared by every NodeClient of a coordinator, so a
// takeover observed on any node (a stale-epoch rejection) fences the
// whole write path at once — the token only ever moves forward.
type FenceToken struct {
	epoch atomic.Uint64
}

// Epoch returns the current fencing epoch.
func (t *FenceToken) Epoch() uint64 { return t.epoch.Load() }

// Advance raises the fencing epoch (monotonic; lower values are ignored).
func (t *FenceToken) Advance(epoch uint64) {
	for {
		cur := t.epoch.Load()
		if epoch <= cur || t.epoch.CompareAndSwap(cur, epoch) {
			return
		}
	}
}

// SetFence attaches a fencing token: every subsequent mutating request
// from this client (strip writes, blob writes/sync/truncate, creates)
// carries the token's epoch, and the node refuses it once it has
// promised a newer one. Reads stay unfenced — a deposed coordinator can
// look, it just cannot touch.
func (c *NodeClient) SetFence(t *FenceToken) { c.fence.Store(t) }

// fenceQuery returns the epoch query fragment ("" when unfenced).
func (c *NodeClient) fenceQuery() string {
	t := c.fence.Load()
	if t == nil {
		return ""
	}
	return "epoch=" + strconv.FormatUint(t.Epoch(), 10)
}

// withFence appends the fence epoch to a URL that may already carry a
// query string.
func (c *NodeClient) withFence(u string) string {
	q := c.fenceQuery()
	if q == "" {
		return u
	}
	sep := "?"
	if strings.Contains(u, "?") {
		sep = "&"
	}
	return u + sep + q
}

// FetchMetaState reads the node's metadata-plane state: fencing epoch,
// lease holder, renewal counter, and blob generations/sizes.
func (c *NodeClient) FetchMetaState() (MetaState, error) {
	var st MetaState
	err := c.getJSON("/node/v1/meta/state", &st)
	return st, err
}

// AcquireLease asks the node to promise epoch to holder. The node
// grants iff epoch is strictly above anything it has promised
// (idempotent for the same epoch+holder, so a lost grant is safely
// re-asked); otherwise the call fails with store.ErrStaleEpoch.
func (c *NodeClient) AcquireLease(epoch uint64, holder string) error {
	return c.postJSON("/node/v1/meta/lease", leaseReq{Epoch: epoch, Holder: holder}, nil)
}

// RenewLease bumps the node's renewal counter, proving the holder of
// epoch is still alive. Fails with store.ErrStaleEpoch once the node
// has promised a newer epoch — which is how a deposed leader finds out.
func (c *NodeClient) RenewLease(epoch uint64, holder string) error {
	return c.postJSON("/node/v1/meta/lease", leaseReq{Epoch: epoch, Holder: holder, Renew: true}, nil)
}

func metaBlobURL(base, name, suffix string) string {
	return base + "/node/v1/meta/blobs/" + url.PathEscape(name) + suffix
}

// MetaWriteAt writes p at off into the node's metadata blob, stamped
// (epoch, gen). The node wipes the blob first if it had missed the
// truncation that opened gen, and rejects the write entirely if it has
// promised a newer epoch or seen a newer generation.
func (c *NodeClient) MetaWriteAt(name string, p []byte, off int64, epoch, gen uint64) error {
	q := fmt.Sprintf("?epoch=%d&gen=%d&off=%d", epoch, gen, off)
	return c.do(putBytes(metaBlobURL(c.base, name, "")+q, p), decodeWritten(len(p)))
}

// MetaSync fsyncs the node's metadata blob (same fencing as writes).
func (c *NodeClient) MetaSync(name string, epoch, gen uint64) error {
	q := fmt.Sprintf("?epoch=%d&gen=%d", epoch, gen)
	return c.postJSON(metaBlobURL("", name, "/sync")+q, nil, nil)
}

// MetaTruncate resizes the node's metadata blob at generation gen —
// the caller bumps gen on every truncation, which is what destroys the
// old stream on every replica that hears about it.
func (c *NodeClient) MetaTruncate(name string, size int64, epoch, gen uint64) error {
	q := fmt.Sprintf("?epoch=%d&gen=%d&size=%d", epoch, gen, size)
	return c.postJSON(metaBlobURL("", name, "/truncate")+q, nil, nil)
}

// metaReadChunk bounds one read of a replicated metadata blob.
const metaReadChunk = 4 << 20

// ReadMetaBlob fetches the node's full copy of a metadata blob along
// with its generation. The read is chunked; a generation change between
// chunks means a concurrent truncation and fails the read (transient —
// the caller re-reads the new stream).
func (c *NodeClient) ReadMetaBlob(name string) ([]byte, uint64, error) {
	var out []byte
	var gen uint64
	first := true
	for {
		chunk, g, eof, err := c.readMetaChunk(name, int64(len(out)))
		if err != nil {
			return nil, 0, err
		}
		if first {
			gen, first = g, false
		} else if g != gen {
			return nil, 0, fmt.Errorf("%w: meta blob %s generation moved %d→%d mid-read",
				store.ErrTransient, name, gen, g)
		}
		out = append(out, chunk...)
		if eof || len(chunk) == 0 {
			return out, gen, nil
		}
	}
}

func (c *NodeClient) readMetaChunk(name string, off int64) (chunk []byte, gen uint64, eof bool, err error) {
	q := fmt.Sprintf("?off=%d&len=%d", off, metaReadChunk)
	err = c.do(call{method: http.MethodGet, url: metaBlobURL(c.base, name, "") + q}, func(resp *http.Response) error {
		body, err := readBody(resp, metaReadChunk)
		if err != nil {
			return err
		}
		g, err := strconv.ParseUint(resp.Header.Get(genHeader), 10, 64)
		if err != nil {
			return fmt.Errorf("%w: bad gen header: %v", ErrBadFrame, err)
		}
		isEOF := resp.Header.Get(eofHeader) == "1"
		if len(body) < metaReadChunk && !isEOF {
			return fmt.Errorf("%w: short meta read without EOF", ErrBadFrame)
		}
		chunk, gen, eof = body, g, isEOF
		return nil
	})
	return chunk, gen, eof, err
}
