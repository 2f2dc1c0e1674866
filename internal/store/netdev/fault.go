package netdev

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"time"
)

// PartitionMode selects how a FaultTransport partitions the link.
type PartitionMode int32

const (
	// PartNone passes traffic through.
	PartNone PartitionMode = iota
	// PartDrop is a full partition: requests and stream messages never
	// reach the node.
	PartDrop
	// PartAsym is an asymmetric partition: the request or message reaches
	// the node and executes, but its answer is dropped on the way back —
	// the client sees a failure for work that actually happened. This is
	// the case that distinguishes "acked" from "attempted": only
	// idempotent, retry-until-acked writes stay exact under it.
	PartAsym
)

// errPartition marks failures injected by the fault transport. It
// deliberately looks like any other transport error to the client.
var errPartition = errors.New("netdev: injected partition")

// FaultTransport is an http.RoundTripper that injects network faults
// between a NodeClient and its node: full and asymmetric partitions, link
// delay, and torn (truncated) answers. On a stream every fault is
// drawn per message, as it is per request elsewhere, so a fault means the
// same to an op whichever way it travels. All modes are runtime-switchable
// and safe for concurrent use; the torn-answer draw is seeded so sweeps
// are reproducible.
type FaultTransport struct {
	inner http.RoundTripper

	mu        sync.Mutex
	rng       *rand.Rand
	mode      PartitionMode
	delay     time.Duration
	tornEvery int64 // every Nth answer is torn (0: off)
	count     int64
	hook      func(host string, write bool)
}

// NewFaultTransport wraps inner (nil: http.DefaultTransport) with the
// fault layer, drawing from a seeded stream.
func NewFaultTransport(inner http.RoundTripper, seed int64) *FaultTransport {
	if inner == nil {
		inner = http.DefaultTransport
	}
	return &FaultTransport{inner: inner, rng: rand.New(rand.NewSource(seed))}
}

// SetPartition switches the partition mode.
func (t *FaultTransport) SetPartition(mode PartitionMode) {
	t.mu.Lock()
	t.mode = mode
	t.mu.Unlock()
}

// SetDelay adds a fixed delay to every request and every stream message (a
// slow link).
func (t *FaultTransport) SetDelay(d time.Duration) {
	t.mu.Lock()
	t.delay = d
	t.mu.Unlock()
}

// SetTorn makes every nth answer — to a request or to a stream message —
// arrive truncated (0 disables). The truncation point is drawn from the
// seeded stream.
func (t *FaultTransport) SetTorn(n int64) {
	t.mu.Lock()
	t.tornEvery = n
	t.mu.Unlock()
}

// SetHook makes fn see every strip message that crosses the link, after its
// delay and before its partition, with the host it is bound for and whether
// it writes; fn may block it (nil removes the hook). A device or blob message
// meets the link's faults but not the hook. Tests count and order strip
// messages with it, and hold them back.
func (t *FaultTransport) SetHook(fn func(host string, write bool)) {
	t.mu.Lock()
	t.hook = fn
	t.mu.Unlock()
}

// CloseIdleConnections forwards to the wrapped transport so a client
// Close through a fault transport still reaps idle connections.
func (t *FaultTransport) CloseIdleConnections() {
	if c, ok := t.inner.(interface{ CloseIdleConnections() }); ok {
		c.CloseIdleConnections()
	}
}

// fate is what the transport decided for one request or message.
type fate struct {
	mode  PartitionMode
	delay time.Duration
	torn  bool
	frac  float64 // of the answer that arrives, when torn
	hook  func(host string, write bool)
}

func (t *FaultTransport) draw() fate {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.count++
	f := fate{mode: t.mode, delay: t.delay, hook: t.hook}
	if f.torn = t.tornEvery > 0 && t.count%t.tornEvery == 0; f.torn {
		f.frac = t.rng.Float64()
	}
	return f
}

// wait sleeps out a delay, or until ctx ends.
func wait(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return nil
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// cut is how many of n bytes a torn answer keeps: at least none, at most
// all but one.
func (f fate) cut(n int64) int64 {
	return min(max(int64(f.frac*float64(n)), 0), n-1)
}

// RoundTrip implements http.RoundTripper.
func (t *FaultTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Path == stripsPath {
		return t.openStream(req)
	}
	f := t.draw()
	if err := wait(req.Context(), f.delay); err != nil {
		return nil, err
	}

	if f.mode == PartDrop {
		// The request never reaches the node. Consume the body as a real
		// failed connection would, so retries can re-send it.
		if req.Body != nil {
			io.Copy(io.Discard, req.Body)
			req.Body.Close()
		}
		return nil, fmt.Errorf("%w: request dropped", errPartition)
	}

	resp, err := t.inner.RoundTrip(req)
	if err != nil {
		return nil, err
	}

	if f.mode == PartAsym {
		// The node executed the request; the client never learns. Drain
		// the body so the connection is reusable, then report failure.
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
		return nil, fmt.Errorf("%w: response dropped", errPartition)
	}

	if f.torn && resp.Body != nil && resp.ContentLength > 0 {
		// Truncate the body partway while the headers still declare the
		// full length: exactly what a connection cut mid-response looks
		// like above the transport. The codec's checksums must catch it.
		inner := resp.Body
		resp.Body = &tornBody{r: io.LimitReader(inner, f.cut(resp.ContentLength)), c: inner}
	}
	return resp, nil
}

// tornBody serves a truncated prefix of the real body, closing the
// underlying connection body when done.
type tornBody struct {
	r io.Reader
	c io.Closer
}

func (b *tornBody) Read(p []byte) (int, error) { return b.r.Read(p) }
func (b *tornBody) Close() error               { return b.c.Close() }

// openStream passes a stream through with every message of it under
// the fault layer. Opening one is refused under a full partition; an
// asymmetric one lets it open, so that its messages can execute unanswered.
func (t *FaultTransport) openStream(req *http.Request) (*http.Response, error) {
	t.mu.Lock()
	mode := t.mode
	t.mu.Unlock()
	if mode == PartDrop {
		return nil, fmt.Errorf("%w: stream refused", errPartition)
	}
	resp, err := t.inner.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	if conn, ok := resp.Body.(io.ReadWriteCloser); ok && resp.StatusCode == http.StatusSwitchingProtocols {
		ctx, cancel := context.WithCancel(context.Background())
		resp.Body = &faultConn{t: t, host: req.URL.Host, conn: conn, ctx: ctx, cancel: cancel}
	}
	return resp, nil
}

// faultConn is an upgraded stream under faults. Each message's fate is drawn
// at its Write — the client writes a message whole, in one — and applied to
// its answer as it is read: passed on whole, cut short, or not at all.
type faultConn struct {
	t      *FaultTransport
	host   string
	conn   io.ReadWriteCloser
	ctx    context.Context // Close ends a delay in progress
	cancel context.CancelFunc
	fates  []fate // of the messages passed on and not yet answered
	head   [batchLenEnd]byte
	rest   []byte // of the answer being passed on
	err    error  // once the rest is out: the stream is over
}

func (c *faultConn) Write(msg []byte) (int, error) {
	f := c.t.draw()
	if err := wait(c.ctx, f.delay); err != nil {
		return 0, err
	}
	if kind := msg[5]; f.hook != nil && (kind == kindReadReq || kind == kindWriteReq) {
		f.hook(c.host, kind == kindWriteReq)
	}
	if f.mode == PartDrop {
		// The message never reaches the node, and the connection is cut
		// under the stream.
		c.conn.Close()
		return 0, fmt.Errorf("%w: message dropped", errPartition)
	}
	c.fates = append(c.fates, f)
	return c.conn.Write(msg)
}

func (c *faultConn) Read(p []byte) (int, error) {
	if len(c.rest) == 0 {
		if c.err != nil {
			return 0, c.err
		}
		msg, err := readMessage(c.conn, &c.head, batchMaxBytes)
		var f fate
		if err == nil && len(c.fates) > 0 {
			f, c.fates = c.fates[0], c.fates[1:]
		}
		switch {
		case err != nil:
			c.err = err
		case f.mode == PartAsym:
			// The node executed the message; the client never learns.
			c.err = fmt.Errorf("%w: answer dropped", errPartition)
		case f.torn:
			// A connection cut mid-answer: the codec must catch it.
			c.rest, c.err = msg[:f.cut(int64(len(msg)))], io.ErrUnexpectedEOF
		default:
			c.rest = msg
		}
		if len(c.rest) == 0 {
			return 0, c.err
		}
	}
	n := copy(p, c.rest)
	c.rest = c.rest[n:]
	return n, nil
}

func (c *faultConn) Close() error {
	c.cancel()
	return c.conn.Close()
}
