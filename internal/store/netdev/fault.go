package netdev

import (
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
	// PartDrop is a full partition: requests never reach the node.
	PartDrop
	// PartAsym is an asymmetric partition: the request reaches the node
	// and executes, but the response is dropped on the way back — the
	// client sees a failure for work that actually happened. This is the
	// case that distinguishes "acked" from "attempted": only idempotent,
	// retry-until-acked writes stay exact under it.
	PartAsym
)

// errPartition marks failures injected by the fault transport. It
// deliberately looks like any other transport error to the client.
var errPartition = errors.New("netdev: injected partition")

// FaultTransport is an http.RoundTripper that injects network faults
// between a NodeClient and its node: full and asymmetric partitions,
// link delay, and torn (truncated) responses. All modes are runtime-
// switchable and safe for concurrent use; the torn-response draw is
// seeded so sweeps are reproducible.
type FaultTransport struct {
	inner http.RoundTripper

	mu        sync.Mutex
	rng       *rand.Rand
	mode      PartitionMode
	delay     time.Duration
	tornEvery int64 // every Nth response is torn (0: off)
	count     int64
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

// SetDelay adds a fixed delay to every round trip (a slow link).
func (t *FaultTransport) SetDelay(d time.Duration) {
	t.mu.Lock()
	t.delay = d
	t.mu.Unlock()
}

// SetTorn makes every nth response arrive truncated (0 disables). The
// truncation point is drawn from the seeded stream.
// CloseIdleConnections forwards to the wrapped transport so a client
// Close through a fault transport still reaps idle connections.
func (t *FaultTransport) CloseIdleConnections() {
	if c, ok := t.inner.(interface{ CloseIdleConnections() }); ok {
		c.CloseIdleConnections()
	}
}

func (t *FaultTransport) SetTorn(n int64) {
	t.mu.Lock()
	t.tornEvery = n
	t.mu.Unlock()
}

// RoundTrip implements http.RoundTripper.
func (t *FaultTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t.mu.Lock()
	mode := t.mode
	delay := t.delay
	t.count++
	torn := t.tornEvery > 0 && t.count%t.tornEvery == 0
	var tornFrac float64
	if torn {
		tornFrac = t.rng.Float64()
	}
	t.mu.Unlock()

	if delay > 0 {
		timer := time.NewTimer(delay)
		select {
		case <-timer.C:
		case <-req.Context().Done():
			timer.Stop()
			return nil, req.Context().Err()
		}
	}

	if mode == PartDrop {
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

	if mode == PartAsym {
		// The node executed the request; the client never learns. Drain
		// the body so the connection is reusable, then report failure.
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
		return nil, fmt.Errorf("%w: response dropped", errPartition)
	}

	if torn && resp.Body != nil && resp.ContentLength > 0 {
		// Truncate the body partway while the headers still declare the
		// full length: exactly what a connection cut mid-response looks
		// like above the transport. The codec's checksums must catch it.
		keep := int64(tornFrac * float64(resp.ContentLength))
		if keep >= resp.ContentLength {
			keep = resp.ContentLength - 1
		}
		if keep < 0 {
			keep = 0
		}
		inner := resp.Body
		resp.Body = &tornBody{r: io.LimitReader(inner, keep), c: inner}
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
