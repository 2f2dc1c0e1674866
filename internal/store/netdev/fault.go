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
	// PartDrop is a full partition: requests and strip messages never
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
// delay, and torn (truncated) answers. On a strip stream every fault is
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

// SetDelay adds a fixed delay to every request and every strip message (a
// slow link).
func (t *FaultTransport) SetDelay(d time.Duration) {
	t.mu.Lock()
	t.delay = d
	t.mu.Unlock()
}

// SetTorn makes every nth answer — to a request or to a strip message —
// arrive truncated (0 disables). The truncation point is drawn from the
// seeded stream.
func (t *FaultTransport) SetTorn(n int64) {
	t.mu.Lock()
	t.tornEvery = n
	t.mu.Unlock()
}

// SetHook makes fn see every strip message that crosses the link, after its
// delay and before its partition, with the host it is bound for and whether
// it writes; fn may block it (nil removes the hook). Tests count and order
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

// openStream passes a strip stream through with every message of it under
// the fault layer. Opening one is refused under a full partition; an
// asymmetric one lets it open, so that its messages can execute unanswered.
func (t *FaultTransport) openStream(req *http.Request) (*http.Response, error) {
	t.mu.Lock()
	mode := t.mode
	t.mu.Unlock()
	if mode == PartDrop {
		req.Body.Close()
		return nil, fmt.Errorf("%w: stream refused", errPartition)
	}
	fs := &faultStream{t: t, host: req.URL.Host, ctx: req.Context(), in: req.Body}
	out := req.Clone(req.Context())
	out.Body = fs
	resp, err := t.inner.RoundTrip(out)
	if err != nil {
		return nil, err
	}
	resp.Body = &faultAnswers{s: fs, in: resp.Body}
	return resp, nil
}

// faultStream is the request side of a stream under faults: it hands the
// transport one message at a time, after drawing its fate.
type faultStream struct {
	t    *FaultTransport
	host string
	ctx  context.Context
	in   io.ReadCloser
	head [batchLenEnd]byte
	out  []byte // the rest of the message being passed on

	mu      sync.Mutex
	fates   []fate // of the messages passed on and not yet answered
	dropped bool   // a message was dropped: the stream is cut
}

func (s *faultStream) Read(p []byte) (int, error) {
	if len(s.out) == 0 {
		msg, err := readMessage(s.in, &s.head, batchMaxBytes)
		if err != nil {
			return 0, err
		}
		f := s.t.draw()
		if err := wait(s.ctx, f.delay); err != nil {
			return 0, err
		}
		if f.hook != nil {
			f.hook(s.host, msg[5] == kindWriteReq)
		}
		s.mu.Lock()
		if f.mode == PartDrop {
			// The message never reaches the node; failing the body cuts the
			// connection under the stream.
			s.dropped = true
			s.mu.Unlock()
			return 0, fmt.Errorf("%w: message dropped", errPartition)
		}
		s.fates = append(s.fates, f)
		s.mu.Unlock()
		s.out = msg
	}
	n := copy(p, s.out)
	s.out = s.out[n:]
	return n, nil
}

func (s *faultStream) Close() error { return s.in.Close() }

// faultAnswers is the answer side of a stream under faults: it passes each
// answer on as its message's fate says — whole, cut short, or not at all.
type faultAnswers struct {
	s    *faultStream
	in   io.ReadCloser
	head [batchLenEnd]byte
	rest []byte // of the answer being passed on
	err  error  // once the rest is out: the stream is over
}

func (a *faultAnswers) Read(p []byte) (int, error) {
	if len(a.rest) == 0 {
		if a.err != nil {
			return 0, a.err
		}
		msg, err := readMessage(a.in, &a.head, batchMaxBytes)
		a.s.mu.Lock()
		dropped := a.s.dropped
		var f fate
		if err == nil && len(a.s.fates) > 0 {
			f, a.s.fates = a.s.fates[0], a.s.fates[1:]
		}
		a.s.mu.Unlock()
		switch {
		case dropped:
			a.err = fmt.Errorf("%w: message dropped", errPartition)
		case err != nil:
			a.err = err
		case f.mode == PartAsym:
			// The node executed the message; the client never learns.
			a.err = fmt.Errorf("%w: answer dropped", errPartition)
		case f.torn:
			// A connection cut mid-answer: the codec must catch it.
			a.rest, a.err = msg[:f.cut(int64(len(msg)))], io.ErrUnexpectedEOF
		default:
			a.rest = msg
		}
		if len(a.rest) == 0 {
			return 0, a.err
		}
	}
	n := copy(p, a.rest)
	a.rest = a.rest[n:]
	return n, nil
}

func (a *faultAnswers) Close() error { return a.in.Close() }
