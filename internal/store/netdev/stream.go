package netdev

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"github.com/oiraid/oiraid/internal/store"
)

// A coordinator's strip traffic to a node rides a few long-lived streams
// instead of one HTTP request per op (DESIGN.md §13). A stream is one POST to
// the node's strip route, made full duplex: its request body carries request
// messages of the batch codec (batch.go), its response body carries their
// answers, in order, one message in flight at a time. Everything a request
// costs — headers, routing, a connection taken from and given back to a pool
// — is paid once per stream, not once per message.
//
// Each message is one attempt of NodeClient.send, which keeps deadlines,
// retry, the breaker and the grace classification where every other call has
// them. A stream that fails an attempt is torn down, not repaired: after a
// deadline, an EOF or an answer that does not decode, where the next message
// would start on the wire is unknown.
const stripsPath = "/node/v1/strips"

// streamIdle is how long a node keeps a stream on which no message arrives.
// A client retires a stream idle for half as long, so it never sends on one
// the node is about to end.
const streamIdle = 10 * time.Second

var errStreamEnded = errors.New("netdev: strip stream ended")

// stream is the client half of one open stream.
type stream struct {
	pr     *io.PipeReader // what the transport sends: the request body
	pw     *io.PipeWriter // where send writes messages
	body   io.ReadCloser  // the answers; set once the node accepted the stream
	cancel context.CancelFunc
	// timer bounds the open and then each message in flight: when it fires,
	// it ends the stream under whatever waits on it.
	timer     *time.Timer
	once      sync.Once
	head      [batchLenEnd]byte
	idleSince time.Time
}

// end tears the stream's connection down, so that every read or write on it
// returns. It is safe from any goroutine, any number of times; the deadline
// timer calls it.
func (s *stream) end() {
	s.once.Do(func() {
		s.cancel()
		s.pr.CloseWithError(errStreamEnded)
	})
}

// close ends the stream and releases its answers' body; only the stream's
// owner calls it.
func (s *stream) close() {
	s.end()
	if s.body != nil {
		s.body.Close()
	}
}

// exchange writes msg and reads its answer, within timeout.
func (s *stream) exchange(msg []byte, timeout time.Duration) ([]byte, error) {
	s.timer.Reset(timeout)
	_, err := s.pw.Write(msg)
	var answer []byte
	if err == nil {
		answer, err = readMessage(s.body, &s.head, batchMaxBytes)
	}
	if !s.timer.Stop() {
		return nil, fmt.Errorf("netdev: strip stream: no answer within %v: %w", timeout, context.DeadlineExceeded)
	}
	if err != nil {
		return nil, fmt.Errorf("netdev: strip stream: %w", err)
	}
	return answer, nil
}

// streamPool is a client's streams to its node: every open one, and the
// idle ones kept between exchanges, the most recently used last. A stream
// that comes back is kept unless maxIdleStreams are idle already, and one
// idle past half the node's streamIdle is closed, so the idle set follows
// how many exchanges to the node overlapped in the last few seconds.
type streamPool struct {
	mu   sync.Mutex
	live map[*stream]struct{}
	idle []*stream
}

// maxIdleStreams bounds a client's idle streams. A coordinator overlaps
// exchanges to one node from its engine's workers, its foreground callers
// and a rebuild or migration beside them. Measured on the bench's
// cluster-4k (20 s, loopback, go1.24): with one stream kept per node, the
// two parallel clients of its mixed phase opened 9,444 streams; with this
// idle set they opened 3. A kept stream costs about 80 KiB of heap and
// stack over client and node together, an idle keep-alive connection
// 15–30 KiB; 32 KiB of the difference is net/http's copy buffer, held
// for the life of a streaming request body.
const maxIdleStreams = 8

// send is one strip message through the retry loop. Each attempt takes a
// stream, writes msg and hands the answer to apply. A stream that fails an
// attempt is dropped along with the idle ones (all lead to the same node,
// which may have restarted under them) and the next attempt dials afresh; an
// error of apply's that is not ErrBadFrame — a retryable item verdict —
// leaves the stream in the pool.
func (c *NodeClient) send(msg []byte, apply func(answer []byte) error) error {
	sent := &c.stats.readMsgs
	if msg[5] == kindWriteReq {
		sent = &c.stats.writeMsgs
	}
	return c.run(func(context.Context) (time.Duration, bool, error) {
		s, retryAfter, retryable, err := c.take()
		if err != nil {
			return retryAfter, retryable, err
		}
		sent.Add(1)
		answer, err := s.exchange(msg, c.opts.Timeout)
		if err == nil {
			if err = apply(answer); !errors.Is(err, ErrBadFrame) {
				c.put(s)
				return 0, err != nil, err
			}
		}
		c.drop(s)
		return 0, true, err
	})
}

// take returns the most recently used idle stream, or dials one.
func (c *NodeClient) take() (s *stream, retryAfter time.Duration, retryable bool, err error) {
	p := &c.streams
	p.mu.Lock()
	c.retireLocked()
	if n := len(p.idle); n > 0 {
		s = p.idle[n-1]
		p.idle[n-1] = nil
		p.idle = p.idle[:n-1]
		p.mu.Unlock()
		return s, 0, false, nil
	}
	p.mu.Unlock()
	return c.dial()
}

// put keeps a stream whose last exchange went well, unless the idle set is
// full.
func (c *NodeClient) put(s *stream) {
	p := &c.streams
	p.mu.Lock()
	c.retireLocked()
	if c.closed.Load() || len(p.idle) >= maxIdleStreams {
		delete(p.live, s)
		p.mu.Unlock()
		s.close()
		return
	}
	s.idleSince = time.Now()
	p.idle = append(p.idle, s)
	p.mu.Unlock()
}

// drop closes a stream that failed an attempt, and the idle ones.
func (c *NodeClient) drop(s *stream) {
	p := &c.streams
	p.mu.Lock()
	delete(p.live, s)
	c.dropIdleLocked(len(p.idle))
	p.mu.Unlock()
	s.close()
}

// retireLocked closes the idle streams idle past half the node's streamIdle,
// with the pool's lock held.
func (c *NodeClient) retireLocked() {
	p := &c.streams
	stale := 0
	for stale < len(p.idle) && time.Since(p.idle[stale].idleSince) >= streamIdle/2 {
		stale++
	}
	c.dropIdleLocked(stale)
}

// dropIdleLocked closes the n least recently used idle streams, with the
// pool's lock held.
func (c *NodeClient) dropIdleLocked(n int) {
	p := &c.streams
	for _, s := range p.idle[:n] {
		delete(p.live, s)
		s.close()
	}
	rest := copy(p.idle, p.idle[n:])
	clear(p.idle[rest:])
	p.idle = p.idle[:rest]
}

// endStreams ends every stream of the client, idle or in use: an exchange in
// flight fails, and its owner drops the stream.
func (c *NodeClient) endStreams() {
	p := &c.streams
	p.mu.Lock()
	defer p.mu.Unlock()
	c.dropIdleLocked(len(p.idle))
	for s := range p.live {
		s.end()
	}
}

// dial opens a stream: one POST whose answer's headers say the node took it.
// The open is bounded by the attempt deadline like any request; a refusal is
// classified by the catalogue, a transport failure is a wire fault.
func (c *NodeClient) dial() (*stream, time.Duration, bool, error) {
	ctx, cancel := context.WithCancel(context.Background())
	pr, pw := io.Pipe()
	s := &stream{pr: pr, pw: pw, cancel: cancel}
	p := &c.streams
	p.mu.Lock()
	if c.closed.Load() {
		p.mu.Unlock()
		s.end()
		return nil, 0, false, store.ErrClosed
	}
	if p.live == nil {
		p.live = map[*stream]struct{}{}
	}
	p.live[s] = struct{}{}
	p.mu.Unlock()
	forget := func() {
		p.mu.Lock()
		delete(p.live, s)
		p.mu.Unlock()
		s.end()
	}

	s.timer = time.AfterFunc(c.opts.Timeout, s.end)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+stripsPath, pr)
	if err != nil {
		s.timer.Stop()
		forget()
		return nil, 0, false, err
	}
	req.Header.Set("Content-Type", octetStream)
	resp, err := c.hc.Do(req)
	fired := !s.timer.Stop()
	switch {
	case err != nil:
		forget()
		return nil, 0, true, err
	case fired:
		resp.Body.Close()
		forget()
		return nil, 0, true, fmt.Errorf("netdev: strip stream not accepted within %v: %w", c.opts.Timeout, context.DeadlineExceeded)
	case resp.StatusCode != http.StatusOK:
		retryAfter, retryable, err := Catalogue.Decode(resp)
		resp.Body.Close()
		forget()
		return nil, retryAfter, retryable, err
	}
	s.body = resp.Body
	c.stats.streamOpens.Add(1)
	return s, 0, false, nil
}

// nodeStreams is a node's open streams, so that Close — and the Shutdown of
// the server a stream came through — can end them: a stream is a request
// that never finishes on its own while its client keeps it.
type nodeStreams struct {
	mu      sync.Mutex
	open    map[*nodeStream]struct{}
	hooked  map[*http.Server]bool // servers whose Shutdown ends their streams
	closing bool
	wg      sync.WaitGroup
}

type nodeStream struct {
	rc    *http.ResponseController
	srv   *http.Server
	ended atomic.Bool
}

// handleStrips serves the node's one strip route: a stream of request
// messages, each answered in turn. A message that does not decode ends the
// stream — refused whole before anything it names is touched, and nothing
// after it can be trusted to start where it seems to — and so do an EOF, a
// stream idle for streamIdle, the node's Close and the server's Shutdown.
func (n *Node) handleStrips(w http.ResponseWriter, r *http.Request) {
	rc := http.NewResponseController(w)
	if err := rc.EnableFullDuplex(); err != nil {
		fail(w, fmt.Errorf("netdev: strip stream: %w", err))
		return
	}
	st := n.openStream(r, rc)
	if st == nil {
		fail(w, fmt.Errorf("%w: node is closing", store.ErrClosed))
		return
	}
	defer n.closeStream(st)
	w.Header().Set("Content-Type", octetStream)
	w.WriteHeader(http.StatusOK)
	if rc.Flush() != nil {
		return
	}
	var head [batchLenEnd]byte
	for {
		// The deadline goes first and the check second; endStreams marks
		// first and sets its own deadline second. So either this read meets
		// the past deadline or the check sees the mark.
		rc.SetReadDeadline(time.Now().Add(streamIdle))
		if st.ended.Load() {
			return
		}
		msg, err := readMessage(r.Body, &head, batchMaxBytes)
		if err != nil {
			return
		}
		answer := n.answer(msg)
		putMsg(msg)
		if answer == nil {
			return
		}
		_, err = w.Write(answer)
		putMsg(answer)
		if err != nil || rc.Flush() != nil {
			return
		}
	}
}

// answer executes one request message and returns its answer, nil when the
// message is not a request that decodes.
func (n *Node) answer(msg []byte) []byte {
	kind := msg[5]
	items, f, err := decodeBatch(msg, kind, batchMaxBytes)
	switch {
	case err != nil:
		return nil
	case kind == kindReadReq:
		return n.readStrips(items)
	case kind == kindWriteReq:
		return n.writeStrips(f, items)
	}
	return nil
}

// openStream registers a stream, nil when the node is closing. The first
// stream through a server hooks that server's Shutdown.
func (n *Node) openStream(r *http.Request, rc *http.ResponseController) *nodeStream {
	srv, _ := r.Context().Value(http.ServerContextKey).(*http.Server)
	ns := &n.streams
	ns.mu.Lock()
	defer ns.mu.Unlock()
	if ns.closing {
		return nil
	}
	if srv != nil && !ns.hooked[srv] {
		if ns.hooked == nil {
			ns.hooked = map[*http.Server]bool{}
		}
		ns.hooked[srv] = true
		srv.RegisterOnShutdown(func() { n.endStreams(srv) })
	}
	if ns.open == nil {
		ns.open = map[*nodeStream]struct{}{}
	}
	st := &nodeStream{rc: rc, srv: srv}
	ns.open[st] = struct{}{}
	ns.wg.Add(1)
	return st
}

func (n *Node) closeStream(st *nodeStream) {
	ns := &n.streams
	ns.mu.Lock()
	delete(ns.open, st)
	ns.mu.Unlock()
	ns.wg.Done()
}

// endStreams ends the streams that came through srv, or all of them and
// every later one when srv is nil (Close). A stream waiting for a message
// ends at once; one executing a message ends when it has answered it.
func (n *Node) endStreams(srv *http.Server) {
	ns := &n.streams
	ns.mu.Lock()
	defer ns.mu.Unlock()
	if srv == nil {
		ns.closing = true
	}
	past := time.Unix(1, 0)
	for st := range ns.open {
		if srv == nil || st.srv == srv {
			st.ended.Store(true)
			st.rc.SetReadDeadline(past)
		}
	}
}
