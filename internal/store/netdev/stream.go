package netdev

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptrace"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/oiraid/oiraid/internal/store"
)

// Everything a coordinator sends a node — strips, creates, deletes,
// checksums, superblock and journal reads and writes, pings, inventory reads,
// leases — rides a few long-lived streams instead of one HTTP request per op
// (DESIGN.md §13). A stream is one HTTP Upgrade of the node's stream route to
// oiraid-strips/5: the node answers 101 and takes the connection over, which
// then carries request messages of the batch codec (batch.go) one way and
// their answers the other, in order, one in flight at a time. What a request
// costs — headers, routing, a pooled connection — is paid once per stream; a
// message is one write and one read. The version in the token is the codec's,
// so a node and a client of different versions refuse each other
// (ErrNoUpgrade).
//
// Each message is one attempt of NodeClient.send, which keeps deadlines,
// retry, the breaker and the grace classification in one place — the
// prober's ping alone is one attempt outside it. A stream that fails an
// attempt is torn down, not repaired: after a deadline — the attempt's, or
// the caller's cutting the exchange — an EOF or an answer that does not
// decode, where the next message would start on the wire is unknown.
const stripsPath = "/node/v1/strips"

var stripsProto = "oiraid-strips/" + strconv.Itoa(batchVersion)

// ErrNoUpgrade reports a stream route that did not upgrade: a request without
// this codec's Upgrade token (the node answers 426), or a node that answers
// anything but 101 — one older than the upgraded streams, or of another codec
// version. Retrying cannot change it.
var ErrNoUpgrade = errors.New("netdev: stream not upgraded")

// streamIdle is how long a node keeps a stream on which no message arrives.
// A client retires a stream idle for half as long, so it never sends on one
// the node is about to end.
const streamIdle = 10 * time.Second

// streamBuf sizes the reader at each end of a stream: one message of a 4 KiB
// strip fits, so it costs one read, not two (a 101 body reads unbuffered, the
// server's buffer is 4 KiB). On BenchmarkNetDeviceStrip 8 KiB beat 4 and 64.
const streamBuf = 8 << 10

// upgradeTo reports whether h asks for, or agrees to, a stream.
func upgradeTo(h http.Header) bool { return strings.EqualFold(h.Get("Upgrade"), stripsProto) }

// stream is the client half of one open stream.
type stream struct {
	body io.ReadCloser // the 101 answer's: reads the connection, and closes it
	w    io.Writer     // writes the connection
	r    *bufio.Reader // reads the answers off body
	// timer bounds each message in flight: when it fires, it ends the
	// stream under the exchange.
	timer     *time.Timer
	once      sync.Once
	head      [batchLenEnd]byte
	idleSince time.Time
}

// end closes the stream's connection, so that every read or write on it
// returns. It is safe from any goroutine, any number of times; the deadline
// timer calls it, and so does a caller's context that ends mid-exchange.
func (s *stream) end() { s.once.Do(func() { s.body.Close() }) }

// exchange writes msg on s and reads its answer, within the attempt deadline
// and while ctx lasts (see cuts): the end of either ends the stream under the
// exchange.
func (c *NodeClient) exchange(ctx context.Context, s *stream, msg []byte) ([]byte, error) {
	s.timer.Reset(c.opts.Timeout)
	var stop func() bool
	if c.cuts(ctx) {
		stop = context.AfterFunc(ctx, s.end)
	}
	_, err := s.w.Write(msg)
	var answer []byte
	if err == nil {
		answer, err = readMessage(s.r, &s.head, batchMaxBytes)
	}
	switch {
	case stop != nil && !stop():
		s.timer.Stop()
		return nil, fmt.Errorf("netdev: stream: cut by its caller: %w", ctx.Err())
	case !s.timer.Stop():
		return nil, fmt.Errorf("netdev: stream: no answer within %v: %w", c.opts.Timeout, context.DeadlineExceeded)
	}
	if err != nil {
		return nil, fmt.Errorf("netdev: stream: %w", err)
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
// idle set they opened 3. A kept stream costs about 37 KiB of heap and
// stack over client and node together, an idle keep-alive connection 42.
const maxIdleStreams = 8

// send is one message through the retry loop under ctx, each try an attempt.
func (c *NodeClient) send(ctx context.Context, msg []byte, apply func(answer []byte) error) error {
	return c.run(ctx, func(ctx context.Context) (time.Duration, bool, error) { return c.attempt(ctx, msg, apply) })
}

// attempt takes a stream, writes msg and hands the answer to apply. A stream
// that fails it is dropped along with the idle ones (all lead to the same
// node, which may have restarted under them) and the next attempt dials
// afresh; an error of apply's that is not ErrBadFrame — a retryable item
// verdict — leaves the stream in the pool.
func (c *NodeClient) attempt(ctx context.Context, msg []byte, apply func(answer []byte) error) (retryAfter time.Duration, retryable bool, err error) {
	s, retryAfter, retryable, err := c.take(ctx)
	if err != nil {
		return retryAfter, retryable, err
	}
	c.stats.msgs[msg[5]/2].Add(1)
	answer, err := c.exchange(ctx, s, msg)
	if err == nil {
		if err = apply(answer); !errors.Is(err, ErrBadFrame) {
			c.put(s)
			return 0, err != nil, err
		}
	}
	c.drop(s)
	return 0, true, err
}

// cuts reports whether an exchange or a dial under ctx must watch it. The
// client's own context needs no watch — Close ends every stream and dial
// itself — and neither does one that is never done, so a write, and every
// read no caller bounds, registers nothing.
func (c *NodeClient) cuts(ctx context.Context) bool { return ctx != c.done && ctx.Done() != nil }

// take returns the most recently used idle stream, or dials one (see dial).
func (c *NodeClient) take(ctx context.Context) (s *stream, retryAfter time.Duration, retryable bool, err error) {
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
	return c.dial(ctx)
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
		s.end()
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
	s.end()
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
		s.end()
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

// dial opens a stream: one Upgrade of the stream route, through the client's
// transport, whose 101 answer hands the connection over. The open is bounded
// by the attempt deadline, and Close cancels it, as does the end of the
// caller's context (see cuts); a refusal is classified by the catalogue, a
// node that answers anything but 101 is ErrNoUpgrade, and a transport failure
// is a wire fault.
func (c *NodeClient) dial(caller context.Context) (*stream, time.Duration, bool, error) {
	ctx, cancel := context.WithTimeout(c.done, c.opts.Timeout)
	defer cancel()
	if c.cuts(caller) {
		defer context.AfterFunc(caller, cancel)()
	}
	// The connection the upgrade went out on writes the stream when an
	// interposer wrapped the 101 body as a plain ReadCloser (the bench's
	// tracer does), hiding its Write.
	var sent io.Writer
	ctx = httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{GotConn: func(ci httptrace.GotConnInfo) { sent = ci.Conn }})
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+stripsPath, nil)
	if err != nil {
		return nil, 0, false, err
	}
	req.Header.Set("Connection", "Upgrade")
	req.Header.Set("Upgrade", stripsProto)
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, 0, true, err
	}
	if w, ok := resp.Body.(io.Writer); ok {
		sent = w
	}
	var retryAfter time.Duration
	retryable := false
	switch {
	case resp.StatusCode >= 300:
		retryAfter, retryable, err = Catalogue.Decode(resp)
	case resp.StatusCode != http.StatusSwitchingProtocols || !upgradeTo(resp.Header):
		err = fmt.Errorf("%w: the node answered %s", ErrNoUpgrade, resp.Status)
	case sent == nil:
		err = errors.New("netdev: stream: the upgraded connection is not writable")
	}
	if err != nil {
		resp.Body.Close()
		return nil, retryAfter, retryable, err
	}
	s := &stream{body: resp.Body, w: sent, r: bufio.NewReaderSize(resp.Body, streamBuf)}
	s.timer = time.AfterFunc(c.opts.Timeout, s.end)
	p := &c.streams
	p.mu.Lock()
	defer p.mu.Unlock()
	if c.closed.Load() {
		s.end()
		return nil, 0, false, store.ErrClosed
	}
	if p.live == nil {
		p.live = map[*stream]struct{}{}
	}
	p.live[s] = struct{}{}
	c.stats.streamOpens.Add(1)
	return s, 0, false, nil
}

// nodeStreams is a node's open streams. A hijacked connection is the node's,
// unknown to its http.Server's Close and Shutdown, so the node ends them: at
// Close, at the Shutdown of the server they came through, and when idle.
type nodeStreams struct {
	mu      sync.Mutex
	open    map[*nodeStream]struct{}
	hooked  map[*http.Server]bool // servers whose Shutdown ends their streams
	closing bool
	wg      sync.WaitGroup
}

type nodeStream struct {
	conn  net.Conn
	srv   *http.Server
	ended atomic.Bool
}

// handleStrips serves the node's stream route: a request that asks for
// the upgrade has its connection taken over and served as a stream in a
// goroutine of its own, so what the server kept for the request goes with
// the handler; any other is answered 426.
func (n *Node) handleStrips(w http.ResponseWriter, r *http.Request) {
	if !upgradeTo(r.Header) {
		w.Header().Set("Upgrade", stripsProto)
		fail(w, fmt.Errorf("%w: %s takes Upgrade: %s", ErrNoUpgrade, stripsPath, stripsProto))
		return
	}
	conn, brw, err := http.NewResponseController(w).Hijack()
	if err != nil {
		fail(w, fmt.Errorf("netdev: stream: %w", err))
		return
	}
	st := n.openStream(r, conn)
	if st == nil {
		conn.Close() // the node is closing
		return
	}
	br := brw.Reader
	if br.Buffered() == 0 {
		br = bufio.NewReaderSize(conn, streamBuf)
	}
	go n.serveStream(st, br)
}

// serveStream answers the 101, then each message of the stream in turn,
// reading them through br. A message that does not decode ends the stream —
// refused whole before anything it names is touched, and nothing after it
// can be trusted to start where it seems to — and so do an EOF, a stream
// idle for streamIdle, the node's Close and the server's Shutdown.
func (n *Node) serveStream(st *nodeStream, br *bufio.Reader) {
	conn := st.conn
	defer n.closeStream(st)
	if _, err := io.WriteString(conn, "HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: "+stripsProto+"\r\n\r\n"); err != nil {
		return
	}
	var head [batchLenEnd]byte
	for {
		// The deadline goes first and the check second; endStreams marks
		// first and sets its own deadline second. So either this read meets
		// the past deadline or the check sees the mark.
		conn.SetReadDeadline(time.Now().Add(streamIdle))
		if st.ended.Load() {
			return
		}
		msg, err := readMessage(br, &head, batchMaxBytes)
		if err != nil {
			return
		}
		answer := n.answer(msg)
		putMsg(msg)
		if answer == nil {
			return
		}
		_, err = conn.Write(answer)
		putMsg(answer)
		if err != nil {
			return
		}
	}
}

// answer executes one request message and returns its answer, nil when the
// message is not a request that decodes.
func (n *Node) answer(msg []byte) []byte {
	kind := msg[5]
	if kind%2 == 0 || kind >= kindEnd {
		return nil
	}
	items, f, err := decodeBatch(msg, kind)
	switch {
	case err != nil:
		return nil
	case kind == kindReadReq:
		return n.readStrips(items)
	case kind == kindWriteReq:
		return n.writeStrips(f, items)
	}
	return n.serveItems(kind, f, items)
}

// openStream registers a stream on conn, nil when the node is closing. The
// first stream through a server hooks that server's Shutdown.
func (n *Node) openStream(r *http.Request, conn net.Conn) *nodeStream {
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
	st := &nodeStream{conn: conn, srv: srv}
	ns.open[st] = struct{}{}
	ns.wg.Add(1)
	return st
}

// closeStream closes a stream's connection and forgets it.
func (n *Node) closeStream(st *nodeStream) {
	st.conn.Close()
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
			st.conn.SetReadDeadline(past)
		}
	}
}
