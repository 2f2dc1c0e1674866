package netdev

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/oiraid/oiraid/internal/retry"
	"github.com/oiraid/oiraid/internal/store"
)

// ErrNodeLost reports a node whose unreachability outlived the grace
// window: the client has declared it gone for good. It wraps
// store.ErrPermanent, so the health monitor counts it toward eviction
// and the evict→spare→rebuild heal path engages for the node's disks.
var ErrNodeLost = fmt.Errorf("netdev: node lost: %w", store.ErrPermanent)

// ErrWrongNode reports a node that answered with an unexpected identity:
// the address points at a different node than the manifest says (a DHCP
// lease moved, a port was reused). Treated as permanent — retrying the
// same address cannot fix a mis-wired cluster map.
var ErrWrongNode = fmt.Errorf("netdev: node identity mismatch: %w", store.ErrPermanent)

// Options tunes a NodeClient. The zero value gets usable defaults.
type Options struct {
	// Timeout bounds each attempt (connect + request + response),
	// default 2s.
	Timeout time.Duration
	// MaxAttempts bounds attempts per operation (default 3).
	MaxAttempts int
	// BaseDelay seeds the full-jitter backoff between attempts (default
	// 2ms); MaxDelay caps it (default 100ms).
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// BreakerThreshold opens the per-node circuit after this many
	// consecutive attempt failures (default 5); while open, operations
	// fail fast without touching the wire until BreakerCooldown (default
	// 500ms) elapses and a half-open trial is allowed.
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// Grace is how long the node may stay unreachable before the client
	// declares it lost (operations turn from store.ErrUnreachable into
	// ErrNodeLost). Zero means never: the node is only ever transiently
	// down. The window starts at the first failed operation after a
	// period of health.
	Grace time.Duration
	// ProbeInterval is the background ping cadence while the node is
	// down (default 250ms). The prober drives the down→up transition
	// even when no foreground operations are flowing.
	ProbeInterval time.Duration
	// ExpectID, when set, makes the client verify the node's /ping
	// identity and fail permanently on mismatch.
	ExpectID string
	// Seed fixes the backoff jitter stream for deterministic tests.
	Seed int64
	// Transport overrides the HTTP transport (fault injection hook). Without
	// one, the client has a clone of the default transport of its own, so
	// its Close leaves other clients' idle connections alone.
	Transport http.RoundTripper
	// OnDown runs (in its own goroutine, at most once per down episode)
	// when the node transitions reachable→unreachable, and once more when
	// the node is declared lost (Lost reports true by then); OnUp runs on
	// the way back. Close drains both.
	OnDown func()
	OnUp   func()
}

func (o Options) withDefaults() Options {
	if o.Timeout <= 0 {
		o.Timeout = 2 * time.Second
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 3
	}
	if o.BaseDelay <= 0 {
		o.BaseDelay = 2 * time.Millisecond
	}
	if o.MaxDelay <= 0 {
		o.MaxDelay = 100 * time.Millisecond
	}
	if o.BreakerThreshold <= 0 {
		o.BreakerThreshold = 5
	}
	if o.BreakerCooldown <= 0 {
		o.BreakerCooldown = 500 * time.Millisecond
	}
	if o.ProbeInterval <= 0 {
		o.ProbeInterval = 250 * time.Millisecond
	}
	return o
}

// NodeClient is the coordinator's handle on one storage node: every
// NetDevice and NetBlob on that node shares its retry policy and breaker
// (internal/retry), plus the node's reachability state machine:
//
//	reachable --attempts exhausted--> down --grace elapses--> lost
//	     ^---------probe succeeds--------'        (terminal)
//
// While down, operations fail with store.ErrUnreachable (transient: the
// engine's monitor does not count it toward eviction, and the cluster
// layer marks the node's disks down so reads reconstruct around them).
// Once lost, operations fail with ErrNodeLost (permanent: eviction and
// heal). A background prober pings the node while it is down, so
// recovery is detected even with no foreground traffic.
type NodeClient struct {
	base string
	hc   *http.Client
	opts Options

	pol     retry.Policy
	retry   *retry.Retrier
	breaker *retry.Breaker

	mu        sync.Mutex
	down      bool
	downSince time.Time
	probing   bool

	lost   atomic.Bool
	closed atomic.Bool

	// cbWg tracks OnDown/OnUp callback goroutines and probeWg the
	// background prober; Close drains both so an engine shutdown leaves
	// no transport goroutine behind.
	cbWg      sync.WaitGroup
	probeWg   sync.WaitGroup
	probeStop chan struct{}

	// fence, when set, stamps every mutating request with the
	// coordinator's fencing epoch (see SetFence).
	fence atomic.Pointer[FenceToken]

	// streams carry every strip message (stream.go).
	streams streamPool

	stats struct {
		attempts, retries, breakerFastFails atomic.Int64
		downs, ups                          atomic.Int64
		readMsgs, writeMsgs, streamOpens    atomic.Int64
	}
}

// NewNodeClient builds a client for the node at base (e.g.
// "http://127.0.0.1:7980").
func NewNodeClient(base string, opts Options) *NodeClient {
	opts = opts.withDefaults()
	if opts.Transport == nil {
		opts.Transport = http.DefaultTransport.(*http.Transport).Clone()
	}
	r := retry.New(opts.Seed)
	return &NodeClient{
		base:      strings.TrimRight(base, "/"),
		hc:        &http.Client{Transport: opts.Transport},
		opts:      opts,
		pol:       retry.Policy{Attempts: opts.MaxAttempts, BaseDelay: opts.BaseDelay, MaxDelay: opts.MaxDelay},
		retry:     r,
		breaker:   r.NewBreaker(opts.BreakerThreshold, opts.BreakerCooldown),
		probeStop: make(chan struct{}),
	}
}

// Base returns the node's base URL.
func (c *NodeClient) Base() string { return c.base }

// Down reports whether the node is currently considered unreachable.
func (c *NodeClient) Down() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.down
}

// Lost reports whether the node has been declared lost for good.
func (c *NodeClient) Lost() bool { return c.lost.Load() }

// Close ends every strip stream, stops the background prober, waits for
// in-flight OnDown/OnUp callbacks, and closes idle connections. Operations
// after Close return store.ErrClosed.
func (c *NodeClient) Close() error {
	if c.closed.Swap(true) {
		return nil
	}
	c.endStreams()
	close(c.probeStop)
	c.probeWg.Wait()
	c.cbWg.Wait()
	if t, ok := c.hc.Transport.(interface{ CloseIdleConnections() }); ok {
		t.CloseIdleConnections()
	}
	return nil
}

// call is one node request: what to send and how to read the answer.
type call struct {
	method string
	url    string // absolute
	body   []byte // nil: no body
	ctype  string // Content-Type of body
	crc    string // X-Oiraid-Crc of body ("" = none)
}

// decoder reads a 2xx response to its end (an unread remainder costs the
// connection its reuse). Any error it returns means the bytes were torn
// or corrupted in flight, and the attempt is retried as a wire fault. It
// travels beside the call, not inside it, so that the closures the hot
// strip path passes stay on the stack.
type decoder func(*http.Response) error

// discard is the decoder of calls that expect no payload. A declared-empty
// body (every 204) has nothing to consume.
func discard(resp *http.Response) error {
	if resp.ContentLength != 0 {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
	}
	return nil
}

// roundTrip performs one attempt of rq under the per-attempt deadline and
// classifies the outcome for the retry loop: a transport failure or a
// damaged response is a retryable wire fault, an error response is
// whatever the catalogue says its code is. A nil decode means discard.
func (c *NodeClient) roundTrip(ctx context.Context, rq *call, decode decoder) (retryAfter time.Duration, retryable bool, err error) {
	ctx, cancel := context.WithTimeout(ctx, c.opts.Timeout)
	defer cancel()
	var body io.Reader
	if rq.body != nil {
		body = bytes.NewReader(rq.body)
	}
	req, err := http.NewRequestWithContext(ctx, rq.method, rq.url, body)
	if err != nil {
		return 0, false, err
	}
	if rq.body != nil {
		req.Header.Set("Content-Type", rq.ctype)
	}
	if rq.crc != "" {
		req.Header.Set(crcHeader, rq.crc)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, true, err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		return Catalogue.Decode(resp)
	}
	if decode == nil {
		decode = discard
	}
	if err := decode(resp); err != nil {
		return 0, true, err
	}
	return 0, false, nil
}

// do is one request through run.
func (c *NodeClient) do(rq call, decode decoder) error {
	return c.run(func(ctx context.Context) (time.Duration, bool, error) {
		return c.roundTrip(ctx, &rq, decode)
	})
}

// run runs attempt — one request, or one strip message — through the shared
// retry loop and breaker, then folds the outcome into the reachability
// state: an answer from the node — even a rejection — proves the wire fine
// and passes through unchanged (a permanent media error, a fenced write, a
// caller bug); a wire fault that outlived the policy, or a breaker refusal,
// means the node is down. An attempt reports whether its failure is
// retryable, and a retryable failure is a wire fault.
func (c *NodeClient) run(attempt func(context.Context) (retryAfter time.Duration, retryable bool, err error)) error {
	if c.closed.Load() {
		return store.ErrClosed
	}
	if c.lost.Load() {
		return ErrNodeLost
	}
	var wireFault bool
	attempts, err := c.retry.Do(context.Background(), c.pol, c.breaker, func(ctx context.Context) (retryAfter time.Duration, _ bool, err error) {
		if c.closed.Load() {
			return 0, false, store.ErrClosed
		}
		retryAfter, wireFault, err = attempt(ctx)
		return retryAfter, wireFault, err
	})
	c.stats.attempts.Add(int64(attempts))
	c.stats.retries.Add(int64(max(attempts-1, 0)))
	switch {
	case err != nil && c.closed.Load():
		return store.ErrClosed
	case errors.Is(err, retry.ErrCircuitOpen):
		c.stats.breakerFastFails.Add(1)
		return c.classifyDown(err)
	case wireFault:
		return c.classifyDown(err)
	}
	c.markUp()
	return err
}

// markUp ends a down episode: the node answered.
func (c *NodeClient) markUp() {
	c.mu.Lock()
	wasDown := c.down
	c.down = false
	c.mu.Unlock()
	if wasDown {
		c.stats.ups.Add(1)
		c.fire(c.opts.OnUp)
	}
}

// classifyDown ends a failed operation: the node is (still) down. The
// first failure of an episode stamps downSince and starts the prober;
// once the grace window elapses the node is declared lost.
func (c *NodeClient) classifyDown(cause error) error {
	now := time.Now()
	c.mu.Lock()
	if !c.down {
		c.down = true
		c.downSince = now
		c.stats.downs.Add(1)
		if !c.probing && !c.closed.Load() {
			c.probing = true
			c.probeWg.Add(1)
			go c.probeLoop()
		}
		c.mu.Unlock()
		c.fire(c.opts.OnDown)
		c.mu.Lock()
	}
	elapsed := now.Sub(c.downSince)
	c.mu.Unlock()
	if c.opts.Grace > 0 && elapsed >= c.opts.Grace {
		c.markLost()
		return fmt.Errorf("%w (down %v, cause: %v)", ErrNodeLost, elapsed.Round(time.Millisecond), cause)
	}
	return fmt.Errorf("%w: %s (%v)", store.ErrUnreachable, c.base, cause)
}

// markLost latches the node lost and tells the OnDown hook, which may be
// the only news of it: the prober can declare a node lost with no
// operation in flight to carry ErrNodeLost.
func (c *NodeClient) markLost() {
	if !c.lost.Swap(true) {
		c.fire(c.opts.OnDown)
	}
}

// fire runs a reachability callback in a tracked goroutine. Callbacks
// must not run inline: markDown fires from inside device operations that
// hold array locks, and the cluster layer's handlers (marking the node's
// disks down and up) take them again.
func (c *NodeClient) fire(fn func()) {
	if fn == nil {
		return
	}
	c.cbWg.Add(1)
	go func() {
		defer c.cbWg.Done()
		fn()
	}()
}

// probeLoop pings the node while it is down. A successful ping closes the
// breaker and ends the episode (markUp fires OnUp); a grace expiry
// declares the node lost and stops probing — there is nothing left to
// recover to, the disks are being rebuilt elsewhere. Each wait is
// jittered (see probeDelay).
func (c *NodeClient) probeLoop() {
	defer c.probeWg.Done()
	timer := time.NewTimer(c.probeDelay())
	defer timer.Stop()
	for {
		select {
		case <-c.probeStop:
			return
		case <-timer.C:
		}
		timer.Reset(c.probeDelay())
		c.mu.Lock()
		down := c.down
		since := c.downSince
		c.mu.Unlock()
		if !down {
			c.mu.Lock()
			c.probing = false
			c.mu.Unlock()
			return
		}
		if c.opts.Grace > 0 && time.Since(since) >= c.opts.Grace {
			c.markLost()
			c.mu.Lock()
			c.probing = false
			c.mu.Unlock()
			return
		}
		if err := c.pingOnce(); err == nil {
			c.breaker.Record(true)
			c.markUp()
			c.mu.Lock()
			c.probing = false
			c.mu.Unlock()
			return
		}
	}
}

// probeDelay draws the next probe wait, uniform in [½, 1½]× the
// configured interval from the client's seeded jitter stream, so a fleet
// of clients watching the same node does not stampede it the moment it
// comes back.
func (c *NodeClient) probeDelay() time.Duration {
	iv := c.opts.ProbeInterval
	return iv/2 + c.retry.Backoff(retry.Policy{BaseDelay: iv, MaxDelay: iv}, 0, 0)
}

// ping builds the identity ping; the decoder stores the node's answer in
// who.
func (c *NodeClient) ping(who *string) (call, decoder) {
	return call{method: http.MethodGet, url: c.base + "/node/v1/ping"}, func(resp *http.Response) error {
		var body struct {
			Node string `json:"node"`
		}
		err := decodeJSON(&body)(resp)
		*who = body.Node
		return err
	}
}

// checkIdentity declares the node lost when it is not the one the
// manifest expects at this address.
func (c *NodeClient) checkIdentity(who string) error {
	if c.opts.ExpectID != "" && who != c.opts.ExpectID {
		c.markLost()
		return fmt.Errorf("%w: want %q, got %q", ErrWrongNode, c.opts.ExpectID, who)
	}
	return nil
}

// pingOnce performs a single identity-checked ping without retry
// machinery (the prober is its own retry loop).
func (c *NodeClient) pingOnce() error {
	var who string
	rq, decode := c.ping(&who)
	if _, _, err := c.roundTrip(context.Background(), &rq, decode); err != nil {
		return err
	}
	return c.checkIdentity(who)
}

// Ping verifies the node answers (and, with ExpectID set, that it is
// the right node), through the full retry/breaker machinery.
func (c *NodeClient) Ping() error {
	var who string
	if err := c.do(c.ping(&who)); err != nil {
		return err
	}
	return c.checkIdentity(who)
}

// Stat fetches the node's inventory.
func (c *NodeClient) Stat() (NodeStat, error) {
	var st NodeStat
	err := c.getJSON("/node/v1/stat", &st)
	return st, err
}

const octetStream = "application/octet-stream"

// putBytes builds the PUT of a checksummed byte body (a blob write).
func putBytes(url string, p []byte) call {
	return call{method: http.MethodPut, url: url, body: p, ctype: octetStream, crc: blobCRC(p)}
}

// readBody reads a response body of at most max bytes and verifies it
// against the node's X-Oiraid-Crc header when one is present.
func readBody(resp *http.Response, max int) ([]byte, error) {
	body, err := readSized(resp.Body, resp.ContentLength, max)
	if err != nil {
		return nil, err
	}
	if want := resp.Header.Get(crcHeader); want != "" && want != blobCRC(body) {
		return nil, fmt.Errorf("%w: body crc %s, header says %s", ErrBadFrame, blobCRC(body), want)
	}
	return body, nil
}

// decodeWritten returns a call decoder checking the node acknowledged
// all want bytes of a write.
func decodeWritten(want int) decoder {
	return func(resp *http.Response) error {
		var out struct {
			Written int `json:"written"`
		}
		if err := decodeJSON(&out)(resp); err != nil {
			return err
		}
		if out.Written != want {
			return fmt.Errorf("netdev: short write %d of %d", out.Written, want)
		}
		return nil
	}
}

// decodeJSON returns a call decoder filling v from a JSON response.
func decodeJSON(v any) decoder {
	return func(resp *http.Response) error {
		body := io.LimitReader(resp.Body, 1<<20)
		err := json.NewDecoder(body).Decode(v)
		io.Copy(io.Discard, body)
		return err
	}
}

// getJSON GETs path and decodes the JSON response.
func (c *NodeClient) getJSON(path string, v any) error {
	return c.do(call{method: http.MethodGet, url: c.base + path}, decodeJSON(v))
}

// postJSON POSTs a JSON body to path; out, when non-nil, receives the
// decoded response (a 204 leaves it untouched).
func (c *NodeClient) postJSON(path string, in, out any) error {
	rq := call{method: http.MethodPost, url: c.base + path, ctype: "application/json"}
	if in != nil {
		var err error
		if rq.body, err = json.Marshal(in); err != nil {
			return err
		}
	}
	var decode decoder
	if out != nil {
		decode = func(resp *http.Response) error {
			if resp.StatusCode != http.StatusOK {
				return discard(resp)
			}
			return decodeJSON(out)(resp)
		}
	}
	return c.do(rq, decode)
}

// ClientStats is a snapshot of the client's wire counters. ReadMessages and
// WriteMessages count the strip messages sent, one per attempt, whatever
// their items; StreamOpens counts the streams they rode.
type ClientStats struct {
	Attempts         int64 `json:"attempts"`
	Retries          int64 `json:"retries"`
	BreakerFastFails int64 `json:"breaker_fast_fails"`
	Downs            int64 `json:"downs"`
	Ups              int64 `json:"ups"`
	ReadMessages     int64 `json:"read_messages"`
	WriteMessages    int64 `json:"write_messages"`
	StreamOpens      int64 `json:"stream_opens"`
}

// Stats returns the client's counters.
func (c *NodeClient) Stats() ClientStats {
	return ClientStats{
		Attempts:         c.stats.attempts.Load(),
		Retries:          c.stats.retries.Load(),
		BreakerFastFails: c.stats.breakerFastFails.Load(),
		Downs:            c.stats.downs.Load(),
		Ups:              c.stats.ups.Load(),
		ReadMessages:     c.stats.readMsgs.Load(),
		WriteMessages:    c.stats.writeMsgs.Load(),
		StreamOpens:      c.stats.streamOpens.Load(),
	}
}
