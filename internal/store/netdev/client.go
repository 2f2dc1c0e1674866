package netdev

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
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
	// Timeout bounds each attempt (a stream's dial, or a message and its
	// answer), default 2s.
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
	// ExpectID, when set, makes the client verify the identity the node
	// answers a ping message with, and fail permanently on mismatch.
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
	// no transport goroutine behind. done is the context of every op no
	// caller bounds — writes, device and blob ops, pings, inventory reads
	// and leases, the prober's pings — and ends at Close, which so cancels
	// their retries and dials in flight.
	cbWg    sync.WaitGroup
	probeWg sync.WaitGroup
	done    context.Context
	stop    context.CancelFunc

	// fence, when set, stamps every mutating message with the
	// coordinator's fencing epoch (see SetFence).
	fence atomic.Pointer[FenceToken]

	// streams carry every message of the batch codec (stream.go).
	streams streamPool

	stats struct {
		attempts, retries, breakerFastFails atomic.Int64
		downs, ups, streamOpens             atomic.Int64
		msgs                                [kindEnd / 2]atomic.Int64 // sent, by request kind / 2
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
	done, stop := context.WithCancel(context.Background())
	return &NodeClient{
		base:    strings.TrimRight(base, "/"),
		hc:      &http.Client{Transport: opts.Transport},
		opts:    opts,
		pol:     retry.Policy{Attempts: opts.MaxAttempts, BaseDelay: opts.BaseDelay, MaxDelay: opts.MaxDelay},
		retry:   r,
		breaker: r.NewBreaker(opts.BreakerThreshold, opts.BreakerCooldown),
		done:    done,
		stop:    stop,
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

// Close ends every stream, stops the background prober, waits for
// in-flight OnDown/OnUp callbacks, and closes idle connections. Operations
// after Close return store.ErrClosed.
func (c *NodeClient) Close() error {
	if c.closed.Swap(true) {
		return nil
	}
	c.endStreams()
	c.stop()
	c.probeWg.Wait()
	c.cbWg.Wait()
	if t, ok := c.hc.Transport.(interface{ CloseIdleConnections() }); ok {
		t.CloseIdleConnections()
	}
	return nil
}

// run runs attempt — one stream message — through the shared retry loop and
// breaker under ctx, then folds the outcome into the
// reachability state: an answer from the node — even a rejection — proves
// the wire fine and passes through unchanged (a device's own error, a
// fenced write, a caller bug); a wire fault that outlived the policy, or a
// breaker refusal, means the node is down. An attempt reports whether its
// failure is retryable, and a retryable failure is a wire fault.
//
// Once ctx is done no attempt starts, and the op fails with an error that
// wraps ctx's. The attempt it cut counts against the breaker, so a node
// every caller gives up on is still marked down: by the op whose cut opens
// the breaker.
func (c *NodeClient) run(ctx context.Context, attempt func(context.Context) (retryAfter time.Duration, retryable bool, err error)) error {
	if c.closed.Load() {
		return store.ErrClosed
	}
	if c.lost.Load() {
		return ErrNodeLost
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("netdev: %s: %w", c.base, err)
	}
	var wireFault bool
	attempts, err := c.retry.Do(ctx, c.pol, c.breaker, func(ctx context.Context) (retryAfter time.Duration, _ bool, err error) {
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
	case err != nil && ctx.Err() != nil:
		cut := fmt.Errorf("netdev: %s: %w", c.base, ctx.Err())
		if c.breaker.Open() {
			return fmt.Errorf("%w: %w", c.classifyDown(err), cut)
		}
		return cut
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
		case <-c.done.Done():
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

// checkIdentity declares the node lost when it is not the one the
// manifest expects at this address.
func (c *NodeClient) checkIdentity(who string) error {
	if c.opts.ExpectID != "" && who != c.opts.ExpectID {
		c.markLost()
		return fmt.Errorf("%w: want %q, got %q", ErrWrongNode, c.opts.ExpectID, who)
	}
	return nil
}

// pingOnce performs a single identity-checked ping outside the retry loop
// and the breaker (the prober is its own loop): one attempt, on a stream
// taken or dialled, under the client's context, which Close cuts.
func (c *NodeClient) pingOnce() error {
	var who string
	err := c.message(c.done, true, kindPing, []batchItem{{}}, func(_ int, it *batchItem, verdict error) error {
		who = string(it.Payload)
		return verdict
	})
	if err != nil {
		return err
	}
	return c.checkIdentity(who)
}

// Ping verifies the node answers (and, with ExpectID set, that it is
// the right node), through the full retry/breaker machinery.
func (c *NodeClient) Ping() error {
	var who string
	if err := c.do(kindPing, batchItem{}, func(it *batchItem) error {
		who = string(it.Payload)
		return nil
	}); err != nil {
		return err
	}
	return c.checkIdentity(who)
}

// Stat fetches the node's inventory.
func (c *NodeClient) Stat() (NodeStat, error) {
	var st NodeStat
	err := c.do(kindStat, batchItem{}, func(it *batchItem) error {
		st = NodeStat{}
		if err := json.Unmarshal(it.Payload, &st); err != nil {
			return fmt.Errorf("%w: inventory: %v", ErrBadFrame, err)
		}
		return nil
	})
	return st, err
}

// ClientStats is a snapshot of the client's wire counters. The messages are
// counted one per attempt, whatever their items: ReadMessages and
// WriteMessages the strip messages, DeviceMessages the device creates,
// deletes and sums, BlobMessages every blob op, of which BlobWrites are
// writes and BlobSyncs syncs, and NodeMessages the pings, inventory reads
// and leases. Together they are every message the client sends.
// StreamOpens counts the streams they rode.
type ClientStats struct {
	Attempts         int64 `json:"attempts"`
	Retries          int64 `json:"retries"`
	BreakerFastFails int64 `json:"breaker_fast_fails"`
	Downs            int64 `json:"downs"`
	Ups              int64 `json:"ups"`
	ReadMessages     int64 `json:"read_messages"`
	WriteMessages    int64 `json:"write_messages"`
	DeviceMessages   int64 `json:"device_messages"`
	BlobMessages     int64 `json:"blob_messages"`
	BlobWrites       int64 `json:"blob_writes"`
	BlobSyncs        int64 `json:"blob_syncs"`
	NodeMessages     int64 `json:"node_messages"`
	StreamOpens      int64 `json:"stream_opens"`
}

// Stats returns the client's counters.
func (c *NodeClient) Stats() ClientStats {
	sent := func(from, to byte) (n int64) {
		for k := from; k <= to; k += 2 {
			n += c.stats.msgs[k/2].Load()
		}
		return n
	}
	return ClientStats{
		Attempts:         c.stats.attempts.Load(),
		Retries:          c.stats.retries.Load(),
		BreakerFastFails: c.stats.breakerFastFails.Load(),
		Downs:            c.stats.downs.Load(),
		Ups:              c.stats.ups.Load(),
		ReadMessages:     sent(kindReadReq, kindReadReq),
		WriteMessages:    sent(kindWriteReq, kindWriteReq),
		DeviceMessages:   sent(kindDevCreate, kindDevSums),
		BlobMessages:     sent(kindBlobCreate, kindBlobStat),
		BlobWrites:       sent(kindBlobWrite, kindBlobWrite),
		BlobSyncs:        sent(kindBlobSync, kindBlobSync),
		NodeMessages:     sent(kindPing, kindLease),
		StreamOpens:      c.stats.streamOpens.Load(),
	}
}
