package server

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
	"time"

	"github.com/oiraid/oiraid/internal/engine"
	"github.com/oiraid/oiraid/internal/retry"
	"github.com/oiraid/oiraid/internal/store"
)

// ClientOptions tunes the client's transport behaviour.
type ClientOptions struct {
	// Timeout caps each HTTP attempt (default 60s).
	Timeout time.Duration
	// MaxRetries bounds re-attempts after a retryable failure — a
	// transport error or a 429/502/503/504 response (default 3; 0
	// disables retries).
	MaxRetries int
	// BaseDelay seeds the exponential backoff between attempts (default
	// 100ms); a Retry-After response header overrides the computed delay.
	BaseDelay time.Duration
	// MaxDelay caps the backoff (default 2s).
	MaxDelay time.Duration
	// MaxRetryTime caps the total time a single call may spend across
	// retries (default 30s): once the budget would be exceeded by the
	// next backoff sleep, the call returns the last error instead.
	MaxRetryTime time.Duration
	// BreakerThreshold, when positive, arms a per-endpoint circuit
	// breaker: that many consecutive failures (transport errors, 429, or
	// 5xx) open the circuit and further calls to the endpoint fail fast
	// with ErrCircuitOpen until a half-open probe succeeds after
	// BreakerCooldown. 0 disables the breaker.
	BreakerThreshold int
	// BreakerCooldown is how long an open circuit waits before letting
	// one probe request through (default 1s).
	BreakerCooldown time.Duration
	// Seed fixes the backoff jitter stream for reproducible tests.
	Seed int64
	// HTTPClient overrides the underlying transport (tests).
	HTTPClient *http.Client
}

func (o ClientOptions) withDefaults() ClientOptions {
	if o.Timeout <= 0 {
		o.Timeout = 60 * time.Second
	}
	if o.BaseDelay <= 0 {
		o.BaseDelay = 100 * time.Millisecond
	}
	if o.MaxDelay <= 0 {
		o.MaxDelay = 2 * time.Second
	}
	if o.MaxRetryTime <= 0 {
		o.MaxRetryTime = 30 * time.Second
	}
	if o.BreakerCooldown <= 0 {
		o.BreakerCooldown = time.Second
	}
	return o
}

// ErrCircuitOpen reports a call refused locally because the endpoint's
// circuit breaker is open: the one sentinel every breaker in the tree returns.
var ErrCircuitOpen = retry.ErrCircuitOpen

// endpointKey normalises method+path into a breaker key: the query is
// dropped and purely numeric path segments (strip addresses, disk ids)
// collapse to "*", so all strips share one circuit per verb.
func endpointKey(method, path string) string {
	if i := strings.IndexByte(path, '?'); i >= 0 {
		path = path[:i]
	}
	segs := strings.Split(path, "/")
	for i, s := range segs {
		if s != "" && strings.Trim(s, "0123456789") == "" {
			segs[i] = "*"
		}
	}
	return method + " " + strings.Join(segs, "/")
}

// Client is the Go client for an oiraidd server. It speaks the strip API
// and layers byte-granularity ReadAt/WriteAt on top with client-side
// read-modify-write at unaligned range edges. Transient server conditions
// (503 with Retry-After, 429 overload sheds, bad gateways, transport
// errors) are retried with exponential backoff; every method has a
// context-aware variant.
type Client struct {
	base string
	hc   *http.Client
	opts ClientOptions

	pol   retry.Policy
	retry *retry.Retrier

	brMu     sync.Mutex
	breakers map[string]*retry.Breaker

	stripBytes int
	strips     int64
}

// NewClient targets an oiraidd base URL, e.g. "http://127.0.0.1:7979",
// with default options. The first data call fetches the array geometry
// from /v1/status.
func NewClient(base string) *Client {
	return NewClientWithOptions(base, ClientOptions{MaxRetries: 3})
}

// NewClientWithOptions targets an oiraidd base URL with explicit options.
func NewClientWithOptions(base string, opts ClientOptions) *Client {
	opts = opts.withDefaults()
	hc := opts.HTTPClient
	if hc == nil {
		hc = &http.Client{Timeout: opts.Timeout}
	}
	return &Client{
		base:     strings.TrimRight(base, "/"),
		hc:       hc,
		opts:     opts,
		pol:      retry.Policy{Attempts: opts.MaxRetries + 1, BaseDelay: opts.BaseDelay, MaxDelay: opts.MaxDelay, Budget: opts.MaxRetryTime},
		retry:    retry.New(opts.Seed),
		breakers: make(map[string]*retry.Breaker),
	}
}

// breakerFor returns the endpoint's breaker, creating it on first use;
// nil when the breaker is disabled.
func (c *Client) breakerFor(method, path string) *retry.Breaker {
	if c.opts.BreakerThreshold <= 0 {
		return nil
	}
	key := endpointKey(method, path)
	c.brMu.Lock()
	defer c.brMu.Unlock()
	b := c.breakers[key]
	if b == nil {
		b = c.retry.NewBreaker(c.opts.BreakerThreshold, c.opts.BreakerCooldown)
		c.breakers[key] = b
	}
	return b
}

// call is one API request: what to send and how to consume the answer.
type call struct {
	method, path string
	hdr          map[string]string
	// body is a replayable request body, and so is at: size bytes from
	// offset start, read by each attempt through a section reader of its
	// own. stream, with size, is a one-shot body that limits the call to a
	// single attempt.
	body   []byte
	at     io.ReaderAt
	start  int64
	stream io.Reader
	size   int64
	// sink consumes a response below 400 and reports whether a failure
	// while doing so may be retried. Nil discards the body.
	sink func(*http.Response) (retryable bool, err error)
}

// roundTrip performs one attempt of rq and classifies the outcome for
// the retry loop: a transport failure is retryable unless ctx is done, an
// error response is whatever the catalogue says its code is.
func (c *Client) roundTrip(ctx context.Context, rq *call) (retryAfter time.Duration, retryable bool, err error) {
	body, size := rq.stream, rq.size
	switch {
	case rq.body != nil:
		body, size = bytes.NewReader(rq.body), int64(len(rq.body))
	case rq.at != nil:
		body = io.NewSectionReader(rq.at, rq.start, size)
	}
	req, err := http.NewRequestWithContext(ctx, rq.method, c.base+rq.path, body)
	if err != nil {
		return 0, false, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/octet-stream")
		req.ContentLength = size
	}
	if rq.at != nil {
		// What net/http works out for itself from a *bytes.Reader.
		req.GetBody = func() (io.ReadCloser, error) { return io.NopCloser(io.NewSectionReader(rq.at, rq.start, size)), nil }
	}
	for k, v := range rq.hdr {
		req.Header.Set(k, v)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			return 0, false, ctx.Err()
		}
		return 0, true, err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		return catalogue.Decode(resp)
	}
	if rq.sink != nil {
		retryable, err = rq.sink(resp)
	}
	return 0, retryable, err
}

// run sends rq through the shared retry loop, gated by the endpoint's
// breaker. A replayable call retries transport failures and retryable
// responses under the client's policy (attempts, backoff honouring
// Retry-After, MaxRetryTime); a streamed body gets one attempt, and a
// failure the loop would have retried comes back wrapped in
// ErrNonRetryable — only the caller can rewind the stream.
func (c *Client) run(ctx context.Context, rq *call) error {
	pol := c.pol
	if rq.stream != nil {
		pol.Attempts = 1
	}
	var again bool
	_, err := c.retry.Do(ctx, pol, c.breakerFor(rq.method, rq.path), func(ctx context.Context) (retryAfter time.Duration, _ bool, err error) {
		retryAfter, again, err = c.roundTrip(ctx, rq)
		return retryAfter, again, err
	})
	switch {
	case errors.Is(err, ErrCircuitOpen):
		return fmt.Errorf("%w: %s %s", err, rq.method, rq.path)
	case err != nil && again && rq.stream != nil:
		return fmt.Errorf("%w: %w", ErrNonRetryable, err)
	}
	return err
}

// buffer returns a sink reading the whole response body into out; a torn
// read is retryable.
func buffer(out *[]byte) func(*http.Response) (bool, error) {
	return func(resp *http.Response) (bool, error) {
		b, err := io.ReadAll(resp.Body)
		*out = b
		return true, err
	}
}

// doCtx performs one buffered API call: the body is replayed from the
// byte slice on each attempt and the response body returned whole.
func (c *Client) doCtx(ctx context.Context, method, path string, body []byte) ([]byte, error) {
	var out []byte
	err := c.run(ctx, &call{method: method, path: path, body: body, sink: buffer(&out)})
	return out, err
}

// callJSON is doCtx with extra request headers, decoding the JSON response
// into v; what names the payload in a decode error.
func (c *Client) callJSON(ctx context.Context, method, path string, body []byte, hdr map[string]string, v any, what string) error {
	var out []byte
	if err := c.run(ctx, &call{method: method, path: path, hdr: hdr, body: body, sink: buffer(&out)}); err != nil {
		return err
	}
	if err := json.Unmarshal(out, v); err != nil {
		return fmt.Errorf("server: decode %s: %w", what, err)
	}
	return nil
}

// Status fetches the operational snapshot.
func (c *Client) Status() (engine.Status, error) {
	return c.StatusCtx(context.Background())
}

// StatusCtx is Status bounded by ctx.
func (c *Client) StatusCtx(ctx context.Context) (engine.Status, error) {
	var st engine.Status
	err := c.callJSON(ctx, http.MethodGet, "/v1/status", nil, nil, &st, "status")
	return st, err
}

// Health fetches the per-disk health report.
func (c *Client) Health() (engine.HealthReport, error) {
	return c.HealthCtx(context.Background())
}

// HealthCtx is Health bounded by ctx.
func (c *Client) HealthCtx(ctx context.Context) (engine.HealthReport, error) {
	var h engine.HealthReport
	err := c.callJSON(ctx, http.MethodGet, "/v1/health", nil, nil, &h, "health")
	return h, err
}

// AddSpares registers count hot spares with the server's pool, returning
// the pool size afterwards.
func (c *Client) AddSpares(count int) (int, error) {
	return c.AddSparesCtx(context.Background(), count)
}

// AddSparesCtx is AddSpares bounded by ctx.
func (c *Client) AddSparesCtx(ctx context.Context, count int) (int, error) {
	var resp map[string]int
	err := c.callJSON(ctx, http.MethodPost, fmt.Sprintf("/v1/spares?count=%d", count), nil, nil, &resp, "spares")
	return resp["spares"], err
}

// Metrics fetches the text-format counter dump.
func (c *Client) Metrics() (string, error) {
	return c.MetricsCtx(context.Background())
}

// MetricsCtx is Metrics bounded by ctx.
func (c *Client) MetricsCtx(ctx context.Context) (string, error) {
	out, err := c.doCtx(ctx, http.MethodGet, "/v1/metrics", nil)
	return string(out), err
}

// PutStrip stores one data strip; len(p) must be the array's strip size.
func (c *Client) PutStrip(addr int64, p []byte) error {
	return c.PutStripCtx(context.Background(), addr, p)
}

// PutStripCtx is PutStrip bounded by ctx.
func (c *Client) PutStripCtx(ctx context.Context, addr int64, p []byte) error {
	_, err := c.doCtx(ctx, http.MethodPut, fmt.Sprintf("/v1/strips/%d", addr), p)
	return err
}

// GetStrip fetches one data strip.
func (c *Client) GetStrip(addr int64) ([]byte, error) {
	return c.GetStripCtx(context.Background(), addr)
}

// GetStripCtx is GetStrip bounded by ctx.
func (c *Client) GetStripCtx(ctx context.Context, addr int64) ([]byte, error) {
	return c.doCtx(ctx, http.MethodGet, fmt.Sprintf("/v1/strips/%d", addr), nil)
}

// FailDisk injects a disk failure. Failing an already-failed disk is an
// idempotent no-op on the server.
func (c *Client) FailDisk(id int) error {
	return c.FailDiskCtx(context.Background(), id)
}

// FailDiskCtx is FailDisk bounded by ctx.
func (c *Client) FailDiskCtx(ctx context.Context, id int) error {
	_, err := c.doCtx(ctx, http.MethodPost, fmt.Sprintf("/v1/disks/%d/fail", id), nil)
	return err
}

// Quarantine marks disk id quarantined on the server: reads reconstruct
// around it while writes continue to land on it.
func (c *Client) Quarantine(id int) error {
	return c.QuarantineCtx(context.Background(), id)
}

// QuarantineCtx is Quarantine bounded by ctx.
func (c *Client) QuarantineCtx(ctx context.Context, id int) error {
	_, err := c.doCtx(ctx, http.MethodPost, fmt.Sprintf("/v1/disks/%d/quarantine", id), nil)
	return err
}

// Release lifts a quarantine on disk id. Releasing a disk that is not
// quarantined is a no-op.
func (c *Client) Release(id int) error {
	return c.ReleaseCtx(context.Background(), id)
}

// ReleaseCtx is Release bounded by ctx.
func (c *Client) ReleaseCtx(ctx context.Context, id int) error {
	_, err := c.doCtx(ctx, http.MethodPost, fmt.Sprintf("/v1/disks/%d/release", id), nil)
	return err
}

// Rebuild starts a rebuild. With wait true the call blocks until the
// rebuild completes (or fails); otherwise it returns once started.
func (c *Client) Rebuild(wait bool) error {
	return c.RebuildCtx(context.Background(), wait)
}

// RebuildCtx is Rebuild bounded by ctx.
func (c *Client) RebuildCtx(ctx context.Context, wait bool) error {
	path := "/v1/rebuild"
	if wait {
		path += "?wait=1"
	}
	_, err := c.doCtx(ctx, http.MethodPost, path, nil)
	return err
}

// Scrub drives an incremental scrub pass to completion on the server and
// returns the number of inconsistent stripes found and repaired.
func (c *Client) Scrub() (int, error) {
	return c.ScrubCtx(context.Background())
}

// ScrubCtx is Scrub bounded by ctx.
func (c *Client) ScrubCtx(ctx context.Context) (int, error) {
	var resp map[string]int
	err := c.callJSON(ctx, http.MethodPost, "/v1/scrub", nil, nil, &resp, "scrub")
	return resp["bad_stripes"], err
}

// Fsck runs a full two-layer verification pass on the server, a cycle at a
// time beside foreground I/O, repairing damage in place when repair is set,
// and returns the report.
func (c *Client) Fsck(repair bool) (*store.FsckReport, error) {
	return c.FsckCtx(context.Background(), repair)
}

// FsckCtx is Fsck bounded by ctx.
func (c *Client) FsckCtx(ctx context.Context, repair bool) (*store.FsckReport, error) {
	path := "/v1/fsck"
	if repair {
		path += "?repair=1"
	}
	rep := new(store.FsckReport)
	if err := c.callJSON(ctx, http.MethodPost, path, nil, nil, rep, "fsck"); err != nil {
		return nil, err
	}
	return rep, nil
}

// QoS fetches the server's live QoS snapshot.
func (c *Client) QoS() (engine.QoSState, error) {
	return c.QoSCtx(context.Background())
}

// QoSCtx is QoS bounded by ctx.
func (c *Client) QoSCtx(ctx context.Context) (engine.QoSState, error) {
	var st engine.QoSState
	err := c.callJSON(ctx, http.MethodGet, "/v1/qos", nil, nil, &st, "qos")
	return st, err
}

// SetQoS applies a partial update of the server's QoS knobs and returns
// the resulting state.
func (c *Client) SetQoS(u engine.QoSUpdate) (engine.QoSState, error) {
	return c.SetQoSCtx(context.Background(), u)
}

// SetQoSCtx is SetQoS bounded by ctx.
func (c *Client) SetQoSCtx(ctx context.Context, u engine.QoSUpdate) (engine.QoSState, error) {
	var st engine.QoSState
	body, err := json.Marshal(u)
	if err != nil {
		return st, err
	}
	err = c.callJSON(ctx, http.MethodPost, "/v1/qos", body, nil, &st, "qos")
	return st, err
}

// geometry caches strip size and count from /v1/status.
func (c *Client) geometry(ctx context.Context) (int, int64, error) {
	if c.stripBytes == 0 {
		st, err := c.StatusCtx(ctx)
		if err != nil {
			return 0, 0, err
		}
		c.stripBytes, c.strips = st.StripBytes, st.Strips
	}
	return c.stripBytes, c.strips, nil
}

// WriteAt writes p at byte offset off in the data space, doing client-side
// read-modify-write for unaligned leading/trailing partial strips.
func (c *Client) WriteAt(p []byte, off int64) (int, error) {
	return c.WriteAtCtx(context.Background(), p, off)
}

// WriteAtCtx is WriteAt bounded by ctx; a cancelled context stops between
// strips with the bytes written so far.
func (c *Client) WriteAtCtx(ctx context.Context, p []byte, off int64) (int, error) {
	sb, strips, err := c.geometry(ctx)
	if err != nil {
		return 0, err
	}
	if off < 0 {
		return 0, fmt.Errorf("%w: %d", store.ErrNegativeOffset, off)
	}
	total := 0
	for total < len(p) {
		if err := ctx.Err(); err != nil {
			return total, err
		}
		pos := off + int64(total)
		addr := pos / int64(sb)
		if addr >= strips {
			return total, io.ErrShortWrite
		}
		within := int(pos % int64(sb))
		n := sb - within
		if n > len(p)-total {
			n = len(p) - total
		}
		strip := p[total : total+n]
		if n != sb {
			old, err := c.GetStripCtx(ctx, addr)
			if err != nil {
				return total, err
			}
			copy(old[within:], strip)
			strip = old
		}
		if err := c.PutStripCtx(ctx, addr, strip); err != nil {
			return total, err
		}
		total += n
	}
	return total, nil
}

// ReadAt reads len(p) bytes at byte offset off in the data space.
func (c *Client) ReadAt(p []byte, off int64) (int, error) {
	return c.ReadAtCtx(context.Background(), p, off)
}

// ReadAtCtx is ReadAt bounded by ctx; a cancelled context stops between
// strips with the bytes read so far.
func (c *Client) ReadAtCtx(ctx context.Context, p []byte, off int64) (int, error) {
	sb, strips, err := c.geometry(ctx)
	if err != nil {
		return 0, err
	}
	if off < 0 {
		return 0, fmt.Errorf("%w: %d", store.ErrNegativeOffset, off)
	}
	total := 0
	for total < len(p) {
		if err := ctx.Err(); err != nil {
			return total, err
		}
		pos := off + int64(total)
		addr := pos / int64(sb)
		if addr >= strips {
			return total, io.EOF
		}
		within := int(pos % int64(sb))
		n := sb - within
		if n > len(p)-total {
			n = len(p) - total
		}
		strip, err := c.GetStripCtx(ctx, addr)
		if err != nil {
			return total, err
		}
		copy(p[total:total+n], strip[within:within+n])
		total += n
	}
	return total, nil
}
