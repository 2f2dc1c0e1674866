package main

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/oiraid/oiraid/internal/store"
)

// span is one timed interval of the traced run. Spans of one request
// share Op; Parent is the ID of the span that caused this one (0 for a
// top-level op).
type span struct {
	ID     int64  `json:"id"`
	Op     int64  `json:"op"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// RPC classes the transport interposer tells apart.
const (
	rpcRead = iota
	rpcWrite
	rpcOther
	numRPC
)

// tracer owns the bench-side interposers: a store.Device wrapper, an
// http.RoundTripper and an http.Handler. They sit at seams that are
// already constructor arguments, so the program under test is unchanged.
// While off they only delegate; while on they count, time, and — for the
// first spanOps ops of each measured cell — record spans.
type tracer struct {
	on    atomic.Bool
	epoch time.Time

	// cur is the span ID of the top-level op in flight, 0 when the op is
	// not being recorded. The traced run has one client, so one current
	// op is enough to parent every interposer span.
	cur    atomic.Int64
	nextID atomic.Int64

	devNs       atomic.Int64
	rpcN, rpcNs [numRPC]atomic.Int64

	mu    sync.Mutex
	spans []span
}

// spanOps bounds the ops per cell whose spans are kept, so the trace file
// stays a few MB and recording does not dominate the cell's time.
const spanOps = 64

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) add(id, parent int64, name string, start, end time.Time) {
	op := parent
	if op == 0 {
		op = id
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Op: op, Parent: parent, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()})
	t.mu.Unlock()
}

// child records an interposer span under the current op, if one is being
// recorded.
func (t *tracer) child(name string, start, end time.Time) {
	if parent := t.cur.Load(); parent != 0 {
		t.add(t.nextID.Add(1), parent, name, start, end)
	}
}

// rpcTotals sums the transport interposer's counters over the RPC classes.
func (t *tracer) rpcTotals() (count, ns int64) {
	for i := range t.rpcN {
		count += t.rpcN[i].Load()
		ns += t.rpcNs[i].Load()
	}
	return count, ns
}

// writeFile dumps the spans as one JSON array.
func (t *tracer) writeFile(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(t.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedDevice is the store.Device interposer installed through
// Array.InstrumentDevices.
type tracedDevice struct {
	store.Device
	t *tracer
}

func (t *tracer) wrapDevice(_ int, dev store.Device) store.Device {
	return &tracedDevice{Device: dev, t: t}
}

// Inner lets fsck unwrap the interposer like the array's own wrappers.
func (d *tracedDevice) Inner() store.Device { return d.Device }

func (d *tracedDevice) ReadStrip(idx int64, p []byte) error {
	if !d.t.on.Load() {
		return d.Device.ReadStrip(idx, p)
	}
	t0 := time.Now()
	err := d.Device.ReadStrip(idx, p)
	t1 := time.Now()
	d.t.devNs.Add(t1.Sub(t0).Nanoseconds())
	d.t.child("dev.read", t0, t1)
	return err
}

func (d *tracedDevice) WriteStrip(idx int64, p []byte) error {
	if !d.t.on.Load() {
		return d.Device.WriteStrip(idx, p)
	}
	t0 := time.Now()
	err := d.Device.WriteStrip(idx, p)
	t1 := time.Now()
	d.t.devNs.Add(t1.Sub(t0).Nanoseconds())
	d.t.child("dev.write", t0, t1)
	return err
}

// tracedTransport is the http.RoundTripper interposer. An RPC ends when
// its response body has been read to EOF or closed, not when the headers
// arrive: a strip read's payload is the body.
type tracedTransport struct {
	inner http.RoundTripper
	t     *tracer
}

func (t *tracer) wrapTransport(inner http.RoundTripper) http.RoundTripper {
	return &tracedTransport{inner: inner, t: t}
}

// CloseIdleConnections forwards to the wrapped transport, which is how
// netdev's client and the bench release their sockets at close.
func (rt *tracedTransport) CloseIdleConnections() {
	if c, ok := rt.inner.(interface{ CloseIdleConnections() }); ok {
		c.CloseIdleConnections()
	}
}

func rpcClass(r *http.Request) (int, string) {
	if strings.Contains(r.URL.Path, "/strips/") {
		if r.Method == http.MethodGet {
			return rpcRead, "rpc.read"
		}
		return rpcWrite, "rpc.write"
	}
	return rpcOther, "rpc.other"
}

func (rt *tracedTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if !rt.t.on.Load() {
		return rt.inner.RoundTrip(r)
	}
	class, name := rpcClass(r)
	t0 := time.Now()
	resp, err := rt.inner.RoundTrip(r)
	if err != nil {
		rt.done(class, name, t0)
		return resp, err
	}
	resp.Body = &tracedBody{ReadCloser: resp.Body, finish: func() { rt.done(class, name, t0) }}
	return resp, nil
}

func (rt *tracedTransport) done(class int, name string, t0 time.Time) {
	t1 := time.Now()
	rt.t.rpcN[class].Add(1)
	rt.t.rpcNs[class].Add(t1.Sub(t0).Nanoseconds())
	rt.t.child(name, t0, t1)
}

type tracedBody struct {
	io.ReadCloser
	once   sync.Once
	finish func()
}

func (b *tracedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err != nil {
		b.once.Do(b.finish)
	}
	return n, err
}

func (b *tracedBody) Close() error {
	b.once.Do(b.finish)
	return b.ReadCloser.Close()
}

// wrapHandler is the http.Handler interposer around Server.Handler().
func (t *tracer) wrapHandler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			next.ServeHTTP(w, r)
			return
		}
		t0 := time.Now()
		next.ServeHTTP(w, r)
		t1 := time.Now()
		t.child("server.handler", t0, t1)
	})
}
