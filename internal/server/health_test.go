package server

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"github.com/oiraid/oiraid/internal/bibd"
	"github.com/oiraid/oiraid/internal/core"
	"github.com/oiraid/oiraid/internal/engine"
	"github.com/oiraid/oiraid/internal/layout"
	"github.com/oiraid/oiraid/internal/store"
)

// newFaultyServer builds a served engine whose disks are fault devices
// under an auto-healing policy, returning a retrying client and the
// per-disk injectors.
func newFaultyServer(t testing.TB) (*Client, []*store.FaultDevice) {
	t.Helper()
	d, err := bibd.ForArray(9)
	if err != nil {
		t.Fatal(err)
	}
	sch, err := layout.NewOIRAID(d)
	if err != nil {
		t.Fatal(err)
	}
	an, err := core.NewAnalyzer(sch)
	if err != nil {
		t.Fatal(err)
	}
	faults := make([]*store.FaultDevice, an.Disks())
	devs := make([]store.Device, an.Disks())
	for i := range devs {
		mem, err := store.NewMemDevice(2*int64(an.SlotsPerDisk()), testStrip)
		if err != nil {
			t.Fatal(err)
		}
		faults[i] = store.NewFaultDevice(mem, store.FaultConfig{Seed: int64(i)})
		devs[i] = faults[i]
	}
	arr, err := store.NewArray(an, devs)
	if err != nil {
		t.Fatal(err)
	}
	journal, err := store.OpenMetaJournal(store.NewMemBlob(), store.NewMemBlob())
	if err != nil {
		t.Fatal(err)
	}
	arr.SetJournal(journal)
	eng, err := engine.New(arr, engine.Options{
		Workers: 4,
		Retry:   &store.RetryPolicy{MaxAttempts: 3, BaseDelay: 20 * time.Microsecond},
		Health:  &engine.HealthPolicy{EvictAfter: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(eng, Options{RequestTimeout: 10 * time.Second})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		eng.Close()
	})
	return NewClientWithOptions(ts.URL, ClientOptions{
		MaxRetries: 4,
		BaseDelay:  time.Millisecond,
		MaxDelay:   10 * time.Millisecond,
	}), faults
}

// TestFailDiskIdempotentHTTP: POST /v1/disks/{id}/fail twice answers 204
// both times and leaves exactly one disk failed.
func TestFailDiskIdempotentHTTP(t *testing.T) {
	srv, c := newTestServer(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for i := 0; i < 2; i++ {
		resp, err := http.Post(ts.URL+"/v1/disks/2/fail", "", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNoContent {
			t.Fatalf("fail #%d = %d, want 204", i+1, resp.StatusCode)
		}
	}
	st, err := c.Status()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Failed) != 1 || st.Failed[0] != 2 {
		t.Fatalf("failed set after double fail: %+v", st.Failed)
	}
}

// TestHealthAndSparesHTTP: the health endpoint reports per-disk counters
// and the spare pool grows via POST /v1/spares.
func TestHealthAndSparesHTTP(t *testing.T) {
	_, c := newTestServer(t)
	p := make([]byte, testStrip)
	rand.New(rand.NewSource(5)).Read(p)
	for addr := int64(0); addr < 4; addr++ {
		if err := c.PutStrip(addr, p); err != nil {
			t.Fatal(err)
		}
	}
	h, err := c.Health()
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Disks) == 0 {
		t.Fatal("health report has no disks")
	}
	var ops int64
	for _, d := range h.Disks {
		if d.State != "healthy" {
			t.Fatalf("disk %d state %q, want healthy", d.Disk, d.State)
		}
		ops += d.Ops
	}
	if ops == 0 {
		t.Fatal("health report shows zero device ops after writes")
	}

	n, err := c.AddSpares(2)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("spare pool = %d, want 2", n)
	}
	if h, err = c.Health(); err != nil || h.Spares != 2 {
		t.Fatalf("health spares = %d (%v), want 2", h.Spares, err)
	}
}

// TestTransientMapsTo503: a transient device error surfacing through the
// engine answers 503 with a Retry-After header, and the client
// reconstitutes ErrTransient from the X-Oiraid-Err code.
func TestTransientMapsTo503(t *testing.T) {
	rec := httptest.NewRecorder()
	new(Server).fail(rec, fmt.Errorf("wrapped: %w", store.ErrTransient))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	_, retryable, err := catalogue.Decode(rec.Result())
	if !store.IsTransient(err) || !retryable {
		t.Fatalf("client did not reconstitute ErrTransient: %v", err)
	}
}

// TestClientRetries503: the client retries 503+Retry-After and transport
// resets, succeeding once the backend recovers; 500 and 4xx are not
// retried.
func TestClientRetries503(t *testing.T) {
	var hits atomic.Int64
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) <= 2 {
			new(Server).fail(w, store.ErrTransient)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	}))
	defer backend.Close()
	c := NewClientWithOptions(backend.URL, ClientOptions{
		MaxRetries: 3,
		BaseDelay:  time.Millisecond,
		MaxDelay:   5 * time.Millisecond,
	})
	if err := c.FailDisk(0); err != nil {
		t.Fatalf("client did not ride out two 503s: %v", err)
	}
	if got := hits.Load(); got != 3 {
		t.Fatalf("backend saw %d attempts, want 3", got)
	}

	// 500 is terminal: one attempt only.
	hits.Store(0)
	fatal := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		new(Server).fail(w, store.ErrTooManyFailures)
	}))
	defer fatal.Close()
	c2 := NewClientWithOptions(fatal.URL, ClientOptions{MaxRetries: 3, BaseDelay: time.Millisecond})
	if err := c2.FailDisk(0); !errors.Is(err, store.ErrTooManyFailures) {
		t.Fatalf("want ErrTooManyFailures, got %v", err)
	}
	if got := hits.Load(); got != 1 {
		t.Fatalf("500 retried: %d attempts", got)
	}
}

// TestClientRetriesTransport: a connection-refused transport error is
// retried; with the server down for good the last error surfaces.
func TestClientRetriesTransport(t *testing.T) {
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNoContent)
	}))
	url := backend.URL
	backend.Close() // nothing listens here any more
	c := NewClientWithOptions(url, ClientOptions{MaxRetries: 2, BaseDelay: time.Millisecond})
	start := time.Now()
	err := c.FailDisk(0)
	if err == nil {
		t.Fatal("call to closed server succeeded")
	}
	if time.Since(start) < 2*time.Millisecond {
		t.Fatal("no backoff between transport retries")
	}
}

// TestClientContextCancel: a cancelled context aborts the retry loop and
// multi-strip helpers promptly.
func TestClientContextCancel(t *testing.T) {
	block := make(chan struct{})
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-block
	}))
	defer func() { close(block); backend.Close() }()
	c := NewClientWithOptions(backend.URL, ClientOptions{MaxRetries: 5, BaseDelay: time.Millisecond})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.GetStripCtx(ctx, 0)
	if err == nil {
		t.Fatal("cancelled request succeeded")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("cancellation did not interrupt the retry loop")
	}
}

// TestSelfHealOverHTTP: with spares registered and a device turning
// permanent under load, the health endpoint eventually reports the
// self-heal — evicted, rebuilt, spare consumed — with no operator call to
// /v1/rebuild.
func TestSelfHealOverHTTP(t *testing.T) {
	c, faults := newFaultyServer(t)
	if _, err := c.AddSpares(1); err != nil {
		t.Fatal(err)
	}
	p := make([]byte, testStrip)
	rand.New(rand.NewSource(6)).Read(p)
	for addr := int64(0); addr < 8; addr++ {
		if err := c.PutStrip(addr, p); err != nil {
			t.Fatal(err)
		}
	}
	// Fail a disk that the read workload actually touches (addrs 0..7 map
	// onto a subset of disks; disk 3 serves several of them), so the
	// monitor observes the failure through live traffic.
	faults[3].FailNow()
	deadline := time.Now().Add(15 * time.Second)
	for healed := false; !healed; {
		// Keep traffic flowing so the monitor sees the failure; the client
		// rides the 503s out.
		for addr := int64(0); addr < 8; addr++ {
			c.GetStrip(addr) //nolint:errcheck // errors expected mid-heal
		}
		h, err := c.Health()
		if err == nil && h.Evictions >= 1 && h.SparesUsed >= 1 && h.Spares == 0 {
			if st, serr := c.Status(); serr == nil && len(st.Failed) == 0 && !st.Rebuilding {
				healed = true
				continue
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("self-heal not observed over HTTP: %+v (%v)", h, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	got, err := c.GetStrip(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != testStrip {
		t.Fatalf("strip length %d after heal", len(got))
	}
}
