package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/oiraid/oiraid/internal/bibd"
	"github.com/oiraid/oiraid/internal/core"
	"github.com/oiraid/oiraid/internal/engine"
	"github.com/oiraid/oiraid/internal/layout"
	"github.com/oiraid/oiraid/internal/store"
)

// newQoSServer builds a server whose engine has the given QoS config and
// whose disks all pay opDelay of injected latency per device operation.
func newQoSServer(t testing.TB, qos *engine.QoSConfig, sopts Options, opDelay time.Duration) (*httptest.Server, *Client) {
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
	strips := 2 * int64(an.SlotsPerDisk())
	devs := make([]store.Device, an.Disks())
	for i := range devs {
		mem, err := store.NewMemDevice(strips, testStrip)
		if err != nil {
			t.Fatal(err)
		}
		if opDelay > 0 {
			f := store.NewFaultDevice(mem, store.FaultConfig{
				Seed: int64(i), SlowRate: 1, SlowBy: opDelay,
			})
			devs[i] = f
		} else {
			devs[i] = mem
		}
	}
	arr, err := store.NewArray(an, devs)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engine.New(arr, engine.Options{Workers: 4, QoS: qos})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(eng, sopts)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		eng.Close()
	})
	return ts, NewClient(ts.URL)
}

// TestServerOpDeadline504: an op that cannot finish inside -op-timeout
// answers 504, which the client reconstitutes as context.DeadlineExceeded.
func TestServerOpDeadline504(t *testing.T) {
	// Every strip write touches 4 strips × (read+write) on 20µs-slow
	// devices; a 1ns op budget is always exceeded at the first checkpoint.
	ts, _ := newQoSServer(t, nil, Options{OpTimeout: time.Nanosecond}, 20*time.Microsecond)

	resp, err := httpPut(ts.URL+"/v1/strips/0", make([]byte, testStrip))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504", resp.StatusCode)
	}

	c := NewClientWithOptions(ts.URL, ClientOptions{MaxRetries: 0})
	err = c.PutStrip(0, make([]byte, testStrip))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("client error = %v, want context.DeadlineExceeded", err)
	}
}

// TestServerRequestDeadline504: an op still waiting when the request's
// deadline expires — here queued for admission behind a slow write — answers
// the catalogue's 504 with the deadline code, not a bare status of the
// handler stack's own.
func TestServerRequestDeadline504(t *testing.T) {
	ts, _ := newQoSServer(t, &engine.QoSConfig{AdmitDepth: 1, AdmitWait: 10 * time.Second},
		Options{RequestTimeout: 50 * time.Millisecond}, 30*time.Millisecond)
	slow := make(chan error, 1)
	go func() {
		resp, err := httpPut(ts.URL+"/v1/strips/0", make([]byte, testStrip))
		if err == nil {
			resp.Body.Close()
		}
		slow <- err
	}()
	time.Sleep(10 * time.Millisecond) // the slow write holds the one admission slot
	resp, err := httpPut(ts.URL+"/v1/strips/1", make([]byte, testStrip))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout || resp.Header.Get("X-Oiraid-Err") != "deadline" {
		t.Errorf("queued past the request deadline: status %d, code %q; want 504, \"deadline\"", resp.StatusCode, resp.Header.Get("X-Oiraid-Err"))
	}
	if err := <-slow; err != nil {
		t.Fatal(err)
	}
}

// httpPut issues a raw PUT with no retry layer, exposing the bare status.
func httpPut(url string, body []byte) (*http.Response, error) {
	req, err := http.NewRequest(http.MethodPut, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	return http.DefaultClient.Do(req)
}

// TestServerOverload429: with a single admission slot over slow disks, a
// burst of concurrent writes sheds — the shed responses carry 429 plus
// Retry-After — while a retrying client eventually lands every op.
func TestServerOverload429(t *testing.T) {
	ts, c := newQoSServer(t, &engine.QoSConfig{
		AdmitDepth: 1,
		AdmitWait:  2 * time.Millisecond,
	}, Options{}, 3*time.Millisecond)

	const burst = 8
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		overload int
		ok       int
	)
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(addr int) {
			defer wg.Done()
			resp, err := httpPut(fmt.Sprintf("%s/v1/strips/%d", ts.URL, addr), make([]byte, testStrip))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			mu.Lock()
			defer mu.Unlock()
			switch resp.StatusCode {
			case http.StatusNoContent:
				ok++
			case http.StatusTooManyRequests:
				overload++
				if resp.Header.Get("Retry-After") == "" {
					t.Error("429 without Retry-After header")
				}
			default:
				t.Errorf("unexpected status %d", resp.StatusCode)
			}
		}(i)
	}
	wg.Wait()
	if ok == 0 {
		t.Fatal("no write of the burst was admitted")
	}
	if overload == 0 {
		t.Fatal("no write of the burst was shed with 429")
	}

	// The retrying client treats 429 like 503: backed-off re-attempts
	// absorb the shedding, so a serial pass of the same ops all succeed
	// and the raw client sees ErrOverloaded semantics via errors.Is.
	for i := 0; i < burst; i++ {
		if err := c.PutStrip(int64(i), make([]byte, testStrip)); err != nil {
			t.Fatalf("retrying client write %d: %v", i, err)
		}
	}

	st, err := c.QoS()
	if err != nil {
		t.Fatal(err)
	}
	if st.Shed == 0 {
		t.Fatalf("qos snapshot records no sheds: %+v", st)
	}
	m, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(m, "oiraid_engine_admit_shed_total") {
		t.Fatalf("metrics missing admission counters:\n%s", m)
	}
}

// TestServerOverloadErrIs: a no-retry client surfaces a shed op as
// store.ErrOverloaded, the same sentinel local callers see.
func TestServerOverloadErrIs(t *testing.T) {
	ts, _ := newQoSServer(t, &engine.QoSConfig{
		AdmitDepth: 1,
		AdmitWait:  time.Millisecond,
	}, Options{}, 5*time.Millisecond)
	c := NewClientWithOptions(ts.URL, ClientOptions{MaxRetries: 0})

	var wg sync.WaitGroup
	sawOverload := false
	var mu sync.Mutex
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(addr int64) {
			defer wg.Done()
			if err := c.PutStrip(addr, make([]byte, testStrip)); errors.Is(err, store.ErrOverloaded) {
				mu.Lock()
				sawOverload = true
				mu.Unlock()
			}
		}(int64(i))
	}
	wg.Wait()
	if !sawOverload {
		t.Fatal("no op surfaced store.ErrOverloaded")
	}
}

// TestServerQoSEndpoints: GET/POST /v1/qos round-trip knob updates, reject
// negative values with 400, and POST /v1/scrub reports a clean pass.
func TestServerQoSEndpoints(t *testing.T) {
	_, c := newTestServer(t)

	st, err := c.QoS()
	if err != nil {
		t.Fatal(err)
	}
	if st.AdmitDepth != 0 || st.RebuildRate != 0 {
		t.Fatalf("zero-config qos state = %+v", st)
	}

	rate, target := 12.5, 2*time.Millisecond
	st, err = c.SetQoS(engine.QoSUpdate{RebuildRate: &rate, LatencyTarget: &target})
	if err != nil {
		t.Fatal(err)
	}
	if st.RebuildRate != 12.5 || st.LatencyTarget != target {
		t.Fatalf("updated qos state = %+v", st)
	}
	st, err = c.QoS()
	if err != nil {
		t.Fatal(err)
	}
	if st.RebuildRate != 12.5 {
		t.Fatalf("update did not persist: %+v", st)
	}

	bad := -1.0
	if _, err := c.SetQoS(engine.QoSUpdate{RebuildRate: &bad}); !errors.Is(err, store.ErrBadGeometry) {
		t.Fatalf("negative rate: want ErrBadGeometry, got %v", err)
	}

	n, err := c.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("clean array scrub found %d bad stripes", n)
	}
}

// TestServerQoSRefusesUnknownField: a POST /v1/qos naming a knob the
// server does not have — the retired scrub_interval_ns and scrub_batch
// among them — answers 400 naming the field and changes nothing.
func TestServerQoSRefusesUnknownField(t *testing.T) {
	s, c := newTestServer(t)
	for _, tc := range []struct{ body, field string }{
		{`{"scrub_interval_ns":2000000}`, "scrub_interval_ns"},
		{`{"scrub_rate":5,"scrub_batch":4}`, "scrub_batch"},
	} {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/qos", strings.NewReader(tc.body)))
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), `"`+tc.field+`"`) {
			t.Fatalf("POST %s: %d %q, want 400 naming %q", tc.body, rec.Code, rec.Body.String(), tc.field)
		}
	}
	st, err := c.QoS()
	if err != nil {
		t.Fatal(err)
	}
	if st.ScrubRate != 0 {
		t.Fatalf("a refused update changed the state: %+v", st)
	}
}
