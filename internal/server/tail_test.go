package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/oiraid/oiraid/internal/bibd"
	"github.com/oiraid/oiraid/internal/core"
	"github.com/oiraid/oiraid/internal/engine"
	"github.com/oiraid/oiraid/internal/layout"
	"github.com/oiraid/oiraid/internal/store"
)

// newTailServer builds a server whose engine runs the given health
// policy over fault devices with a journal (so checksums), returning the
// injectors.
func newTailServer(t testing.TB, pol *engine.HealthPolicy) (*Server, *Client, []*store.FaultDevice) {
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
	faults := make([]*store.FaultDevice, an.Disks())
	devs := make([]store.Device, an.Disks())
	for i := range devs {
		mem, err := store.NewMemDevice(strips, testStrip)
		if err != nil {
			t.Fatal(err)
		}
		faults[i] = store.NewFaultDevice(mem, store.FaultConfig{Seed: int64(2000 + i)})
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
	eng, err := engine.New(arr, engine.Options{Workers: 2, Health: pol})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(eng, Options{RequestTimeout: 30 * time.Second})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		eng.Close()
	})
	return srv, NewClient(ts.URL), faults
}

// metricValue extracts one counter from the text metrics dump.
func metricValue(t *testing.T, metrics, name string) float64 {
	t.Helper()
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` (\S+)$`)
	m := re.FindStringSubmatch(metrics)
	if m == nil {
		t.Fatalf("metric %s missing from dump", name)
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Fatalf("metric %s = %q: %v", name, m[1], err)
	}
	return v
}

// TestPanicRecoveryMiddleware: a panicking handler yields a 500 (not a
// dropped connection) and the panic counter surfaces in /v1/metrics.
func TestPanicRecoveryMiddleware(t *testing.T) {
	srv, c := newTestServer(t)
	srv.mux.HandleFunc("GET /v1/boom", func(w http.ResponseWriter, r *http.Request) {
		panic("kaboom")
	})
	resp, err := http.Get(c.base + "/v1/boom")
	if err != nil {
		t.Fatalf("panic must become a response, got transport error %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", resp.StatusCode)
	}
	m, err := c.MetricsCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := metricValue(t, m, "oiraid_server_panics_total"); got != 1 {
		t.Fatalf("panic counter = %v, want 1", got)
	}
}

// TestQuarantineRecoverOverHTTP: the full slow-disk cycle driven through
// the HTTP API — auto-quarantine, reconstructed reads, writes landing,
// probe-driven release — with the counters visible in /v1/metrics.
func TestQuarantineRecoverOverHTTP(t *testing.T) {
	_, c, faults := newTailServer(t, &engine.HealthPolicy{
		SlowOp:             2 * time.Millisecond,
		QuarantineSlowFrac: 0.45,
		QuarantineMinOps:   4,
		QuarantineProbe:    20 * time.Millisecond,
		QuarantineProbeOK:  2,
		QuarantineEscalate: 100,
	})
	st, err := c.StatusCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	payload := func(addr int64, seq int) []byte {
		return bytes.Repeat([]byte{byte(addr*31 + int64(seq))}, testStrip)
	}
	for addr := int64(0); addr < st.Strips; addr++ {
		if err := c.PutStripCtx(context.Background(), addr, payload(addr, 0)); err != nil {
			t.Fatal(err)
		}
	}

	const victim = 0
	faults[victim].SetSlow(1.0, 10*time.Millisecond)
	deadline := time.Now().Add(15 * time.Second)
	for {
		h, err := c.HealthCtx(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if h.Disks[victim].State == "quarantined" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("victim never quarantined over HTTP: %+v", h.Disks[victim])
		}
		for addr := int64(0); addr < st.Strips; addr++ {
			if _, err := c.GetStripCtx(context.Background(), addr); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Reads while quarantined reconstruct, bit-identical; writes land.
	for addr := int64(0); addr < st.Strips; addr++ {
		got, err := c.GetStripCtx(context.Background(), addr)
		if err != nil || !bytes.Equal(got, payload(addr, 0)) {
			t.Fatalf("quarantined read %d: %v", addr, err)
		}
		if err := c.PutStripCtx(context.Background(), addr, payload(addr, 1)); err != nil {
			t.Fatalf("quarantined write %d: %v", addr, err)
		}
	}

	faults[victim].SetSlow(0, 0)
	deadline = time.Now().Add(15 * time.Second)
	for {
		h, err := c.HealthCtx(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if h.Disks[victim].State == "healthy" && h.QuarantineReleases >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("victim never released over HTTP: %+v", h)
		}
		time.Sleep(5 * time.Millisecond)
	}
	for addr := int64(0); addr < st.Strips; addr++ {
		got, err := c.GetStripCtx(context.Background(), addr)
		if err != nil || !bytes.Equal(got, payload(addr, 1)) {
			t.Fatalf("read %d after release: %v", addr, err)
		}
	}

	m, err := c.MetricsCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := metricValue(t, m, "oiraid_engine_quarantines_total"); got != 1 {
		t.Fatalf("quarantines metric = %v, want 1", got)
	}
	if got := metricValue(t, m, "oiraid_engine_quarantine_releases_total"); got != 1 {
		t.Fatalf("releases metric = %v, want 1", got)
	}
	if got := metricValue(t, m, "oiraid_engine_quarantined_reads_total"); got == 0 {
		t.Fatal("no quarantined reads recorded")
	}
}

// TestQuarantineEscalateOverHTTP: a relapsing disk escalates to eviction
// and heals onto a spare registered through the API, ending healthy.
func TestQuarantineEscalateOverHTTP(t *testing.T) {
	_, c, faults := newTailServer(t, &engine.HealthPolicy{
		SlowOp:             2 * time.Millisecond,
		QuarantineSlowFrac: 0.45,
		QuarantineMinOps:   2,
		QuarantineProbe:    10 * time.Millisecond,
		QuarantineProbeOK:  2,
		QuarantineEscalate: 1,
	})
	if n, err := c.AddSparesCtx(context.Background(), 1); err != nil || n != 1 {
		t.Fatalf("AddSpares = %d, %v", n, err)
	}
	st, err := c.StatusCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	payload := func(addr int64) []byte {
		return bytes.Repeat([]byte{byte(addr*17 + 5)}, testStrip)
	}
	for addr := int64(0); addr < st.Strips; addr++ {
		if err := c.PutStripCtx(context.Background(), addr, payload(addr)); err != nil {
			t.Fatal(err)
		}
	}

	const victim = 0
	browOut := func(round string) {
		t.Helper()
		faults[victim].SetSlow(1.0, 10*time.Millisecond)
		deadline := time.Now().Add(15 * time.Second)
		for {
			h, err := c.HealthCtx(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if h.Disks[victim].State == "quarantined" || h.QuarantineEscalations >= 1 {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s: no quarantine reaction: %+v", round, h.Disks[victim])
			}
			for addr := int64(0); addr < st.Strips; addr++ {
				if _, err := c.GetStripCtx(context.Background(), addr); err != nil {
					t.Fatal(err)
				}
			}
		}
	}

	browOut("round 1")
	faults[victim].SetSlow(0, 0)
	deadline := time.Now().Add(15 * time.Second)
	for {
		h, err := c.HealthCtx(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if h.QuarantineReleases >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("round 1: never released: %+v", h)
		}
		time.Sleep(5 * time.Millisecond)
	}

	browOut("round 2")
	// The escalation runs fail -> spare -> rebuild on the server; wait for
	// the heal to finish and the array to be clean again.
	deadline = time.Now().Add(20 * time.Second)
	for {
		sta, err := c.StatusCtx(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		m, err := c.MetricsCtx(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if sta.Evictions >= 1 && len(sta.Failed) == 0 && !sta.Rebuilding &&
			metricValue(t, m, "oiraid_engine_spares_used_total") == 1 {
			if got := metricValue(t, m, "oiraid_engine_quarantine_escalations_total"); got != 1 {
				t.Fatalf("escalations metric = %v, want 1", got)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("escalation heal incomplete: %+v", sta)
		}
		time.Sleep(10 * time.Millisecond)
	}
	for addr := int64(0); addr < st.Strips; addr++ {
		got, err := c.GetStripCtx(context.Background(), addr)
		if err != nil || !bytes.Equal(got, payload(addr)) {
			t.Fatalf("read %d after escalation heal: %v", addr, err)
		}
	}
}

// TestManualQuarantineOverHTTP: the operator endpoints drive the same
// state machine the monitor does.
func TestManualQuarantineOverHTTP(t *testing.T) {
	_, c, _ := newTailServer(t, nil)
	if err := c.PutStripCtx(context.Background(), 0, bytes.Repeat([]byte{9}, testStrip)); err != nil {
		t.Fatal(err)
	}
	if err := c.QuarantineCtx(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	h, err := c.HealthCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if h.Disks[0].State != "quarantined" {
		t.Fatalf("state = %q, want quarantined", h.Disks[0].State)
	}
	if _, err := c.GetStripCtx(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	if err := c.ReleaseCtx(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	if h, err = c.HealthCtx(context.Background()); err != nil || h.Disks[0].State != "healthy" {
		t.Fatalf("state after release: %+v, %v", h.Disks[0], err)
	}
	if err := c.QuarantineCtx(context.Background(), 99); !errors.Is(err, store.ErrNoSuchDisk) {
		t.Fatalf("quarantine of bogus disk: %v", err)
	}
}

// TestHedgeCountersOverHTTP: with hedging armed and one slow disk, reads
// through the API move the hedge counters into /v1/metrics.
func TestHedgeCountersOverHTTP(t *testing.T) {
	_, c, faults := newTailServer(t, &engine.HealthPolicy{
		HedgeMultiple: 3,
		HedgeFloor:    500 * time.Microsecond,
		HedgeCeiling:  3 * time.Millisecond,
	})
	st, err := c.StatusCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for addr := int64(0); addr < st.Strips; addr++ {
		if err := c.PutStripCtx(context.Background(), addr, bytes.Repeat([]byte{byte(addr)}, testStrip)); err != nil {
			t.Fatal(err)
		}
	}
	faults[0].SetSlow(1.0, 20*time.Millisecond)
	for round := 0; round < 3; round++ {
		for addr := int64(0); addr < st.Strips; addr++ {
			if _, err := c.GetStripCtx(context.Background(), addr); err != nil {
				t.Fatal(err)
			}
		}
	}
	m, err := c.MetricsCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := metricValue(t, m, "oiraid_engine_hedge_fired_total"); got == 0 {
		t.Fatal("no hedges fired through the API")
	}
	if got := metricValue(t, m, "oiraid_engine_hedge_won_total"); got == 0 {
		t.Fatal("no hedges won through the API")
	}
	if !strings.Contains(m, `oiraid_disk_p99_latency_us{disk="0"}`) {
		t.Fatal("per-disk p99 gauge missing")
	}
}

// TestClientCircuitBreaker: consecutive server failures open the
// endpoint's circuit (calls fail fast without reaching the server), the
// cooldown admits one half-open probe, and a success closes it again.
func TestClientCircuitBreaker(t *testing.T) {
	var hits, healthy atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		if healthy.Load() == 1 {
			fmt.Fprint(w, `{"strips":8,"strip_bytes":256}`)
			return
		}
		http.Error(w, "down", http.StatusServiceUnavailable)
	}))
	defer ts.Close()
	c := NewClientWithOptions(ts.URL, ClientOptions{
		MaxRetries:       0,
		BreakerThreshold: 2,
		BreakerCooldown:  100 * time.Millisecond,
	})

	for i := 0; i < 2; i++ {
		if _, err := c.StatusCtx(context.Background()); err == nil || errors.Is(err, ErrCircuitOpen) {
			t.Fatalf("call %d should fail against the server, got %v", i, err)
		}
	}
	if got := hits.Load(); got != 2 {
		t.Fatalf("server saw %d calls, want 2", got)
	}
	// Third call: circuit open, refused locally.
	if _, err := c.StatusCtx(context.Background()); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("want ErrCircuitOpen, got %v", err)
	}
	if got := hits.Load(); got != 2 {
		t.Fatalf("open circuit still reached the server: %d calls", got)
	}
	// Other endpoints have their own circuit: the call fails against the
	// (still down) server instead of being refused locally.
	if _, err := c.MetricsCtx(context.Background()); errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("distinct endpoint shares the open circuit: %v", err)
	}
	if got := hits.Load(); got != 3 {
		t.Fatalf("metrics call did not reach the server: %d hits", got)
	}

	healthy.Store(1)
	if _, err := c.StatusCtx(context.Background()); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("cooldown not elapsed, want ErrCircuitOpen, got %v", err)
	}
	time.Sleep(120 * time.Millisecond)
	if _, err := c.StatusCtx(context.Background()); err != nil {
		t.Fatalf("half-open probe should succeed: %v", err)
	}
	if _, err := c.StatusCtx(context.Background()); err != nil {
		t.Fatalf("circuit should be closed: %v", err)
	}

	// The object call shapes ride the same breaker: a GET-to-writer, a
	// HEAD and a streamed PUT each count toward their endpoint's circuit
	// when they fail and are refused locally while it is open.
	healthy.Store(0)
	big := make([]byte, maxBufferedPut+1)
	for name, call := range map[string]func() error{
		"GetObject":  func() error { _, err := c.GetObject("b", "k", io.Discard); return err },
		"StatObject": func() error { _, err := c.StatObjectCtx(context.Background(), "b", "k"); return err },
		"streamed PutObject": func() error {
			_, err := c.PutObject("b", "k", bytes.NewReader(big), int64(len(big)), nil)
			return err
		},
	} {
		before := hits.Load()
		for i := 0; i < 2; i++ {
			if err := call(); err == nil || errors.Is(err, ErrCircuitOpen) {
				t.Fatalf("%s call %d should fail against the server, got %v", name, i, err)
			}
		}
		if err := call(); !errors.Is(err, ErrCircuitOpen) {
			t.Fatalf("%s: want ErrCircuitOpen, got %v", name, err)
		}
		if got := hits.Load() - before; got != 2 {
			t.Fatalf("%s: server saw %d calls, want 2", name, got)
		}
	}
}

// TestClientBreakerReopensOnFailedProbe: a failing half-open probe slams
// the circuit shut again for a full cooldown.
func TestClientBreakerReopensOnFailedProbe(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down", http.StatusServiceUnavailable)
	}))
	defer ts.Close()
	c := NewClientWithOptions(ts.URL, ClientOptions{
		MaxRetries:       0,
		BreakerThreshold: 1,
		BreakerCooldown:  50 * time.Millisecond,
	})
	if _, err := c.StatusCtx(context.Background()); err == nil || errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("first call must reach the server: %v", err)
	}
	time.Sleep(60 * time.Millisecond)
	if _, err := c.StatusCtx(context.Background()); err == nil || errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("probe must reach the server: %v", err)
	}
	// The failed probe reopened the circuit immediately.
	if _, err := c.StatusCtx(context.Background()); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("want ErrCircuitOpen after failed probe, got %v", err)
	}
}

// TestEndpointKey: strip addresses and disk ids collapse to one circuit
// per verb; the query string is ignored.
func TestEndpointKey(t *testing.T) {
	cases := map[string]string{
		endpointKey("GET", "/v1/strips/123"):          "GET /v1/strips/*",
		endpointKey("GET", "/v1/strips/7?x=1"):        "GET /v1/strips/*",
		endpointKey("POST", "/v1/disks/2/quarantine"): "POST /v1/disks/*/quarantine",
		endpointKey("GET", "/v1/status"):              "GET /v1/status",
		endpointKey("POST", "/v1/rebuild?wait=1"):     "POST /v1/rebuild",
	}
	for got, want := range cases {
		if got != want {
			t.Fatalf("endpointKey = %q, want %q", got, want)
		}
	}
}

// TestClientMaxRetryTime: the total-retry budget stops a hopeless call
// long before MaxRetries would.
func TestClientMaxRetryTime(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		http.Error(w, "down", http.StatusServiceUnavailable)
	}))
	defer ts.Close()
	c := NewClientWithOptions(ts.URL, ClientOptions{
		MaxRetries:   1000,
		BaseDelay:    20 * time.Millisecond,
		MaxDelay:     20 * time.Millisecond,
		MaxRetryTime: 80 * time.Millisecond,
		Seed:         1,
	})
	start := time.Now()
	_, err := c.StatusCtx(context.Background())
	elapsed := time.Since(start)
	if err == nil || errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("want surfaced server error, got %v", err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("retry budget not honoured: ran %v", elapsed)
	}
	if got := hits.Load(); got >= 1000 {
		t.Fatalf("budget did not bound attempts: %d", got)
	}

	// GET-to-writer and HEAD honour the same budget.
	for name, call := range map[string]func() error{
		"GetObject":  func() error { _, err := c.GetObject("b", "k", io.Discard); return err },
		"StatObject": func() error { _, err := c.StatObjectCtx(context.Background(), "b", "k"); return err },
	} {
		hits.Store(0)
		start = time.Now()
		if err := call(); err == nil {
			t.Fatalf("%s: want surfaced server error", name)
		}
		if elapsed := time.Since(start); elapsed > 2*time.Second {
			t.Fatalf("%s: retry budget not honoured: ran %v", name, elapsed)
		}
		if got := hits.Load(); got < 2 || got >= 1000 {
			t.Fatalf("%s: %d attempts, want a few retries bounded by the budget", name, got)
		}
	}
}
