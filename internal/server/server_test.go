package server

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/oiraid/oiraid/internal/bibd"
	"github.com/oiraid/oiraid/internal/core"
	"github.com/oiraid/oiraid/internal/engine"
	"github.com/oiraid/oiraid/internal/layout"
	"github.com/oiraid/oiraid/internal/store"
)

const testStrip = 256

func newTestServer(t testing.TB) (*Server, *Client) {
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
	arr, err := store.NewMemArray(an, 2, testStrip)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engine.New(arr, engine.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(eng, Options{RequestTimeout: 10 * time.Second})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		eng.Close()
	})
	return srv, NewClient(ts.URL)
}

// TestStripAPI: the strip endpoints round-trip binary content and map
// errors onto the documented statuses.
func TestStripAPI(t *testing.T) {
	_, c := newTestServer(t)
	p := make([]byte, testStrip)
	rand.New(rand.NewSource(1)).Read(p)
	if err := c.PutStripCtx(context.Background(), 3, p); err != nil {
		t.Fatal(err)
	}
	got, err := c.GetStripCtx(context.Background(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, p) {
		t.Fatal("strip round-trip differs")
	}

	if _, err := c.GetStripCtx(context.Background(), 1<<40); !errors.Is(err, store.ErrStripOutOfRange) {
		t.Fatalf("want ErrStripOutOfRange, got %v", err)
	}
	if err := c.PutStripCtx(context.Background(), 0, make([]byte, 5)); !errors.Is(err, store.ErrShortBuffer) {
		t.Fatalf("want ErrShortBuffer, got %v", err)
	}
	if err := c.FailDiskCtx(context.Background(), 99); !errors.Is(err, store.ErrNoSuchDisk) {
		t.Fatalf("want ErrNoSuchDisk, got %v", err)
	}
}

// TestByteRangeHelpers: the client's ReadAt/WriteAt do strip RMW at the
// edges.
func TestByteRangeHelpers(t *testing.T) {
	_, c := newTestServer(t)
	payload := make([]byte, 2*testStrip+77)
	rand.New(rand.NewSource(2)).Read(payload)
	const off = 99
	if n, err := c.WriteAtCtx(context.Background(), payload, off); err != nil || n != len(payload) {
		t.Fatalf("WriteAt = %d, %v", n, err)
	}
	got := make([]byte, len(payload))
	if n, err := c.ReadAtCtx(context.Background(), got, off); err != nil || n != len(payload) {
		t.Fatalf("ReadAt = %d, %v", n, err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("byte-range round-trip differs")
	}
}

// TestLifecycleOverHTTP: fail → degraded read → rebuild → healthy, driven
// entirely through the API, with status and metrics reflecting each step.
func TestLifecycleOverHTTP(t *testing.T) {
	_, c := newTestServer(t)
	p := make([]byte, testStrip)
	rand.New(rand.NewSource(3)).Read(p)
	for addr := int64(0); addr < 8; addr++ {
		if err := c.PutStripCtx(context.Background(), addr, p); err != nil {
			t.Fatal(err)
		}
	}

	st, err := c.StatusCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Failed) != 0 || !st.Exposure.Recoverable {
		t.Fatalf("healthy status: %+v", st)
	}

	if err := c.FailDiskCtx(context.Background(), 4); err != nil {
		t.Fatal(err)
	}
	st, err = c.StatusCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Failed) != 1 || st.Failed[0] != 4 {
		t.Fatalf("degraded status: %+v", st)
	}
	got, err := c.GetStripCtx(context.Background(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, p) {
		t.Fatal("degraded read differs")
	}

	if err := c.RebuildCtx(context.Background(), true); err != nil {
		t.Fatal(err)
	}
	st, err = c.StatusCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Failed) != 0 || st.Rebuilding {
		t.Fatalf("post-rebuild status: %+v", st)
	}

	metrics, err := c.MetricsCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"oiraid_engine_reads_total",
		"oiraid_engine_writes_total",
		"oiraid_engine_degraded_reads_total",
		"oiraid_engine_rebuild_batches_total",
	} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("metrics missing %s:\n%s", want, metrics)
		}
	}
	if strings.Contains(metrics, "oiraid_engine_writes_total 0\n") {
		t.Fatalf("write counter still zero:\n%s", metrics)
	}
}

// TestMethodRouting: wrong verbs 405, unknown paths 404.
func TestMethodRouting(t *testing.T) {
	srv, _ := newTestServer(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/rebuild")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/rebuild = %d, want 405", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /nope = %d, want 404", resp.StatusCode)
	}
}
