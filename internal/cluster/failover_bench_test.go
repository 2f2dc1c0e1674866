package cluster

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/oiraid/oiraid/internal/engine"
	"github.com/oiraid/oiraid/internal/store/netdev"
)

// benchHANodes boots the three mem-backed storage nodes an HA
// coordinator replicates its metadata onto.
func benchHANodes(b *testing.B) []NodeSpec {
	b.Helper()
	var specs []NodeSpec
	for _, id := range []string{"alpha", "beta", "gamma"} {
		n := netdev.NewMemNode(id)
		srv := httptest.NewServer(n.Handler())
		b.Cleanup(srv.Close)
		specs = append(specs, NodeSpec{ID: id, URL: srv.URL})
	}
	return specs
}

func benchHAOptions(b *testing.B, specs []NodeSpec, holder string, format bool) Options {
	opts := Options{
		Dir:   b.TempDir(),
		Nodes: specs,
		Client: netdev.Options{
			Timeout:     5 * time.Second,
			MaxAttempts: 2,
			Grace:       time.Hour,
		},
		Engine:     engine.Options{Workers: 4},
		Holder:     holder,
		LeaseRenew: 100 * time.Millisecond,
	}
	if format {
		opts.Format = &FormatSpec{Disks: 9, Cycles: 2, StripBytes: 4096}
	}
	return opts
}

// BenchmarkFailoverQuorumAppend measures an HA strip write: the parity
// closure plus its intent-journal appends replicated to a node quorum
// before the ack, with the RPCs it took — the lease renewals and health
// probes left out. The delta against BenchmarkClusterWrite is the price of
// surviving coordinator loss.
func BenchmarkFailoverQuorumAppend(b *testing.B) {
	specs := benchHANodes(b)
	ct := &countingTransport{inner: http.DefaultTransport.(*http.Transport).Clone()}
	opts := benchHAOptions(b, specs, "bench-leader", true)
	opts.Transport = func(NodeSpec) http.RoundTripper { return ct }
	c, err := Open(opts)
	if err != nil {
		b.Fatalf("open HA cluster: %v", err)
	}
	ct.c = c
	b.Cleanup(func() { c.Close() })
	p := make([]byte, 4096)
	rand.New(rand.NewSource(5)).Read(p)
	strips := c.Eng.Strips()
	lats := make([]time.Duration, 0, b.N)
	b.SetBytes(4096)
	b.ResetTimer()
	before := ct.stripRPCs()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		if err := c.Eng.WriteStrip(int64(i)%strips, p); err != nil {
			b.Fatalf("write: %v", err)
		}
		lats = append(lats, time.Since(t0))
	}
	b.StopTimer()
	b.ReportMetric(float64(ct.stripRPCs()-before)/float64(b.N), "rpcs/op")
	reportLatency(b, lats)
}

// BenchmarkFailoverTakeover measures a full fenced takeover against an
// established cluster: acquire a higher epoch from the quorum, recover
// both journal regions (the manifest among their records) from replicas,
// mount the array,
// and replay pending closures — the wall-clock a standby adds on top of
// its detection window.
func BenchmarkFailoverTakeover(b *testing.B) {
	specs := benchHANodes(b)
	c, err := Open(benchHAOptions(b, specs, "bench-leader", true))
	if err != nil {
		b.Fatalf("open HA cluster: %v", err)
	}
	p := make([]byte, 4096)
	rand.New(rand.NewSource(6)).Read(p)
	for s := int64(0); s < c.Eng.Strips(); s += 4 {
		if err := c.Eng.WriteStrip(s, p); err != nil {
			b.Fatalf("seed write: %v", err)
		}
	}
	if err := c.Close(); err != nil {
		b.Fatalf("leader close: %v", err)
	}
	lats := make([]time.Duration, 0, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts := benchHAOptions(b, specs, fmt.Sprintf("bench-succ-%d", i), false)
		t0 := time.Now()
		succ, err := Open(opts)
		if err != nil {
			b.Fatalf("takeover %d: %v", i, err)
		}
		lats = append(lats, time.Since(t0))
		b.StopTimer()
		if err := succ.Close(); err != nil {
			b.Fatalf("successor close: %v", err)
		}
		b.StartTimer()
	}
	b.StopTimer()
	reportLatency(b, lats)
}
