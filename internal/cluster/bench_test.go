package cluster

import (
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/oiraid/oiraid/internal/engine"
	"github.com/oiraid/oiraid/internal/store/netdev"
)

// benchCluster boots three mem-backed storage nodes over loopback HTTP
// and mounts the coordinator across them — the full wire path, no fault
// transports in the way.
func benchCluster(b *testing.B) *Cluster {
	b.Helper()
	var specs []NodeSpec
	for _, id := range []string{"alpha", "beta", "gamma"} {
		n := netdev.NewMemNode(id)
		srv := httptest.NewServer(n.Handler())
		b.Cleanup(srv.Close)
		specs = append(specs, NodeSpec{ID: id, URL: srv.URL})
	}
	c, err := Open(Options{
		Dir:   b.TempDir(),
		Nodes: specs,
		Client: netdev.Options{
			Timeout:     5 * time.Second,
			MaxAttempts: 2,
			Grace:       time.Hour, // never promote to lost mid-benchmark
		},
		Engine: engine.Options{Workers: 4},
		Format: &FormatSpec{Disks: 9, Cycles: 2, StripBytes: 4096},
	})
	if err != nil {
		b.Fatalf("open cluster: %v", err)
	}
	b.Cleanup(func() { c.Close() })
	return c
}

func reportLatency(b *testing.B, lats []time.Duration) {
	if len(lats) == 0 {
		return
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	p := func(q float64) float64 {
		i := int(q * float64(len(lats)-1))
		return float64(lats[i].Nanoseconds()) / 1e6
	}
	b.ReportMetric(p(0.50), "p50-ms")
	b.ReportMetric(p(0.99), "p99-ms")
}

// BenchmarkMigrateDisk measures membership-plane strip migration: one
// disk ping-pongs between two nodes through the full fenced pipeline —
// record commit, mirrored bulk copy, cursor commits, manifest flip,
// source reclaim — while a foreground reader samples latency under the
// migration load. bytes/op is the disk's full payload; p50/p99 are the
// foreground read latencies during the moves.
func BenchmarkMigrateDisk(b *testing.B) {
	c := benchCluster(b)
	p := make([]byte, 4096)
	rand.New(rand.NewSource(4)).Read(p)
	strips := c.Eng.Strips()
	for s := int64(0); s < strips; s++ {
		if err := c.Eng.WriteStrip(s, p); err != nil {
			b.Fatalf("seed write: %v", err)
		}
	}
	diskBytes := c.Eng.Array().Cycles() * int64(c.Eng.Array().Analyzer().SlotsPerDisk()) * 4096

	stop := make(chan struct{})
	done := make(chan []time.Duration, 1)
	go func() {
		var lats []time.Duration
		s := int64(0)
		for {
			select {
			case <-stop:
				done <- lats
				return
			default:
			}
			t0 := time.Now()
			if _, err := c.Eng.ReadStrip(s % strips); err == nil {
				lats = append(lats, time.Since(t0))
			}
			s++
			time.Sleep(time.Millisecond)
		}
	}()

	// Disk 0 starts on alpha; ping-pong it to beta and back.
	targets := [2]string{"beta", "alpha"}
	b.SetBytes(diskBytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.memberMu.Lock()
		err := c.migrateDisk(0, targets[i%2])
		c.memberMu.Unlock()
		if err != nil {
			b.Fatalf("migrate %d: %v", i, err)
		}
	}
	b.StopTimer()
	close(stop)
	reportLatency(b, <-done)
}

// countingTransport counts the round trips of every node client it is
// handed to, and among them the ones that carry strips.
type countingTransport struct {
	inner http.RoundTripper
	n     atomic.Int64 // all round trips
	// Batch RPCs by direction, and single-strip RPCs.
	batchReads, batchWrites, singles atomic.Int64
	// Blob writes, syncs and truncations: an HA coordinator's journal
	// appends, one per voter.
	blobWrites, blobSyncs, blobTruncates atomic.Int64
}

func (ct *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	ct.n.Add(1)
	switch path := r.URL.Path; {
	case path == "/node/v1/strips/read":
		ct.batchReads.Add(1)
	case path == "/node/v1/strips/write":
		ct.batchWrites.Add(1)
	case strings.Contains(path, "/strips/"):
		ct.singles.Add(1)
	case !strings.HasPrefix(path, "/node/v1/blobs/"):
	case strings.HasSuffix(path, "/sync"):
		ct.blobSyncs.Add(1)
	case strings.HasSuffix(path, "/truncate"):
		ct.blobTruncates.Add(1)
	case r.Method == http.MethodPut:
		ct.blobWrites.Add(1)
	}
	return ct.inner.RoundTrip(r)
}

// stripRPCs is what the strip plane and the journal's blobs took: every
// round trip but the lease renewals and health probes an HA coordinator
// makes on its own clock.
func (ct *countingTransport) stripRPCs() int64 {
	return ct.batchReads.Load() + ct.batchWrites.Load() + ct.singles.Load() +
		ct.blobWrites.Load() + ct.blobSyncs.Load() + ct.blobTruncates.Load()
}

func (ct *countingTransport) CloseIdleConnections() {
	ct.inner.(interface{ CloseIdleConnections() }).CloseIdleConnections()
}

// countedCluster boots a volatile coordinator (journal and manifest in
// memory) over three mem nodes on loopback, one cycle of v=9 — the bench's
// cluster-4k stack when stripBytes is 4096 — every node client on one
// counting transport over wrap(the default transport), wrap nil for none.
func countedCluster(tb testing.TB, stripBytes int, wrap func(http.RoundTripper) http.RoundTripper) (*Cluster, *countingTransport) {
	tb.Helper()
	return countedClusterHA(tb, stripBytes, wrap, "")
}

// countedClusterHA is countedCluster with Options.Holder set to holder: an
// HA coordinator, whose journal regions are replicated onto the three
// nodes through the same counting transport ("" for a classic one).
func countedClusterHA(tb testing.TB, stripBytes int, wrap func(http.RoundTripper) http.RoundTripper, holder string) (*Cluster, *countingTransport) {
	tb.Helper()
	var specs []NodeSpec
	for _, id := range []string{"alpha", "beta", "gamma"} {
		n := netdev.NewMemNode(id)
		srv := httptest.NewServer(n.Handler())
		tb.Cleanup(srv.Close)
		specs = append(specs, NodeSpec{ID: id, URL: srv.URL})
	}
	ct := &countingTransport{inner: http.DefaultTransport.(*http.Transport).Clone()}
	if wrap != nil {
		ct.inner = wrap(ct.inner)
	}
	c, err := Open(Options{
		Nodes:     specs,
		Client:    netdev.Options{Timeout: 5 * time.Second, MaxAttempts: 2, Grace: time.Hour},
		Engine:    engine.Options{Workers: 4},
		Format:    &FormatSpec{Disks: 9, Cycles: 1, StripBytes: stripBytes},
		Transport: func(NodeSpec) http.RoundTripper { return ct },
		Holder:    holder,
	})
	if err != nil {
		tb.Fatalf("open cluster: %v", err)
	}
	tb.Cleanup(func() { c.Close() })
	return c, ct
}

// BenchmarkClusterWrite is one single-strip write through the coordinator's
// engine, round-robin over the cycle's 144 data strips, with the RPCs it
// took: the closure's reads and writes coalesced per node.
func BenchmarkClusterWrite(b *testing.B) {
	c, ct := countedCluster(b, 4096, nil)
	p := make([]byte, 4096)
	rand.New(rand.NewSource(5)).Read(p)
	strips := c.Eng.Strips()
	for s := int64(0); s < strips; s++ {
		if err := c.Eng.WriteStrip(s, p); err != nil {
			b.Fatalf("seed write: %v", err)
		}
	}
	b.SetBytes(4096)
	b.ResetTimer()
	before := ct.n.Load()
	for i := 0; i < b.N; i++ {
		if err := c.Eng.WriteStrip(int64(i)%strips, p); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(ct.n.Load()-before)/float64(b.N), "rpcs/op")
}
