package cluster

import (
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
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
// handed to, and reads the messages those clients count themselves: a
// message rides a stream, whose open is not counted.
type countingTransport struct {
	inner http.RoundTripper
	n     atomic.Int64 // every round trip but stream opens
	// Requests to the device and blob routes a node no longer serves: every
	// device and blob op is a stream message.
	legacy atomic.Int64
	c      *Cluster // whose clients count the messages; set once open
}

func (ct *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	switch path := r.URL.Path; {
	case path == "/node/v1/strips":
		return ct.inner.RoundTrip(r)
	case strings.HasPrefix(path, "/node/v1/blobs/"), strings.HasPrefix(path, "/node/v1/devices/"):
		ct.legacy.Add(1)
	}
	ct.n.Add(1)
	return ct.inner.RoundTrip(r)
}

// sumStats adds up one counter of c's node clients.
func sumStats(c *Cluster, counter func(netdev.ClientStats) int64) (n int64) {
	for _, node := range c.ManifestSnapshot().Nodes {
		n += counter(c.Client(node.ID).Stats())
	}
	return n
}

// messages sums the strip messages the cluster's node clients have sent, by
// kind.
func (ct *countingTransport) messages() (reads, writes int64) {
	return sumStats(ct.c, func(st netdev.ClientStats) int64 { return st.ReadMessages }),
		sumStats(ct.c, func(st netdev.ClientStats) int64 { return st.WriteMessages })
}

// opens sums the streams the cluster's node clients have opened.
func (ct *countingTransport) opens() int64 {
	return sumStats(ct.c, func(st netdev.ClientStats) int64 { return st.StreamOpens })
}

// strips is every strip message sent.
func (ct *countingTransport) strips() int64 {
	r, w := ct.messages()
	return r + w
}

// blobs is every blob message sent: an HA coordinator's journal appends are
// a write and a sync to each voter.
func (ct *countingTransport) blobs() int64 {
	return sumStats(ct.c, func(st netdev.ClientStats) int64 { return st.BlobMessages })
}

// rpcs is what the node plane has carried: every message and every other
// round trip.
func (ct *countingTransport) rpcs() int64 {
	return ct.strips() + ct.blobs() + sumStats(ct.c, func(st netdev.ClientStats) int64 { return st.DeviceMessages }) + ct.n.Load()
}

// stripRPCs is what the strip plane and the journal's blobs took: every
// strip and blob message, but not the lease renewals and health probes an
// HA coordinator makes on its own clock.
func (ct *countingTransport) stripRPCs() int64 { return ct.strips() + ct.blobs() }

func (ct *countingTransport) CloseIdleConnections() {
	ct.inner.(interface{ CloseIdleConnections() }).CloseIdleConnections()
}

// countedCluster boots a volatile coordinator (journal and manifest in
// memory) over three mem nodes on loopback, one cycle of v=9 — the bench's
// cluster-4k stack when stripBytes is 4096 — every node client on
// wrap(node, one counting transport over the default one), wrap nil for
// none.
func countedCluster(tb testing.TB, stripBytes int, wrap func(node string, inner http.RoundTripper) http.RoundTripper) (*Cluster, *countingTransport) {
	tb.Helper()
	return countedClusterHA(tb, stripBytes, wrap, "")
}

// countedClusterHA is countedCluster with Options.Holder set to holder: an
// HA coordinator, whose journal regions are replicated onto the three
// nodes through the same counting transport ("" for a classic one).
func countedClusterHA(tb testing.TB, stripBytes int, wrap func(node string, inner http.RoundTripper) http.RoundTripper, holder string) (*Cluster, *countingTransport) {
	tb.Helper()
	var specs []NodeSpec
	for _, id := range []string{"alpha", "beta", "gamma"} {
		n := netdev.NewMemNode(id)
		srv := httptest.NewServer(n.Handler())
		tb.Cleanup(srv.Close)
		specs = append(specs, NodeSpec{ID: id, URL: srv.URL})
	}
	ct := &countingTransport{inner: http.DefaultTransport.(*http.Transport).Clone()}
	c, err := Open(Options{
		Nodes:  specs,
		Client: netdev.Options{Timeout: 5 * time.Second, MaxAttempts: 2, Grace: time.Hour},
		Engine: engine.Options{Workers: 4},
		Format: &FormatSpec{Disks: 9, Cycles: 1, StripBytes: stripBytes},
		Transport: func(n NodeSpec) http.RoundTripper {
			if wrap == nil {
				return ct
			}
			return wrap(n.ID, ct)
		},
		Holder: holder,
	})
	if err != nil {
		tb.Fatalf("open cluster: %v", err)
	}
	ct.c = c
	tb.Cleanup(func() { c.Close() })
	return c, ct
}

// BenchmarkClusterFormat is Open with a FormatSpec: a volatile coordinator
// formats one cycle of v=9 at 4 KiB strips over three loopback mem nodes —
// the bench's cluster-4k set-up less its fill — and reports the HTTP
// requests it took (http/op, stream Upgrades included) and the stream
// messages (msgs/op). Each format gets fresh nodes, built and torn down off
// the clock.
func BenchmarkClusterFormat(b *testing.B) {
	var requests, msgs int64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		var specs []NodeSpec
		var closers []func()
		for _, id := range []string{"alpha", "beta", "gamma"} {
			n := netdev.NewMemNode(id)
			srv := httptest.NewServer(n.Handler())
			closers = append(closers, func() { srv.Close(); n.Close() })
			specs = append(specs, NodeSpec{ID: id, URL: srv.URL})
		}
		ct := &countingTransport{inner: http.DefaultTransport.(*http.Transport).Clone()}
		b.StartTimer()
		c, err := Open(Options{
			Nodes:     specs,
			Client:    netdev.Options{Timeout: 5 * time.Second, MaxAttempts: 2, Grace: time.Hour},
			Engine:    engine.Options{Workers: 4},
			Format:    &FormatSpec{Disks: 9, Cycles: 1, StripBytes: 4096},
			Transport: func(NodeSpec) http.RoundTripper { return ct },
		})
		b.StopTimer()
		if err != nil {
			b.Fatalf("open cluster: %v", err)
		}
		ct.c = c
		requests += ct.n.Load() + ct.opens()
		msgs += ct.rpcs() - ct.n.Load()
		c.Close()
		for _, close := range closers {
			close()
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(requests)/float64(b.N), "http/op")
	b.ReportMetric(float64(msgs)/float64(b.N), "msgs/op")
}

// BenchmarkClusterWrite is one single-strip write through the coordinator's
// engine, round-robin over the cycle's 144 data strips, with the RPCs it
// took — the closure's reads and writes coalesced into one message per node
// each way — and the streams it opened.
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
	before, opens := ct.rpcs(), ct.opens()
	for i := 0; i < b.N; i++ {
		if err := c.Eng.WriteStrip(int64(i)%strips, p); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(ct.rpcs()-before)/float64(b.N), "rpcs/op")
	b.ReportMetric(float64(ct.opens()-opens)/float64(b.N), "opens/op")
}

// TestClusterCloseInBenchOrder closes a volatile cluster-4k stack the way the
// bench does between set-ups — the coordinator first, then each node's
// server and the node — and checks that no server's Close waits on a strip
// stream and that nothing is left running.
func TestClusterCloseInBenchOrder(t *testing.T) {
	baseline := runtime.NumGoroutine()
	var closers []func() error
	var specs []NodeSpec
	for _, id := range []string{"alpha", "beta", "gamma"} {
		node := netdev.NewMemNode(id)
		srv := httptest.NewServer(node.Handler())
		closers = append(closers, func() error {
			t0 := time.Now()
			srv.Close()
			if took := time.Since(t0); took > time.Second {
				t.Errorf("node %s: httptest.Server.Close took %v after the coordinator closed", id, took)
			}
			return node.Close()
		})
		specs = append(specs, NodeSpec{ID: id, URL: srv.URL})
	}
	c, err := Open(Options{
		Nodes:  specs,
		Client: netdev.Options{Timeout: 5 * time.Second, MaxAttempts: 2, Grace: time.Hour},
		Engine: engine.Options{Workers: 4},
		Format: &FormatSpec{Disks: 9, Cycles: 1, StripBytes: 4096},
	})
	if err != nil {
		t.Fatal(err)
	}
	closers = append(closers, c.Close)
	p := make([]byte, 4096)
	for s := int64(0); s < c.Eng.Strips(); s++ {
		if err := c.Eng.WriteStrip(s, p); err != nil {
			t.Fatal(err)
		}
	}
	for i := len(closers) - 1; i >= 0; i-- {
		if err := closers[i](); err != nil {
			t.Fatal(err)
		}
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > baseline {
		t.Errorf("%d goroutines after the stack closed, %d before", got, baseline)
	}
}
