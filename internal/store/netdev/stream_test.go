package netdev

import (
	"bytes"
	"context"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/oiraid/oiraid/internal/retry"
	"github.com/oiraid/oiraid/internal/store"
)

// streamFixture is one node and a client behind a fault transport whose
// stream is open: the device is created and strip 0 written, so every fault
// below meets a message on an open stream, not a stream's open.
type streamFixture struct {
	n   *Node
	c   *NodeClient
	ft  *FaultTransport
	dev *NetDevice
	old []byte // strip 0 as written
}

func newStreamFixture(t *testing.T) *streamFixture {
	t.Helper()
	n, srv := startNode(t, "n0")
	f := &streamFixture{n: n, ft: NewFaultTransport(nil, 17), old: bytes.Repeat([]byte{0x21}, 256)}
	opts := fastOpts()
	opts.Transport = f.ft
	f.c = NewNodeClient(srv.URL, opts)
	t.Cleanup(func() { f.c.Close() })
	var err error
	if f.dev, err = f.c.CreateDevice("d0", 8, 256); err != nil {
		t.Fatal(err)
	}
	if err := f.dev.WriteStrip(0, f.old); err != nil {
		t.Fatal(err)
	}
	if st := f.c.Stats(); st.StreamOpens != 1 || st.WriteMessages != 1 {
		t.Fatalf("set-up: %+v, want one stream and one write message", st)
	}
	return f
}

// onNode reads strip idx straight off the node's device.
func (f *streamFixture) onNode(t *testing.T, idx int64) []byte {
	t.Helper()
	p := make([]byte, 256)
	if err := f.n.devs["d0"].ReadStrip(idx, p); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestStreamFaultDrop: under a full partition a message on an open stream
// never reaches the node, and the op fails as a dropped request does:
// ErrUnreachable, the node marked down. The attempts after the first find no
// stream to open. Lifted, the prober brings the node back and the write
// lands.
func TestStreamFaultDrop(t *testing.T) {
	f := newStreamFixture(t)
	f.ft.SetPartition(PartDrop)
	p := bytes.Repeat([]byte{0x22}, 256)
	if err := f.dev.WriteStrip(0, p); !errors.Is(err, store.ErrUnreachable) || !f.c.Down() {
		t.Fatalf("write under a full partition: %v (down %v), want ErrUnreachable", err, f.c.Down())
	}
	if st := f.c.Stats(); st.WriteMessages != 2 || st.StreamOpens != 1 {
		t.Errorf("%+v: want the one open stream to carry the dropped message and no stream opened", st)
	}
	if !bytes.Equal(f.onNode(t, 0), f.old) {
		t.Fatal("a dropped message reached the node")
	}
	f.ft.SetPartition(PartNone)
	for deadline := time.Now().Add(5 * time.Second); f.c.Down() && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
	}
	if err := f.dev.WriteStrip(0, p); err != nil || !bytes.Equal(f.onNode(t, 0), p) {
		t.Fatalf("write after the partition lifted: %v", err)
	}
}

// TestStreamFaultAsym: under an asymmetric partition every message executes
// and its answer is lost, as a request's response is: the op fails with
// ErrUnreachable although the write landed, each attempt on a stream of its
// own, and the re-sent write converges once the partition lifts.
func TestStreamFaultAsym(t *testing.T) {
	f := newStreamFixture(t)
	f.ft.SetPartition(PartAsym)
	p := bytes.Repeat([]byte{0x23}, 256)
	if err := f.dev.WriteStrip(1, p); !errors.Is(err, store.ErrUnreachable) {
		t.Fatalf("write under an asymmetric partition: %v, want ErrUnreachable", err)
	}
	if !bytes.Equal(f.onNode(t, 1), p) {
		t.Fatal("the unacknowledged write did not land on the node")
	}
	attempts := int64(fastOpts().MaxAttempts)
	if st := f.c.Stats(); st.WriteMessages != 1+attempts || st.StreamOpens != attempts {
		t.Errorf("%+v: want %d write messages after the first, on the open stream and %d new ones", st, attempts, attempts-1)
	}
	f.ft.SetPartition(PartNone)
	for deadline := time.Now().Add(5 * time.Second); f.c.Down() && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
	}
	if err := f.dev.WriteStrip(1, p); err != nil {
		t.Fatalf("re-send after the partition lifted: %v", err)
	}
}

// TestStreamFaultDelay: a link delay holds back every message of an open
// stream, not only its open, and a delay inside the deadline ends no stream.
func TestStreamFaultDelay(t *testing.T) {
	f := newStreamFixture(t)
	const delay = 40 * time.Millisecond
	f.ft.SetDelay(delay)
	p := make([]byte, 256)
	for i := 0; i < 4; i++ {
		t0 := time.Now()
		if err := f.dev.ReadStrip(0, p); err != nil || !bytes.Equal(p, f.old) {
			t.Fatalf("read %d on a slow link: %v", i, err)
		}
		if took := time.Since(t0); took < delay {
			t.Errorf("read %d took %v on a link delayed by %v", i, took, delay)
		}
	}
	if st := f.c.Stats(); st.StreamOpens != 1 || st.Retries != 0 {
		t.Errorf("%+v: a delay inside the deadline opened streams or retried", st)
	}
}

// TestStreamFaultTorn: every nth answer on a stream is cut short; the codec
// catches each one, the attempt retries on a fresh stream, and every read
// returns its strip intact.
func TestStreamFaultTorn(t *testing.T) {
	f := newStreamFixture(t)
	// Two draws so far (the create's response and the first write's
	// answer), so with every third answer torn, twelve reads meet six
	// torn answers: draws 3, 6, … 18 of 20.
	f.ft.SetTorn(3)
	p := make([]byte, 256)
	for i := 0; i < 12; i++ {
		if err := f.dev.ReadStrip(0, p); err != nil || !bytes.Equal(p, f.old) {
			t.Fatalf("read %d under torn answers: %v", i, err)
		}
	}
	if st := f.c.Stats(); st.Retries != 6 || st.StreamOpens != 1+6 || st.ReadMessages != 12+6 {
		t.Errorf("%+v: want 6 retries, each on a stream of its own, 18 read messages", st)
	}
}

// openStreams is how many strip streams the node is serving.
func openStreams(n *Node) int {
	n.streams.mu.Lock()
	defer n.streams.mu.Unlock()
	return len(n.streams.open)
}

// waitFor polls cond for up to five seconds.
func waitFor(cond func() bool) bool {
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		if cond() {
			return true
		}
	}
	return cond()
}

// inFlight starts k reads of dev and returns once all k messages are held at
// ft, so the client has k streams in use; release lets them go on, and the
// reads' errors arrive on errs.
func inFlight(ft *FaultTransport, dev *NetDevice, k int) (release func(), errs chan error) {
	var arrived sync.WaitGroup
	arrived.Add(k)
	held := make(chan struct{})
	ft.SetHook(func(string, bool) {
		arrived.Done()
		<-held
	})
	errs = make(chan error, k)
	for i := 0; i < k; i++ {
		go func() { errs <- dev.ReadStrip(int64(i), make([]byte, dev.StripBytes())) }()
	}
	arrived.Wait()
	return func() {
		ft.SetHook(nil)
		close(held)
	}, errs
}

// TestStreamPoolKeepsOverlap: the streams of k overlapping exchanges are all
// kept once they end, so the next overlapping rounds open none; idle streams
// past half the node's idle limit are retired on the next take.
func TestStreamPoolKeepsOverlap(t *testing.T) {
	f := newStreamFixture(t)
	const k = 4
	for round := 0; round < 3; round++ {
		release, errs := inFlight(f.ft, f.dev, k)
		release()
		for i := 0; i < k; i++ {
			if err := <-errs; err != nil {
				t.Fatal(err)
			}
		}
	}
	if st := f.c.Stats(); st.StreamOpens != k || st.ReadMessages != 3*k {
		t.Errorf("%+v: want %d streams opened for 3 rounds of %d overlapping reads", st, k, k)
	}
	if got := openStreams(f.n); got != k {
		t.Errorf("node serves %d streams, want the %d kept idle", got, k)
	}

	f.c.streams.mu.Lock()
	for _, s := range f.c.streams.idle {
		s.idleSince = time.Now().Add(-streamIdle / 2)
	}
	f.c.streams.mu.Unlock()
	if err := f.dev.ReadStrip(0, make([]byte, 256)); err != nil {
		t.Fatal(err)
	}
	if st := f.c.Stats(); st.StreamOpens != k+1 {
		t.Errorf("%+v: want the stale streams retired and one opened", st)
	}
	if !waitFor(func() bool { return openStreams(f.n) == 1 }) {
		t.Errorf("node serves %d streams after the retirement, want 1", openStreams(f.n))
	}
}

// TestStreamLifecycle: NodeClient.Close ends every stream, in use or idle, and
// so does Node.Close; an httptest server closed after its clients returns at
// once, nothing is left running, and a node restarted under an open stream is
// redialled on the next op without being marked down.
func TestStreamLifecycle(t *testing.T) {
	baseline := runtime.NumGoroutine()

	n := NewMemNode("n0")
	srv := httptest.NewServer(n.Handler())
	ft := NewFaultTransport(nil, 5)
	opts := fastOpts()
	opts.Transport = ft
	c := NewNodeClient(srv.URL, opts)
	dev, err := c.CreateDevice("d0", 4, 512)
	if err != nil {
		t.Fatal(err)
	}
	release, errs := inFlight(ft, dev, 2)
	if got := openStreams(n); got != 2 {
		t.Fatalf("%d streams open with two messages in flight, want 2", got)
	}
	c.Close()
	release()
	for i := 0; i < 2; i++ {
		if err := <-errs; !errors.Is(err, store.ErrClosed) {
			t.Errorf("a read in flight across Close: %v, want ErrClosed", err)
		}
	}
	if !waitFor(func() bool { return openStreams(n) == 0 }) {
		t.Errorf("%d streams still open after the client closed", openStreams(n))
	}

	// A second client's idle stream, ended by the node.
	c2 := NewNodeClient(srv.URL, opts)
	if err := c2.Device("d0", 4, 512).ReadStrip(0, make([]byte, 512)); err != nil {
		t.Fatal(err)
	}
	if got := openStreams(n); got != 1 {
		t.Fatalf("%d streams open after one read, want 1", got)
	}
	closed := make(chan error, 1)
	go func() { closed <- n.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Node.Close did not return with a stream open")
	}
	if got := openStreams(n); got != 0 {
		t.Errorf("%d streams open after the node closed", got)
	}
	c2.Close()
	t0 := time.Now()
	srv.Close()
	if took := time.Since(t0); took > time.Second {
		t.Errorf("httptest.Server.Close took %v after its clients closed", took)
	}
	if !waitFor(func() bool { return runtime.NumGoroutine() <= baseline }) {
		t.Errorf("%d goroutines after everything closed, %d before", runtime.NumGoroutine(), baseline)
	}

	// A restart under an open stream.
	n = NewMemNode("n1")
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	proc := serveNode(n, l)
	c3 := NewNodeClient("http://"+addr, fastOpts())
	defer c3.Close()
	dev, err = c3.CreateDevice("d0", 4, 512)
	if err != nil {
		t.Fatal(err)
	}
	w := bytes.Repeat([]byte{0x5C}, 512)
	if err := dev.WriteStrip(2, w); err != nil {
		t.Fatal(err)
	}
	proc.kill() // ends the stream's connection with the process
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		if l, err = net.Listen("tcp", addr); err == nil || time.Now().After(deadline) {
			break
		}
	}
	if err != nil {
		t.Fatalf("rebind %s: %v", addr, err)
	}
	defer serveNode(n, l).kill()
	before := c3.Stats()
	got := make([]byte, 512)
	if err := dev.ReadStrip(2, got); err != nil || !bytes.Equal(got, w) {
		t.Fatalf("read after the restart: %v", err)
	}
	after := c3.Stats()
	if after.StreamOpens != before.StreamOpens+1 || after.Retries != before.Retries+1 || c3.Down() {
		t.Errorf("read after the restart: %+v, was %+v (down %v); want one retry on one new stream", after, before, c3.Down())
	}
}

// TestStreamShutdown: an http.Server's Shutdown — what oiraidd -node runs on
// SIGINT — ends the upgraded streams that came through it, idle or not,
// although the server no longer knows their connections, and leaves nothing
// running once the node is closed.
func TestStreamShutdown(t *testing.T) {
	baseline := runtime.NumGoroutine()
	n := NewMemNode("n0")
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hsrv := &http.Server{Handler: n.Handler()}
	served := make(chan error, 1)
	go func() { served <- hsrv.Serve(l) }()
	c := NewNodeClient("http://"+l.Addr().String(), fastOpts())
	dev, err := c.CreateDevice("d0", 4, 512)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ { // overlapping reads: several streams kept idle
		wg.Add(1)
		go func() {
			defer wg.Done()
			dev.ReadStrip(int64(i), make([]byte, 512))
		}()
	}
	wg.Wait()
	if openStreams(n) == 0 {
		t.Fatal("no stream open before the shutdown")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	t0 := time.Now()
	if err := hsrv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if !waitFor(func() bool { return openStreams(n) == 0 }) || time.Since(t0) > time.Second {
		t.Errorf("%d streams open %v after Shutdown began, want none within 1s", openStreams(n), time.Since(t0))
	}
	if err := <-served; err != http.ErrServerClosed {
		t.Errorf("Serve: %v", err)
	}
	c.Close()
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	if !waitFor(func() bool { return runtime.NumGoroutine() <= baseline }) {
		t.Errorf("%d goroutines after the shutdown, %d before", runtime.NumGoroutine(), baseline)
	}
}

// TestStripRouteWantsUpgrade: a request to the strip route that does not ask
// for the upgrade, or asks for the codec's previous version, is answered 426,
// with the Upgrade it takes and the catalogue's code, which the client
// decodes into ErrNoUpgrade.
func TestStripRouteWantsUpgrade(t *testing.T) {
	_, srv := startNode(t, "n0")
	for _, upgrade := range []string{"", "oiraid-strips/3"} {
		req, err := http.NewRequest("POST", srv.URL+stripsPath, bytes.NewReader(encodeBatch(kindReadReq, fence{}, nil, nil)))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/octet-stream")
		if upgrade != "" {
			req.Header.Set("Connection", "Upgrade")
			req.Header.Set("Upgrade", upgrade)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusUpgradeRequired || resp.Header.Get("Upgrade") != stripsProto || resp.Header.Get(retry.Header) != "no-upgrade" {
			t.Errorf("a POST with Upgrade %q: %s, Upgrade %q, code %q; want 426, %q, no-upgrade", upgrade, resp.Status, resp.Header.Get("Upgrade"), resp.Header.Get(retry.Header), stripsProto)
		}
		if _, retryable, err := Catalogue.Decode(resp); !errors.Is(err, ErrNoUpgrade) || retryable {
			t.Errorf("Upgrade %q decoded: %v (retryable %v), want ErrNoUpgrade, not retryable", upgrade, err, retryable)
		}
		resp.Body.Close()
	}
}

// TestDialNodeWithoutUpgrade: a node that answers the upgrade with anything
// but 101 — one older than the upgraded streams answers 200 and holds its
// response open — fails the op with ErrNoUpgrade well within the attempt
// deadline, without a retry and without marking the node down.
func TestDialNodeWithoutUpgrade(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != stripsPath {
			NewMemNode("n0").Handler().ServeHTTP(w, r)
			return
		}
		w.WriteHeader(http.StatusOK)
		w.(http.Flusher).Flush()
		<-r.Context().Done()
	}))
	defer srv.Close()
	opts := fastOpts()
	opts.Timeout = 2 * time.Second
	c := NewNodeClient(srv.URL, opts)
	defer c.Close()
	t0 := time.Now()
	err := c.Device("d0", 4, 512).ReadStrip(0, make([]byte, 512))
	if took := time.Since(t0); !errors.Is(err, ErrNoUpgrade) || took > opts.Timeout/2 {
		t.Fatalf("read from a node that does not upgrade: %v after %v, want ErrNoUpgrade well within %v", err, took, opts.Timeout)
	}
	if st := c.Stats(); st.Attempts != 1 || st.StreamOpens != 0 || c.Down() {
		t.Errorf("%+v (down %v): want one attempt, no stream, the node up", st, c.Down())
	}
}
