package netdev

import (
	"bytes"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/oiraid/oiraid/internal/retry"
	"github.com/oiraid/oiraid/internal/store"
)

// fastOpts is a client tuned for test speed: tight timeouts, quick
// breaker, quick probes.
func fastOpts() Options {
	return Options{
		Timeout:          500 * time.Millisecond,
		MaxAttempts:      3,
		BaseDelay:        time.Millisecond,
		MaxDelay:         5 * time.Millisecond,
		BreakerThreshold: 4,
		BreakerCooldown:  50 * time.Millisecond,
		ProbeInterval:    20 * time.Millisecond,
		Seed:             1,
	}
}

func startNode(t *testing.T, id string) (*Node, *httptest.Server) {
	t.Helper()
	n := NewMemNode(id)
	srv := httptest.NewServer(n.Handler())
	t.Cleanup(srv.Close)
	return n, srv
}

func TestNetDeviceRoundTrip(t *testing.T) {
	_, srv := startNode(t, "n0")
	c := NewNodeClient(srv.URL, fastOpts())
	defer c.Close()

	dev, err := c.CreateDevice("d0", 16, 512)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if dev.Strips() != 16 || dev.StripBytes() != 512 {
		t.Fatalf("geometry %dx%d", dev.Strips(), dev.StripBytes())
	}
	// Idempotent re-create with the same geometry.
	if _, err := c.CreateDevice("d0", 16, 512); err != nil {
		t.Fatalf("re-create: %v", err)
	}
	// Conflicting geometry is refused.
	if _, err := c.CreateDevice("d0", 8, 512); !errors.Is(err, store.ErrBadGeometry) {
		t.Fatalf("conflicting create: %v, want ErrBadGeometry", err)
	}

	w := bytes.Repeat([]byte{0x5A}, 512)
	for i := int64(0); i < 16; i++ {
		w[0] = byte(i)
		if err := dev.WriteStrip(i, w); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	r := make([]byte, 512)
	for i := int64(0); i < 16; i++ {
		if err := dev.ReadStrip(i, r); err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if r[0] != byte(i) || r[1] != 0x5A {
			t.Fatalf("strip %d content %x %x", i, r[0], r[1])
		}
	}

	// Rebind by inventory.
	st, err := c.Stat()
	if err != nil {
		t.Fatalf("stat: %v", err)
	}
	g := st.Devices["d0"]
	if err := c.Device("d0", g.Strips, g.StripBytes).ReadStrip(3, r); err != nil || r[0] != 3 {
		t.Fatalf("rebound read: %v %x", err, r[0])
	}
	if err := c.Device("nope", 16, 512).ReadStrip(0, r); !errors.Is(err, ErrNodeNotFound) {
		t.Fatalf("read of a missing device: %v", err)
	}

	// Sentinel taxonomy across the wire.
	if err := dev.ReadStrip(99, r); !errors.Is(err, store.ErrStripOutOfRange) {
		t.Fatalf("out of range: %v", err)
	}
	if err := dev.WriteStrip(0, r[:10]); !errors.Is(err, store.ErrShortBuffer) {
		t.Fatalf("short buffer: %v", err)
	}
}

func TestNetBlobRoundTrip(t *testing.T) {
	_, srv := startNode(t, "n0")
	c := NewNodeClient(srv.URL, fastOpts())
	defer c.Close()

	b, err := c.CreateBlob("sb0")
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if _, err := c.CreateBlob("sb0"); err != nil {
		t.Fatalf("idempotent create: %v", err)
	}
	if n, err := b.WriteAt([]byte("hello metadata plane"), 5); err != nil || n != 20 {
		t.Fatalf("write: %d %v", n, err)
	}
	if err := b.Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
	if size, err := b.Size(); err != nil || size != 25 {
		t.Fatalf("size: %d %v", size, err)
	}
	buf := make([]byte, 20)
	if n, err := b.ReadAt(buf, 5); err != nil || n != 20 || string(buf) != "hello metadata plane" {
		t.Fatalf("read: %d %v %q", n, err, buf)
	}
	// EOF semantics: prefix + io.EOF, exactly like os.File / MemBlob.
	n, err := b.ReadAt(buf, 15)
	if err != io.EOF || n != 10 {
		t.Fatalf("read past end: n=%d err=%v, want 10, EOF", n, err)
	}
	if string(buf[:n]) != "data plane" {
		t.Fatalf("tail content %q", buf[:n])
	}
	if n, err := b.ReadAt(buf, 100); err != io.EOF || n != 0 {
		t.Fatalf("read far past end: n=%d err=%v", n, err)
	}
	if err := b.Truncate(5); err != nil {
		t.Fatalf("truncate: %v", err)
	}
	if size, _ := b.Size(); size != 5 {
		t.Fatalf("size after truncate %d", size)
	}
	if _, err := c.Blob("missing").Size(); !errors.Is(err, ErrNodeNotFound) {
		t.Fatalf("size of a missing blob: %v", err)
	}
}

// genless drops the generation header, as an older node's blob reads do.
type genless struct{ http.ResponseWriter }

func (w genless) WriteHeader(code int) {
	w.Header().Del(genHeader)
	w.ResponseWriter.WriteHeader(code)
}

func (w genless) Write(p []byte) (int, error) {
	w.Header().Del(genHeader)
	return w.ResponseWriter.Write(p)
}

// A node that answers blob reads without a generation serves them at
// generation 0: a superblock read must not fail as a torn frame.
func TestNetBlobReadWithoutGenHeader(t *testing.T) {
	n := NewMemNode("n0")
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n.Handler().ServeHTTP(genless{w}, r)
	}))
	defer srv.Close()
	opts := fastOpts()
	opts.MaxAttempts = 1
	c := NewNodeClient(srv.URL, opts)
	defer c.Close()
	b, err := c.CreateBlob("sb00")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.WriteAt([]byte("superblock"), 0); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 10)
	if n, err := b.ReadAt(buf, 0); err != nil || string(buf[:n]) != "superblock" {
		t.Fatalf("read: %d %v %q", n, err, buf)
	}
	if raw, gen, err := b.ReadAll(); err != nil || gen != 0 || string(raw) != "superblock" {
		t.Fatalf("ReadAll: %q gen %d %v", raw, gen, err)
	}
}

func TestTornResponsesAreRetried(t *testing.T) {
	_, srv := startNode(t, "n0")
	ft := NewFaultTransport(nil, 7)
	opts := fastOpts()
	opts.Transport = ft
	c := NewNodeClient(srv.URL, opts)
	defer c.Close()

	dev, err := c.CreateDevice("d0", 8, 1024)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	w := bytes.Repeat([]byte{0xC3}, 1024)
	if err := dev.WriteStrip(0, w); err != nil {
		t.Fatalf("seed write: %v", err)
	}

	// Every second response arrives truncated; the frame checksum must
	// catch each one and the retry loop absorb it.
	ft.SetTorn(2)
	r := make([]byte, 1024)
	for i := 0; i < 10; i++ {
		if err := dev.ReadStrip(0, r); err != nil {
			t.Fatalf("read %d under torn responses: %v", i, err)
		}
		if !bytes.Equal(r, w) {
			t.Fatalf("read %d returned damaged data", i)
		}
	}
	if got := c.Stats().Retries; got == 0 {
		t.Fatalf("no retries recorded under torn responses")
	}
}

func TestPartitionUnreachableThenRecovery(t *testing.T) {
	_, srv := startNode(t, "n0")
	ft := NewFaultTransport(nil, 3)
	opts := fastOpts()
	var downs, ups atomic.Int64
	opts.OnDown = func() { downs.Add(1) }
	opts.OnUp = func() { ups.Add(1) }
	opts.Transport = ft
	c := NewNodeClient(srv.URL, opts)
	defer c.Close()

	dev, err := c.CreateDevice("d0", 8, 256)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	buf := make([]byte, 256)
	if err := dev.WriteStrip(1, buf); err != nil {
		t.Fatalf("write: %v", err)
	}

	ft.SetPartition(PartDrop)
	err = dev.ReadStrip(1, buf)
	if !errors.Is(err, store.ErrUnreachable) {
		t.Fatalf("partitioned read: %v, want ErrUnreachable", err)
	}
	// ErrUnreachable is transient (retry layers back off) but the
	// classification matters: it must NOT be permanent.
	if !store.IsTransient(err) || errors.Is(err, store.ErrPermanent) {
		t.Fatalf("unreachable classified wrong: %v", err)
	}
	if !c.Down() {
		t.Fatalf("client not marked down")
	}

	// The breaker opens under sustained failure: later ops fail fast,
	// still classified unreachable, quoting the one circuit-open sentinel.
	var refused int
	for i := 0; i < 6; i++ {
		err := dev.ReadStrip(1, buf)
		if !errors.Is(err, store.ErrUnreachable) {
			t.Fatalf("read under open breaker: %v, want ErrUnreachable", err)
		}
		if strings.Contains(err.Error(), retry.ErrCircuitOpen.Error()) {
			refused++
		}
	}
	if c.Stats().BreakerFastFails == 0 || refused == 0 {
		t.Fatalf("breaker never fast-failed under partition (%d refusals seen)", refused)
	}

	// Lift the partition: the background prober notices and OnUp fires
	// without any foreground traffic.
	ft.SetPartition(PartNone)
	deadline := time.Now().Add(5 * time.Second)
	for c.Down() && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if c.Down() {
		t.Fatalf("client still down after partition lifted")
	}
	if err := dev.ReadStrip(1, buf); err != nil {
		t.Fatalf("read after recovery: %v", err)
	}
	if downs.Load() == 0 || ups.Load() == 0 {
		t.Fatalf("callbacks: downs=%d ups=%d", downs.Load(), ups.Load())
	}
}

func TestAsymmetricPartitionWritesLandUnacked(t *testing.T) {
	n, srv := startNode(t, "n0")
	ft := NewFaultTransport(nil, 5)
	opts := fastOpts()
	opts.Transport = ft
	c := NewNodeClient(srv.URL, opts)
	defer c.Close()

	dev, err := c.CreateDevice("d0", 4, 128)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	w := bytes.Repeat([]byte{0x11}, 128)

	ft.SetPartition(PartAsym)
	if err := dev.WriteStrip(2, w); !errors.Is(err, store.ErrUnreachable) {
		t.Fatalf("asym write: %v, want ErrUnreachable", err)
	}
	// The write executed server-side even though the client saw failure.
	inner := n.devs["d0"]
	got := make([]byte, 128)
	if err := inner.ReadStrip(2, got); err != nil {
		t.Fatalf("server-side read: %v", err)
	}
	if !bytes.Equal(got, w) {
		t.Fatalf("write did not land server-side")
	}
	// Idempotent re-send after the partition heals converges to acked.
	ft.SetPartition(PartNone)
	if err := dev.WriteStrip(2, w); err != nil {
		t.Fatalf("re-send: %v", err)
	}
}

func TestGraceWindowEscalatesToLost(t *testing.T) {
	_, srv := startNode(t, "n0")
	ft := NewFaultTransport(nil, 9)
	opts := fastOpts()
	opts.Grace = 150 * time.Millisecond
	opts.Transport = ft
	c := NewNodeClient(srv.URL, opts)
	defer c.Close()

	dev, err := c.CreateDevice("d0", 4, 128)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	buf := make([]byte, 128)

	ft.SetPartition(PartDrop)
	if err := dev.ReadStrip(0, buf); !errors.Is(err, store.ErrUnreachable) {
		t.Fatalf("within grace: %v, want ErrUnreachable", err)
	}
	if c.Lost() {
		t.Fatalf("lost before grace elapsed")
	}
	time.Sleep(200 * time.Millisecond)
	err = dev.ReadStrip(0, buf)
	if !errors.Is(err, ErrNodeLost) || !errors.Is(err, store.ErrPermanent) {
		t.Fatalf("past grace: %v, want ErrNodeLost wrapping ErrPermanent", err)
	}
	if !c.Lost() {
		t.Fatalf("client not marked lost")
	}
	// Lost is terminal: even with the partition lifted, the node stays
	// dead to this client (its disks are being rebuilt elsewhere).
	ft.SetPartition(PartNone)
	time.Sleep(50 * time.Millisecond)
	if err := dev.ReadStrip(0, buf); !errors.Is(err, ErrNodeLost) {
		t.Fatalf("after lift: %v, want ErrNodeLost", err)
	}
}

// TestProberLossFiresOnDown: a node the prober declares lost, with no
// operation in flight to carry ErrNodeLost, is announced through OnDown
// once more — the coordinator's only news of the loss on an idle array.
func TestProberLossFiresOnDown(t *testing.T) {
	_, srv := startNode(t, "n0")
	ft := NewFaultTransport(nil, 13)
	opts := fastOpts()
	opts.Grace = 100 * time.Millisecond
	opts.Transport = ft
	calls := make(chan bool, 4)
	var c *NodeClient
	opts.OnDown = func() { calls <- c.Lost() }
	c = NewNodeClient(srv.URL, opts)
	defer c.Close()
	dev, err := c.CreateDevice("d0", 4, 128)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	ft.SetPartition(PartDrop)
	if err := dev.ReadStrip(0, make([]byte, 128)); !errors.Is(err, store.ErrUnreachable) {
		t.Fatalf("partitioned read: %v, want ErrUnreachable", err)
	}
	for i, wantLost := range []bool{false, true} {
		select {
		case lost := <-calls:
			if lost != wantLost {
				t.Fatalf("OnDown call %d saw Lost() = %v, want %v", i+1, lost, wantLost)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("OnDown call %d never came", i+1)
		}
	}
	select {
	case <-calls:
		t.Fatal("OnDown fired a third time")
	case <-time.After(4 * opts.ProbeInterval):
	}
}

func TestWrongNodeIdentityIsPermanent(t *testing.T) {
	_, srv := startNode(t, "actually-n1")
	opts := fastOpts()
	opts.ExpectID = "n0"
	c := NewNodeClient(srv.URL, opts)
	defer c.Close()
	if err := c.Ping(); !errors.Is(err, ErrWrongNode) || !errors.Is(err, store.ErrPermanent) {
		t.Fatalf("wrong node: %v, want ErrWrongNode (permanent)", err)
	}
}

func TestPermanentMediaErrorPassesThrough(t *testing.T) {
	n, srv := startNode(t, "n0")
	// A reachable node whose local disk is dying: the client must see a
	// permanent DEVICE error (evict that disk), not unreachability.
	inner, _ := store.NewMemDevice(8, 256)
	fd := store.NewFaultDevice(inner, store.FaultConfig{Seed: 1})
	fd.FailNow()
	n.AddDevice("sick", fd)

	c := NewNodeClient(srv.URL, fastOpts())
	defer c.Close()
	buf := make([]byte, 256)
	err := c.Device("sick", 8, 256).ReadStrip(0, buf)
	if !errors.Is(err, store.ErrPermanent) {
		t.Fatalf("sick disk: %v, want ErrPermanent", err)
	}
	if errors.Is(err, store.ErrUnreachable) || c.Down() {
		t.Fatalf("media failure misclassified as network failure (down=%v)", c.Down())
	}
}

func TestNodeRestartKeepsMedia(t *testing.T) {
	n := NewMemNode("n0")
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	hsrv := &http.Server{Handler: n.Handler()}
	go hsrv.Serve(l)

	opts := fastOpts()
	c := NewNodeClient("http://"+addr, opts)
	defer c.Close()
	dev, err := c.CreateDevice("d0", 4, 128)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	w := bytes.Repeat([]byte{0x77}, 128)
	if err := dev.WriteStrip(0, w); err != nil {
		t.Fatalf("write: %v", err)
	}

	// Kill the node process (the media — the Node — survives).
	hsrv.Close()
	buf := make([]byte, 128)
	if err := dev.ReadStrip(0, buf); !errors.Is(err, store.ErrUnreachable) {
		t.Fatalf("down read: %v, want ErrUnreachable", err)
	}

	// Restart on the same address; the port was just freed by us, so
	// retry binding briefly.
	var l2 net.Listener
	deadline := time.Now().Add(5 * time.Second)
	for {
		l2, err = net.Listen("tcp", addr)
		if err == nil || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("rebind %s: %v", addr, err)
	}
	hsrv2 := &http.Server{Handler: n.Handler()}
	go hsrv2.Serve(l2)
	defer hsrv2.Close()

	deadline = time.Now().Add(5 * time.Second)
	for c.Down() && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if err := dev.ReadStrip(0, buf); err != nil {
		t.Fatalf("read after restart: %v", err)
	}
	if !bytes.Equal(buf, w) {
		t.Fatalf("data lost across restart")
	}
}

func TestClientCloseDrains(t *testing.T) {
	_, srv := startNode(t, "n0")
	ft := NewFaultTransport(nil, 2)
	opts := fastOpts()
	released := make(chan struct{})
	opts.OnDown = func() { <-released }
	opts.Transport = ft
	c := NewNodeClient(srv.URL, opts)

	dev, err := c.CreateDevice("d0", 4, 64)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	ft.SetPartition(PartDrop)
	buf := make([]byte, 64)
	dev.ReadStrip(0, buf) // starts prober + OnDown callback

	closed := make(chan struct{})
	go func() {
		c.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatalf("Close returned while OnDown callback still running")
	case <-time.After(100 * time.Millisecond):
	}
	close(released)
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatalf("Close did not return after callbacks drained")
	}
	if err := dev.ReadStrip(0, buf); !errors.Is(err, store.ErrClosed) {
		t.Fatalf("op after close: %v, want ErrClosed", err)
	}
}

func TestDirNodePersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	n1, err := NewDirNode("n0", dir)
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	srv := httptest.NewServer(n1.Handler())
	c := NewNodeClient(srv.URL, fastOpts())
	dev, err := c.CreateDevice("d0", 4, 128)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	w := bytes.Repeat([]byte{0x42}, 128)
	if err := dev.WriteStrip(1, w); err != nil {
		t.Fatalf("write: %v", err)
	}
	if _, err := c.CreateBlob("sb0"); err != nil {
		t.Fatalf("blob: %v", err)
	}
	c.Close()
	srv.Close()
	if err := n1.Close(); err != nil {
		t.Fatalf("close node: %v", err)
	}

	n2, err := NewDirNode("n0", dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer n2.Close()
	srv2 := httptest.NewServer(n2.Handler())
	defer srv2.Close()
	c2 := NewNodeClient(srv2.URL, fastOpts())
	defer c2.Close()
	st, err := c2.Stat()
	if err != nil {
		t.Fatalf("stat after reopen: %v", err)
	}
	if g := st.Devices["d0"]; g != (DeviceStat{Strips: 4, StripBytes: 128}) {
		t.Fatalf("device across reopen: %+v", g)
	}
	buf := make([]byte, 128)
	if err := c2.Device("d0", 4, 128).ReadStrip(1, buf); err != nil || !bytes.Equal(buf, w) {
		t.Fatalf("data across reopen: %v", err)
	}
	if _, ok := st.Blobs["sb0"]; !ok {
		t.Fatalf("blob across reopen: %+v", st.Blobs)
	}
}
