package netdev

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
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

// nodeProcess is a node served on a listener the way an oiraidd -node
// process serves it, with the connections its server accepted tracked through
// ConnState.
type nodeProcess struct {
	srv   *http.Server
	mu    sync.Mutex
	conns map[net.Conn]struct{}
}

func serveNode(n *Node, l net.Listener) *nodeProcess {
	p := &nodeProcess{conns: map[net.Conn]struct{}{}}
	p.srv = &http.Server{Handler: n.Handler(), ConnState: func(c net.Conn, s http.ConnState) {
		p.mu.Lock()
		defer p.mu.Unlock()
		switch s {
		case http.StateNew:
			p.conns[c] = struct{}{}
		case http.StateClosed:
			delete(p.conns, c)
		}
	}}
	go p.srv.Serve(l)
	return p
}

// kill ends the process's sockets as its death would: the listener and every
// connection the server accepted close, the strip streams the node took over
// included — http.Server.Close alone leaves a hijacked connection open. The
// Node, the media, survives.
func (p *nodeProcess) kill() {
	p.srv.Close()
	p.mu.Lock()
	defer p.mu.Unlock()
	for c := range p.conns {
		c.Close()
	}
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

// TestNetBlobLargeInChunks: a blob op larger than one message is cut into
// chunks under the message cap — a 5 MiB blob is written in two messages and
// read back by ReadAll in two — and a ReadAt that spans chunks sees the same
// bytes.
func TestNetBlobLargeInChunks(t *testing.T) {
	_, srv := startNode(t, "n0")
	c := NewNodeClient(srv.URL, fastOpts())
	defer c.Close()
	b, err := c.CreateBlob("big")
	if err != nil {
		t.Fatal(err)
	}
	want := make([]byte, 5<<20)
	rand.New(rand.NewSource(3)).Read(want)
	msgs := func() int64 { return c.Stats().BlobMessages }
	before := msgs()
	if n, err := b.WriteAt(want, 0); err != nil || n != len(want) {
		t.Fatalf("write of 5 MiB: %d, %v", n, err)
	}
	if got := msgs() - before; got != 2 {
		t.Errorf("a 5 MiB write took %d messages, want 2", got)
	}
	before = msgs()
	got, gen, err := b.ReadAll()
	if err != nil || gen != 0 || !bytes.Equal(got, want) {
		t.Fatalf("ReadAll of 5 MiB: %d bytes at gen %d, %v", len(got), gen, err)
	}
	if got := msgs() - before; got != 2 {
		t.Errorf("ReadAll of 5 MiB took %d messages, want 2", got)
	}
	p := make([]byte, 9<<19)
	if n, err := b.ReadAt(p, 1<<19); err != nil || n != len(p) || !bytes.Equal(p, want[1<<19:]) {
		t.Fatalf("ReadAt of the last 4.5 MiB: %d, %v", n, err)
	}
	if n, err := b.ReadAt(p, 1<<20); err != io.EOF || n != 4<<20 || !bytes.Equal(p[:n], want[1<<20:]) {
		t.Fatalf("ReadAt past the end: %d, %v; want 4 MiB and EOF", n, err)
	}
}

// BenchmarkNetBlob is one blob op against an in-process node over a loopback
// stream — a superblock-sized write, a sync, a create: the ops a format and an
// HA coordinator's journal appends are made of.
func BenchmarkNetBlob(b *testing.B) {
	srv := httptest.NewServer(NewMemNode("n0").Handler())
	defer srv.Close()
	c := NewNodeClient(srv.URL, Options{})
	defer c.Close()
	blob, err := c.CreateBlob("sb00")
	if err != nil {
		b.Fatal(err)
	}
	p := make([]byte, 512)
	for _, op := range []struct {
		name string
		do   func(i int) error
	}{
		{"write", func(int) error { _, err := blob.WriteAt(p, 0); return err }},
		{"sync", func(int) error { return blob.Sync() }},
		{"create", func(i int) error { _, err := c.CreateBlob("sb" + strconv.Itoa(i)); return err }},
	} {
		b.Run(op.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := op.do(i); err != nil {
					b.Fatal(err)
				}
			}
		})
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
	b, err := c.CreateBlob("sb0")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.WriteAt([]byte("superblock"), 0); err != nil {
		t.Fatal(err)
	}

	// Every second answer arrives truncated — to a strip message, a blob
	// read's message or an inventory read's message; the codec's checksum
	// must catch each one and the retry loop absorb it.
	ft.SetTorn(2)
	r := make([]byte, 1024)
	for i := 0; i < 10; i++ {
		if st, err := c.Stat(); err != nil || st.Devices["d0"].Strips != 8 {
			t.Fatalf("stat %d under torn responses: %+v, %v", i, st, err)
		}
		if err := dev.ReadStrip(0, r); err != nil {
			t.Fatalf("read %d under torn responses: %v", i, err)
		}
		if !bytes.Equal(r, w) {
			t.Fatalf("read %d returned damaged data", i)
		}
		sb := make([]byte, 10)
		if n, err := b.ReadAt(sb, 0); err != nil || string(sb[:n]) != "superblock" {
			t.Fatalf("blob read %d under torn responses: %q, %v", i, sb[:n], err)
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
	// ErrUnreachable is transient (the wire client backs off) but the
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

// eioDevice fails every read of one strip with the raw error a directory
// node's pread returns for a bad sector; the rest of the device is healthy.
type eioDevice struct {
	store.Device
	bad int64
}

func (d eioDevice) ReadStrip(idx int64, p []byte) error {
	if idx == d.bad {
		return fmt.Errorf("pread: %w", syscall.EIO)
	}
	return d.Device.ReadStrip(idx, p)
}

// TestDeviceErrorLandsOnItsOp: a node's device that answers an op with an
// error of its own — a raw I/O error, or store.ErrTransient — fails that op
// alone, as the same device would in a local array. The message's other ops
// succeed, the message is not sent again, and the node is not marked down:
// the wire is fine, so the error must count against the disk, not the node.
func TestDeviceErrorLandsOnItsOp(t *testing.T) {
	for _, tc := range []struct {
		name string
		sick func(store.Device) store.Device
		want func(error) bool
	}{
		{"raw", func(d store.Device) store.Device { return eioDevice{Device: d, bad: 0} },
			func(err error) bool {
				return strings.Contains(err.Error(), "input/output error") && !store.IsTransient(err)
			}},
		{"transient", func(d store.Device) store.Device {
			f := store.NewFaultDevice(d, store.FaultConfig{Seed: 1})
			f.Inject(0, store.FaultTransient)
			return f
		}, store.IsTransient},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n, srv := startNode(t, "n0")
			sick, _ := store.NewMemDevice(8, 256)
			well, _ := store.NewMemDevice(8, 256)
			for i := int64(0); i < 8; i++ {
				sick.WriteStrip(i, stripOf(0x51, i, 256))
				well.WriteStrip(i, stripOf(0x77, i, 256))
			}
			n.AddDevice("sick", tc.sick(sick))
			n.AddDevice("well", well)

			c := NewNodeClient(srv.URL, fastOpts())
			defer c.Close()
			sd, wd := c.Device("sick", 8, 256), c.Device("well", 8, 256)
			ops := []store.StripOp{{Dev: sd, Idx: 0}, {Dev: sd, Idx: 1}, {Dev: wd, Idx: 0}, {Dev: wd, Idx: 5}}
			for i := range ops {
				ops[i].Buf = make([]byte, 256)
			}
			sd.ReadStrips(context.Background(), ops)

			if err := ops[0].Err; err == nil || errors.Is(err, store.ErrUnreachable) || !tc.want(err) {
				t.Errorf("sick op: %v, want the device's own error, not ErrUnreachable", err)
			}
			for i, want := range [][]byte{nil, stripOf(0x51, 1, 256), stripOf(0x77, 0, 256), stripOf(0x77, 5, 256)} {
				if i > 0 && (ops[i].Err != nil || !bytes.Equal(ops[i].Buf, want)) {
					t.Errorf("healthy op %d: %v (content equal %v)", i, ops[i].Err, bytes.Equal(ops[i].Buf, want))
				}
			}
			if st := c.Stats(); st.Attempts != 1 || st.Downs != 0 || st.ReadMessages != 1 || c.Down() {
				t.Errorf("a device error cost %d attempt(s) in %d message(s), %d down(s), down now %v; want 1, 1, 0, false",
					st.Attempts, st.ReadMessages, st.Downs, c.Down())
			}
		})
	}
}

func TestNodeRestartKeepsMedia(t *testing.T) {
	n := NewMemNode("n0")
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	proc := serveNode(n, l)

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
	proc.kill()
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
	defer serveNode(n, l2).kill()

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
