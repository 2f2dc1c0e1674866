package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"syscall"
	"testing"
	"time"

	"github.com/oiraid/oiraid/internal/engine"
	"github.com/oiraid/oiraid/internal/store"
	"github.com/oiraid/oiraid/internal/store/netdev"
	"github.com/oiraid/oiraid/internal/testutil"
)

// testCluster is three mem-backed storage nodes behind fault-injecting
// transports, plus the coordinator options to mount across them.
type testCluster struct {
	nodes  []*netdev.Node
	srvs   []*httptest.Server
	faults map[string]*netdev.FaultTransport
	specs  []NodeSpec
	dir    string
}

func newTestCluster(t *testing.T, seed int64) *testCluster {
	t.Helper()
	tc := &testCluster{faults: map[string]*netdev.FaultTransport{}, dir: t.TempDir()}
	for i := 0; i < 3; i++ {
		id := []string{"alpha", "beta", "gamma"}[i]
		n := netdev.NewMemNode(id)
		srv := httptest.NewServer(n.Handler())
		t.Cleanup(srv.Close)
		tc.nodes = append(tc.nodes, n)
		tc.srvs = append(tc.srvs, srv)
		tc.specs = append(tc.specs, NodeSpec{ID: id, URL: srv.URL})
		tc.faults[id] = netdev.NewFaultTransport(nil, seed+int64(i))
	}
	return tc
}

func (tc *testCluster) options(seed int64) Options {
	return Options{
		Dir:   tc.dir,
		Nodes: tc.specs,
		Client: netdev.Options{
			Timeout:          400 * time.Millisecond,
			MaxAttempts:      3,
			BaseDelay:        time.Millisecond,
			MaxDelay:         5 * time.Millisecond,
			BreakerThreshold: 4,
			BreakerCooldown:  40 * time.Millisecond,
			ProbeInterval:    25 * time.Millisecond,
			Grace:            800 * time.Millisecond,
			Seed:             seed,
		},
		Engine: engine.Options{
			Workers: 4,
			Health: &engine.HealthPolicy{
				EvictAfter:        3,
				QuarantineProbe:   30 * time.Millisecond,
				QuarantineProbeOK: 2,
			},
		},
		Transport: func(n NodeSpec) http.RoundTripper {
			// A typed nil in the interface would panic in RoundTrip; nodes
			// without a registered fault transport get the default one.
			if f := tc.faults[n.ID]; f != nil {
				return f
			}
			return nil
		},
		Format: &FormatSpec{Disks: 9, Cycles: 2, StripBytes: 512},
	}
}

func TestClusterFormatMountRemount(t *testing.T) {
	tc := newTestCluster(t, 1)
	c, err := Open(tc.options(1))
	if err != nil {
		t.Fatalf("open: %v", err)
	}

	// Placement: round-robin, so each node holds a provably recoverable
	// disk set.
	for i, id := range []string{"alpha", "beta", "gamma"} {
		disks := c.DisksOn(id)
		want := []int{i, i + 3, i + 6}
		if len(disks) != 3 || disks[0] != want[0] || disks[1] != want[1] || disks[2] != want[2] {
			t.Fatalf("node %s holds %v, want %v", id, disks, want)
		}
	}

	data := make([]byte, 512)
	for s := int64(0); s < c.Eng.Strips(); s++ {
		for i := range data {
			data[i] = byte(int64(i) + s)
		}
		if err := c.Eng.WriteStrip(s, data); err != nil {
			t.Fatalf("write %d: %v", s, err)
		}
	}
	rep, err := c.Eng.Fsck(context.Background(), false)
	if err != nil {
		t.Fatalf("fsck: %v", err)
	}
	if !rep.Clean {
		t.Fatalf("fsck dirty after plain writes: %+v", rep)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// Remount from the persisted manifest + remote superblocks.
	opts := tc.options(2)
	opts.Format = nil
	c2, err := Open(opts)
	if err != nil {
		t.Fatalf("remount: %v", err)
	}
	defer c2.Close()
	if !c2.Mount.WasClean {
		t.Fatalf("remount did not see a clean seal")
	}
	got := make([]byte, 512)
	for s := int64(0); s < c2.Eng.Strips(); s++ {
		buf, err := c2.Eng.ReadStrip(s)
		if err != nil {
			t.Fatalf("read %d: %v", s, err)
		}
		for i := range got {
			got[i] = byte(int64(i) + s)
		}
		if !bytes.Equal(buf, got) {
			t.Fatalf("strip %d differs after remount", s)
		}
	}
}

// TestClusterFormatRefusesUnservableStrips: a strip too large for a batch
// message alone would format, then fail every strip write on the wire. The
// nodes refuse its device instead, so Open fails with ErrBadGeometry, no
// node is left holding a device, and a format with a strip that fits
// succeeds on the same nodes.
func TestClusterFormatRefusesUnservableStrips(t *testing.T) {
	tc := newTestCluster(t, 3)
	opts := tc.options(3)
	opts.Format = &FormatSpec{Disks: 9, Cycles: 1, StripBytes: 4 << 20}
	if c, err := Open(opts); !errors.Is(err, store.ErrBadGeometry) {
		if err == nil {
			c.Close()
		}
		t.Fatalf("open with 4 MiB strips: %v, want ErrBadGeometry", err)
	}
	for i, srv := range tc.srvs {
		cl := netdev.NewNodeClient(srv.URL, netdev.Options{Timeout: time.Second})
		st, err := cl.Stat()
		cl.Close()
		if err != nil || len(st.Devices) != 0 {
			t.Fatalf("node %s after the refused format: %d devices (%v)", tc.specs[i].ID, len(st.Devices), err)
		}
	}
	opts.Format = &FormatSpec{Disks: 9, Cycles: 1, StripBytes: 512}
	c, err := Open(opts)
	if err != nil {
		t.Fatalf("open with 512-byte strips after the refusal: %v", err)
	}
	c.Close()
}

// TestPlacementCensus runs the placement rule at format over three
// geometries and two to eight nodes, checks that it is disk d on node
// d mod N, and pins how many nodes hold a disk set the layout cannot
// recover from — losing any one of those nodes is beyond tolerance.
func TestPlacementCensus(t *testing.T) {
	lossy := map[int][]int{ // disks → lossy node sets for N = 2, 3, …, 8
		9:  {2, 0, 0, 0, 0, 0, 0},
		16: {2, 3, 0, 0, 0, 0, 0},
		25: {2, 3, 4, 0, 1, 2, 0},
	}
	for v, row := range lossy {
		an, err := analyzerFor(v)
		if err != nil {
			t.Fatal(err)
		}
		for i, want := range row {
			n := i + 2
			var nodes []NodeSpec
			for j := 0; j < n; j++ {
				nodes = append(nodes, NodeSpec{ID: fmt.Sprintf("n%d", j)})
			}
			sets := map[string][]int{}
			for d, p := range buildManifest(nodes, FormatSpec{Disks: v}).Disks {
				if p.Node != nodes[d%n].ID {
					t.Fatalf("v=%d N=%d: disk %d on %s, want %s", v, n, d, p.Node, nodes[d%n].ID)
				}
				sets[p.Node] = append(sets[p.Node], d)
			}
			got := 0
			for _, set := range sets {
				if !an.Recoverable(set) {
					got++
				}
			}
			if got != want {
				t.Errorf("v=%d N=%d: %d of %d node sets lossy, want %d", v, n, got, n, want)
			}
		}
	}
}

func TestClusterNodeLostHealsOntoSurvivors(t *testing.T) {
	tc := newTestCluster(t, 3)
	opts := tc.options(3)
	opts.Client.Grace = 300 * time.Millisecond
	c, err := Open(opts)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer c.Close()

	data := make([]byte, 512)
	for s := int64(0); s < c.Eng.Strips(); s++ {
		for i := range data {
			data[i] = byte(int64(i)*3 + s)
		}
		if err := c.Eng.WriteStrip(s, data); err != nil {
			t.Fatalf("write %d: %v", s, err)
		}
	}

	// Kill node beta for good: full partition, never lifted.
	tc.faults["beta"].SetPartition(netdev.PartDrop)

	// Drive ops until the grace window elapses, the client declares the
	// node lost, and the monitor evicts beta's disks; the heal loop then
	// provisions replacements on alpha/gamma and rebuilds.
	deadline := time.Now().Add(30 * time.Second)
	var sawUnreachable bool
	for time.Now().Before(deadline) {
		for s := int64(0); s < c.Eng.Strips(); s++ {
			c.Eng.ReadStrip(s)
		}
		if !sawUnreachable {
			for _, d := range c.Eng.Health().Disks {
				if d.UnreachableErrors > 0 {
					sawUnreachable = true
					break
				}
			}
		}
		st := c.Eng.Status()
		if len(c.DisksOn("beta")) == 0 && len(st.Failed) == 0 && !c.Eng.Rebuilding() {
			// Healed: every placement moved off beta, nothing degraded.
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if !c.Client("beta").Lost() {
		t.Fatalf("beta never declared lost")
	}
	c.Eng.RebuildWait()
	if st := c.Eng.Status(); len(st.Failed) != 0 {
		t.Fatalf("array still degraded after heal: %v", st.Failed)
	}

	// Every one of beta's disks must have moved to a surviving node.
	if moved := c.DisksOn("beta"); len(moved) != 0 {
		t.Fatalf("disks still placed on lost node: %v", moved)
	}
	man := c.ManifestSnapshot()
	for d, p := range man.Disks {
		if p.Node == "beta" {
			t.Fatalf("manifest still places disk %d on beta", d)
		}
		if !strings.HasPrefix(p.Device, "disk") {
			t.Fatalf("placement %d device %q", d, p.Device)
		}
	}

	// Data is bit-identical after the heal, reads served with beta gone.
	for s := int64(0); s < c.Eng.Strips(); s++ {
		buf, err := c.Eng.ReadStrip(s)
		if err != nil {
			t.Fatalf("read %d after heal: %v", s, err)
		}
		for i := range data {
			data[i] = byte(int64(i)*3 + s)
		}
		if !bytes.Equal(buf, data) {
			t.Fatalf("strip %d differs after heal", s)
		}
	}
	rep, err := c.Eng.Fsck(context.Background(), false)
	if err != nil || !rep.Clean {
		t.Fatalf("fsck after heal: %v %+v", err, rep)
	}
	// Unreachability was counted distinctly (sampled mid-partition —
	// adopt() resets counters when replacements take over).
	if !sawUnreachable {
		t.Fatalf("no unreachable errors recorded during partition")
	}
}

// sickDisk fails every read of its device strip 0 with the raw error a
// directory node's pread returns for a bad sector.
type sickDisk struct{ store.Device }

func (d sickDisk) ReadStrip(idx int64, p []byte) error {
	if idx == 0 {
		return fmt.Errorf("pread: %w", syscall.EIO)
	}
	return d.Device.ReadStrip(idx, p)
}

// TestClusterSickDiskLikeLocal: a disk whose device fails reads of one strip
// is the same disk behind a storage node as in a local array. The same
// writes fail on both, the health monitor evicts that disk once and heals
// it, the reads that follow are bit-identical, and the node serving the
// disk — reachable throughout — is never marked down.
func TestClusterSickDiskLikeLocal(t *testing.T) {
	const writes = 288
	an, err := analyzerFor(9)
	if err != nil {
		t.Fatal(err)
	}
	strips := 2 * int64(an.SlotsPerDisk())
	sick := func() store.Device {
		mem, err := store.NewMemDevice(strips, 512)
		if err != nil {
			t.Fatal(err)
		}
		return sickDisk{mem}
	}
	pattern := func(i int) []byte {
		p := make([]byte, 512)
		for j := range p {
			p[j] = byte(i*7 + j*13)
		}
		return p
	}
	// drive writes each strip once, waits for the heal, and reads every
	// strip back: a strip whose write succeeded must read what was written.
	drive := func(name string, eng *engine.Engine) (failed []int, reads [][]byte) {
		if eng.Strips() != writes {
			t.Fatalf("%s: %d strips, want %d", name, eng.Strips(), writes)
		}
		var first error
		for i := 0; i < writes; i++ {
			if err := eng.WriteStrip(int64(i), pattern(i)); err != nil {
				if first == nil {
					first = err
				}
				failed = append(failed, i)
				// The monitor queues an eviction and the healer takes the
				// disk out later. Wait for it, or how many more writes reach
				// the sick disk first is a matter of timing.
				deadline := time.Now().Add(5 * time.Second)
				for st := eng.Stats(); st.Evictions > 0 && st.AutoRebuilds == 0 && !slices.Contains(eng.Status().Failed, 0); st = eng.Stats() {
					if time.Now().After(deadline) {
						t.Fatalf("%s: eviction never acted on: %+v", name, st)
					}
					time.Sleep(time.Millisecond)
				}
			}
		}
		deadline := time.Now().Add(15 * time.Second)
		for st := eng.Status(); st.Evictions < 1 || len(st.Failed) > 0 || st.Rebuilding; st = eng.Status() {
			if time.Now().After(deadline) {
				t.Fatalf("%s: self-heal incomplete after %d of %d writes failed (first: %v): %+v", name, len(failed), writes, first, st)
			}
			time.Sleep(5 * time.Millisecond)
		}
		for i := 0; i < writes; i++ {
			got, err := eng.ReadStrip(int64(i))
			if err != nil {
				t.Fatalf("%s: read strip %d: %v", name, i, err)
			}
			if !slices.Contains(failed, i) && !bytes.Equal(got, pattern(i)) {
				t.Fatalf("%s: strip %d differs from what was written", name, i)
			}
			reads = append(reads, got)
		}
		if st := eng.Status(); st.Evictions != 1 || len(st.Down) != 0 {
			t.Errorf("%s: %d evictions, down %v; want 1 eviction, none down", name, st.Evictions, st.Down)
		}
		return failed, reads
	}

	tc := newTestCluster(t, 7)
	// Format creates disk00 on alpha idempotently, so the sick device
	// registered first is the one it adopts.
	tc.nodes[0].AddDevice("disk00", sick())
	c, err := Open(tc.options(7))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	remoteFailed, remoteReads := drive("cluster", c.Eng)
	if st := c.Client("alpha").Stats(); st.Downs != 0 {
		t.Errorf("alpha marked down %d time(s) for its disk's error", st.Downs)
	}

	devs := make([]store.Device, an.Disks())
	sbs := make([]store.Blob, an.Disks())
	for d := range devs {
		if d == 0 {
			devs[d] = sick()
		} else if devs[d], err = store.NewMemDevice(strips, 512); err != nil {
			t.Fatal(err)
		}
		sbs[d] = store.NewMemBlob()
	}
	mnt, err := store.FormatArray(an, devs, sbs, store.NewMemBlob(), store.NewMemBlob())
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engine.New(mnt.Array, tc.options(7).Engine)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	localFailed, localReads := drive("local", eng)

	t.Logf("failed writes: cluster %v, local %v", remoteFailed, localFailed)
	if len(localFailed) == 0 || !slices.Equal(remoteFailed, localFailed) {
		t.Errorf("failed writes: cluster %v, local %v; want the same, not none", remoteFailed, localFailed)
	}
	for i := range localReads {
		if !bytes.Equal(remoteReads[i], localReads[i]) {
			t.Errorf("strip %d reads differently from the cluster and the local array", i)
		}
	}
}

func TestClusterCloseLeavesNoGoroutines(t *testing.T) {
	tc := newTestCluster(t, 5)
	guard := testutil.NewLeakGuard()
	c, err := Open(tc.options(5))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	data := make([]byte, 512)
	for s := int64(0); s < 8; s++ {
		if err := c.Eng.WriteStrip(s, data); err != nil {
			t.Fatalf("write: %v", err)
		}
	}
	// Put one node into a down episode so its prober and callbacks are
	// live at Close time — the drain must reap them.
	tc.faults["gamma"].SetPartition(netdev.PartDrop)
	for s := int64(0); s < 8; s++ {
		c.Eng.ReadStrip(s)
	}
	// The seal cannot reach gamma's superblock, so Close reports the
	// unreachable write — but it must still drain and close every client.
	if err := c.Close(); err != nil && !errors.Is(err, store.ErrUnreachable) {
		t.Fatalf("close: %v", err)
	}
	guard.Check(t)
	if err := c.Eng.WriteStrip(0, data); !errors.Is(err, store.ErrClosed) && !errors.Is(err, engine.ErrClosed) {
		t.Fatalf("write after close: %v", err)
	}
}
