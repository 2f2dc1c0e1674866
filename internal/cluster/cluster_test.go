package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
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
