package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/oiraid/oiraid/internal/engine"
	"github.com/oiraid/oiraid/internal/store"
	"github.com/oiraid/oiraid/internal/store/netdev"
)

// addNode boots one more mem-backed storage node (with its own fault
// transport) that a test can AddNode into a running cluster.
func (tc *testCluster) addNode(t *testing.T, seed int64, id string) NodeSpec {
	t.Helper()
	n := netdev.NewMemNode(id)
	srv := httptest.NewServer(n.Handler())
	t.Cleanup(srv.Close)
	tc.nodes = append(tc.nodes, n)
	tc.srvs = append(tc.srvs, srv)
	tc.faults[id] = netdev.NewFaultTransport(nil, seed+int64(len(tc.faults)))
	return NodeSpec{ID: id, URL: srv.URL}
}

// preload writes a deterministic pattern to every strip and returns a
// verifier that re-derives and compares it.
func preload(t *testing.T, c *Cluster, seed int64) func(*Cluster, string) {
	t.Helper()
	data := make([]byte, 512)
	for s := int64(0); s < c.Eng.Strips(); s++ {
		for i := range data {
			data[i] = byte(int64(i)*seed + s)
		}
		if err := c.Eng.WriteStrip(s, data); err != nil {
			t.Fatalf("preload %d: %v", s, err)
		}
	}
	return func(c *Cluster, when string) {
		t.Helper()
		got := make([]byte, 512)
		for s := int64(0); s < c.Eng.Strips(); s++ {
			buf, err := c.Eng.ReadStrip(s)
			if err != nil {
				t.Fatalf("%s: read %d: %v", when, s, err)
			}
			for i := range got {
				got[i] = byte(int64(i)*seed + s)
			}
			if !bytes.Equal(buf, got) {
				t.Fatalf("%s: strip %d differs", when, s)
			}
		}
		rep, err := c.Eng.Fsck(context.Background(), false)
		if err != nil || !rep.Clean {
			t.Fatalf("%s: fsck: %v %+v", when, err, rep)
		}
	}
}

// TestClusterAddNodeRebalances: joining a fourth node migrates disks
// from the most-loaded nodes until the spread is ≤ 1, data stays
// bit-exact through the moves, and the grown membership survives a
// remount from the persisted manifest.
func TestClusterAddNodeRebalances(t *testing.T) {
	tc := newTestCluster(t, 21)
	delta := tc.addNode(t, 21, "delta")
	c, err := Open(tc.options(21))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	verify := preload(t, c, 21)

	rep, err := c.AddNode(delta)
	if err != nil {
		t.Fatalf("add node: %v", err)
	}
	// 9 disks over 4 nodes: two moves reach the ≤1 spread (2,2,3,2).
	if len(rep.Moved) != 2 || rep.Moved[0] != 6 || rep.Moved[1] != 7 {
		t.Fatalf("moved %v, want [6 7]", rep.Moved)
	}
	if got := c.DisksOn("delta"); len(got) != 2 {
		t.Fatalf("delta holds %v", got)
	}
	man := c.ManifestSnapshot()
	if len(man.Nodes) != 4 {
		t.Fatalf("manifest nodes %v", man.Nodes)
	}
	load := map[string]int{}
	for _, p := range man.Disks {
		load[p.Node]++
	}
	for id, n := range load {
		if n < 2 || n > 3 {
			t.Fatalf("node %s holds %d disks after rebalance: %v", id, n, load)
		}
	}
	if migs := c.Migrations(); len(migs) != 0 {
		t.Fatalf("migration records left behind: %+v", migs)
	}
	for _, ni := range c.NodeStatus() {
		if ni.State != "ok" {
			t.Fatalf("node %s state %q after add", ni.ID, ni.State)
		}
	}
	if _, err := c.AddNode(delta); err == nil || !strings.Contains(err.Error(), "already a member") {
		t.Fatalf("duplicate add: %v", err)
	}
	verify(c, "after add")
	if err := c.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// Remount: the manifest carries the 4-node membership and the moved
	// placements; the mount must assemble from them.
	opts := tc.options(22)
	opts.Format = nil
	c2, err := Open(opts)
	if err != nil {
		t.Fatalf("remount: %v", err)
	}
	defer c2.Close()
	if got := c2.DisksOn("delta"); len(got) != 2 {
		t.Fatalf("delta holds %v after remount", got)
	}
	verify(c2, "after remount")
}

// TestClusterDrainNode: draining migrates every disk off the node,
// removes it from the membership, and reclaims its media.
func TestClusterDrainNode(t *testing.T) {
	tc := newTestCluster(t, 23)
	c, err := Open(tc.options(23))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer c.Close()
	verify := preload(t, c, 23)

	rep, err := c.DrainNode("beta")
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	if len(rep.Moved) != 3 || rep.Moved[0] != 1 || rep.Moved[1] != 4 || rep.Moved[2] != 7 {
		t.Fatalf("moved %v, want beta's disks [1 4 7]", rep.Moved)
	}
	if got := c.DisksOn("beta"); len(got) != 0 {
		t.Fatalf("beta still holds %v", got)
	}
	man := c.ManifestSnapshot()
	if len(man.Nodes) != 2 {
		t.Fatalf("membership after drain: %v", man.Nodes)
	}
	for _, n := range man.Nodes {
		if n.ID == "beta" {
			t.Fatalf("beta still a member")
		}
	}
	if st := c.NodeStatus(); len(st) != 2 {
		t.Fatalf("node status after drain: %+v", st)
	}
	// The drained node's media was reclaimed: nothing left to leak.
	cl := netdev.NewNodeClient(tc.srvs[1].URL, netdev.Options{Timeout: time.Second})
	defer cl.Close()
	nst, err := cl.Stat()
	if err != nil {
		t.Fatalf("stat beta: %v", err)
	}
	if len(nst.Devices) != 0 || len(nst.Blobs) != 0 {
		t.Fatalf("beta media not reclaimed: %d devices, %d blobs", len(nst.Devices), len(nst.Blobs))
	}
	if _, err := c.DrainNode("beta"); err == nil || !strings.Contains(err.Error(), "unknown node") {
		t.Fatalf("double drain: %v", err)
	}
	verify(c, "after drain")
}

// TestMigrationHealsCorruptSource: a latent sector error on the disk being
// moved — a strip overwritten on the node behind the coordinator's back —
// is caught by the copy's checksum, healed from parity on the source and
// copied healed; it does not abort the drain.
func TestMigrationHealsCorruptSource(t *testing.T) {
	tc := newTestCluster(t, 27)
	c, err := Open(tc.options(27))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer c.Close()
	verify := preload(t, c, 27)

	cl := netdev.NewNodeClient(tc.srvs[1].URL, netdev.Options{Timeout: time.Second})
	defer cl.Close()
	nst, err := cl.Stat()
	if err != nil {
		t.Fatalf("stat beta: %v", err)
	}
	g := nst.Devices["disk01"]
	if err := cl.Device("disk01", g.Strips, g.StripBytes).WriteStrip(5, bytes.Repeat([]byte{0xBD}, 512)); err != nil {
		t.Fatalf("corrupt strip 5 of disk 1: %v", err)
	}

	if _, err := c.DrainNode("beta"); err != nil {
		t.Fatalf("drain over a corrupt source strip: %v", err)
	}
	if st := c.Eng.Array().Stats(); st.CorruptStrips < 1 || st.ReadRepairs < 1 {
		t.Fatalf("stats after the drain %+v, want the corrupt strip counted and repaired", st)
	}
	verify(c, "after drain")
}

// TestClusterDrainNodeLargeStrips: a disk whose cycle is larger than any one
// message may be (36 strips of 512 KiB) still migrates — the copy travels in
// windows, a strip of this size alone.
func TestClusterDrainNodeLargeStrips(t *testing.T) {
	const stripBytes = 512 << 10
	tc := newTestCluster(t, 29)
	opts := tc.options(29)
	opts.Client.Timeout = 5 * time.Second
	opts.Format = &FormatSpec{Disks: 9, Cycles: 1, StripBytes: stripBytes}
	c, err := Open(opts)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer c.Close()
	want := make([]byte, stripBytes)
	for i := range want {
		want[i] = byte(i * 29)
	}
	for s := int64(0); s < 4; s++ {
		if err := c.Eng.WriteStrip(s, want); err != nil {
			t.Fatalf("write %d: %v", s, err)
		}
	}
	rep, err := c.DrainNode("beta")
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	if len(rep.Moved) != 3 || len(c.DisksOn("beta")) != 0 {
		t.Fatalf("moved %v, beta still holds %v", rep.Moved, c.DisksOn("beta"))
	}
	for s := int64(0); s < 4; s++ {
		if got, err := c.Eng.ReadStrip(s); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("strip %d after the drain: %v", s, err)
		}
	}
	if frep, err := c.Eng.Fsck(context.Background(), false); err != nil || !frep.Clean {
		t.Fatalf("fsck after the drain: %v %+v", err, frep)
	}
}

// TestMigrationParksOnUnreachableDestination: a destination that cannot be
// reached when the migration creates its device parks the migration — the
// record stays committed at cursor 0 and the source placement stays
// authoritative — and the next open resumes it to completion.
func TestMigrationParksOnUnreachableDestination(t *testing.T) {
	tc := newTestCluster(t, 43)
	c, err := Open(tc.options(43))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	verify := preload(t, c, 43)
	src := c.ManifestSnapshot().Disks[1]

	// Draining beta sends its first disk to alpha, the least-loaded
	// eligible node; alpha stops answering before anything reaches it.
	tc.faults["alpha"].SetPartition(netdev.PartDrop)
	if _, err := c.DrainNode("beta"); !errors.Is(err, errMigrationParked) || !errors.Is(err, store.ErrUnreachable) {
		t.Fatalf("drain onto an unreachable destination = %v, want a parked migration", err)
	}
	migs := c.Migrations()
	if len(migs) != 1 || migs[0].Disk != 1 || migs[0].From != "beta" || migs[0].To != "alpha" || migs[0].Cursor != 0 {
		t.Fatalf("migrations after the park: %+v, want disk 1 beta→alpha at cursor 0", migs)
	}
	if got := c.ManifestSnapshot().Disks[1]; got != src {
		t.Fatalf("disk 1 placement %+v after the park, want the source %+v", got, src)
	}

	tc.faults["alpha"].SetPartition(netdev.PartNone)
	deadline := time.Now().Add(10 * time.Second)
	for c.Client("alpha").Down() && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("close with a parked migration: %v", err)
	}

	opts := tc.options(44)
	opts.Format = nil
	c2, err := Open(opts)
	if err != nil {
		t.Fatalf("remount: %v", err)
	}
	defer c2.Close()
	for time.Now().Before(deadline) && (len(c2.Migrations()) != 0 || c2.ManifestSnapshot().Disks[1].Node != "alpha") {
		time.Sleep(10 * time.Millisecond)
	}
	if migs := c2.Migrations(); len(migs) != 0 {
		t.Fatalf("migration records left after the resume: %+v", migs)
	}
	if got := c2.ManifestSnapshot().Disks[1]; got.Node != "alpha" || got == src {
		t.Fatalf("disk 1 at %+v after the resume, want it moved to alpha", got)
	}
	nst, err := c2.Client("beta").Stat()
	if err != nil {
		t.Fatalf("stat beta: %v", err)
	}
	if _, ok := nst.Devices[src.Device]; ok {
		t.Fatalf("source device %s not reclaimed from beta", src.Device)
	}
	if _, ok := nst.Blobs[src.Super]; ok {
		t.Fatalf("source superblock %s not reclaimed from beta", src.Super)
	}
	verify(c2, "after the resumed migration")
}

// TestMembershipValidation pins the error taxonomy of the membership
// verbs: bad specs, duplicates, unknown nodes, unreachable targets.
func TestMembershipValidation(t *testing.T) {
	tc := newTestCluster(t, 25)
	c, err := Open(tc.options(25))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer c.Close()

	if _, err := c.AddNode(NodeSpec{}); err == nil || !strings.Contains(err.Error(), "needs an id") {
		t.Fatalf("empty spec: %v", err)
	}
	if _, err := c.AddNode(NodeSpec{ID: "alpha", URL: "http://x"}); err == nil || !strings.Contains(err.Error(), "already a member") {
		t.Fatalf("duplicate: %v", err)
	}
	// A node that does not answer cannot join.
	if _, err := c.AddNode(NodeSpec{ID: "ghost", URL: "http://127.0.0.1:1"}); err == nil {
		t.Fatalf("unreachable add accepted")
	}
	if _, err := c.DrainNode("nope"); err == nil || !strings.Contains(err.Error(), "unknown node") {
		t.Fatalf("drain unknown: %v", err)
	}
	if _, err := c.RejoinNode(NodeSpec{ID: "nope"}); err == nil || !strings.Contains(err.Error(), "unknown node") {
		t.Fatalf("rejoin unknown: %v", err)
	}
	// A dead node drains through the heal path, not DrainNode.
	tc.faults["gamma"].SetPartition(netdev.PartDrop)
	deadline := time.Now().Add(10 * time.Second)
	for !c.Client("gamma").Down() && time.Now().Before(deadline) {
		c.Client("gamma").Ping()
		time.Sleep(10 * time.Millisecond)
	}
	if !c.Client("gamma").Down() {
		t.Fatalf("gamma never went down")
	}
	if _, err := c.DrainNode("gamma"); err == nil || !strings.Contains(err.Error(), "heal, not drain") {
		t.Fatalf("drain of a dead node: %v", err)
	}
	tc.faults["gamma"].SetPartition(netdev.PartNone)
}

// TestClusterRejoinInsideGraceZeroMovement: a node that comes back
// inside the grace window was only down — RejoinNode must move
// zero strips and the node serves its original placements again.
func TestClusterRejoinInsideGraceZeroMovement(t *testing.T) {
	tc := newTestCluster(t, 31)
	opts := tc.options(31)
	opts.Client.Grace = 10 * time.Second // the node must NOT be declared lost
	c, err := Open(opts)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer c.Close()
	verify := preload(t, c, 31)

	tc.faults["beta"].SetPartition(netdev.PartDrop)
	downDeadline := time.Now().Add(10 * time.Second)
	for !c.Client("beta").Down() && time.Now().Before(downDeadline) {
		c.Client("beta").Ping() // trip a live down episode
		time.Sleep(5 * time.Millisecond)
	}
	if !c.Client("beta").Down() {
		t.Fatalf("beta never entered a down episode")
	}
	// Rejoin while the node is merely down: zero movement, by contract.
	rep, err := c.RejoinNode(NodeSpec{ID: "beta"})
	if err != nil {
		t.Fatalf("rejoin: %v", err)
	}
	if len(rep.Moved) != 0 {
		t.Fatalf("rejoin inside grace moved %v, want zero movement", rep.Moved)
	}
	tc.faults["beta"].SetPartition(netdev.PartNone)
	deadline := time.Now().Add(10 * time.Second)
	for c.Client("beta").Down() && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if c.Client("beta").Lost() || c.Client("beta").Down() {
		t.Fatalf("beta did not recover inside grace")
	}
	// Placements are untouched: original devices, original node.
	if got := c.DisksOn("beta"); len(got) != 3 {
		t.Fatalf("beta holds %v after rejoin", got)
	}
	man := c.ManifestSnapshot()
	for _, d := range []int{1, 4, 7} {
		if man.Disks[d].Node != "beta" || man.Disks[d].Device != fmt.Sprintf("disk%02d", d) {
			t.Fatalf("disk %d placement changed: %+v", d, man.Disks[d])
		}
	}
	verify(c, "after rejoin")
}

// TestClusterRejoinAfterRebuildDeltaOnly: a node that returns after its
// disks were healed elsewhere gets only the delta migrated back — as
// many disks as balance requires, not a full reshuffle — paced through
// the QoS bucket so foreground reads stay fast, with the node's stale
// media scrubbed.
func TestClusterRejoinAfterRebuildDeltaOnly(t *testing.T) {
	tc := newTestCluster(t, 37)
	opts := tc.options(37)
	opts.Client.Timeout = 250 * time.Millisecond
	opts.Client.Grace = 300 * time.Millisecond
	opts.Engine.QoS = &engine.QoSConfig{RebuildRate: 5}
	c, err := Open(opts)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer c.Close()
	verify := preload(t, c, 37)

	// Kill beta past the grace window and let the heal finish.
	tc.faults["beta"].SetPartition(netdev.PartDrop)
	deadline := time.Now().Add(45 * time.Second)
	for time.Now().Before(deadline) {
		for s := int64(0); s < c.Eng.Strips(); s++ {
			c.Eng.ReadStrip(s)
		}
		st := c.Eng.Status()
		if len(c.DisksOn("beta")) == 0 && len(st.Failed) == 0 && !c.Eng.Rebuilding() {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if !c.Client("beta").Lost() {
		t.Fatalf("beta never declared lost")
	}
	if n := len(c.DisksOn("beta")); n != 0 {
		t.Fatalf("beta still holds %d disks after heal", n)
	}

	// The node returns. Foreground reads sample latency throughout the
	// delta migration; the pacer must keep them bounded.
	tc.faults["beta"].SetPartition(netdev.PartNone)
	throttleBefore := c.Eng.Stats().RebuildThrottleNs
	stop := make(chan struct{})
	var lats []time.Duration
	var latMu sync.Mutex
	var readErrs atomic.Int64
	go func() {
		s := int64(0)
		for {
			select {
			case <-stop:
				return
			default:
			}
			t0 := time.Now()
			if _, err := c.Eng.ReadStrip(s % c.Eng.Strips()); err != nil {
				readErrs.Add(1)
			} else {
				latMu.Lock()
				lats = append(lats, time.Since(t0))
				latMu.Unlock()
			}
			s++
			time.Sleep(time.Millisecond)
		}
	}()

	rep, err := c.RejoinNode(NodeSpec{ID: "beta"})
	close(stop)
	if err != nil {
		t.Fatalf("rejoin: %v", err)
	}
	// Delta only: exactly the disks balance demands (3 of 9), never a
	// full reshuffle.
	if len(rep.Moved) != 3 {
		t.Fatalf("rejoin after rebuild moved %v, want exactly the 3-disk delta", rep.Moved)
	}
	if got := c.DisksOn("beta"); len(got) != 3 {
		t.Fatalf("beta holds %v after delta migration", got)
	}
	// The migrations ran through the pacer, not at unthrottled speed.
	if after := c.Eng.Stats().RebuildThrottleNs; after <= throttleBefore {
		t.Fatalf("migration not paced: throttle %d -> %d", throttleBefore, after)
	}
	// Foreground p99 stayed bounded while the delta moved.
	latMu.Lock()
	sorted := append([]time.Duration(nil), lats...)
	latMu.Unlock()
	if len(sorted) == 0 {
		t.Fatalf("no foreground reads completed during the delta migration (%d errors)", readErrs.Load())
	}
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	p99 := sorted[int(0.99*float64(len(sorted)-1))]
	t.Logf("foreground during rejoin delta: %d reads, p99 %v, %d errors", len(sorted), p99, readErrs.Load())
	if p99 > 250*time.Millisecond {
		t.Fatalf("foreground p99 %v during delta migration, want < 250ms", p99)
	}

	// Stale media was scrubbed: beta holds exactly its three migrated
	// placements, nothing from before it died.
	nst, err := c.Client("beta").Stat()
	if err != nil {
		t.Fatalf("stat beta: %v", err)
	}
	if len(nst.Devices) != 3 || len(nst.Blobs) != 3 {
		t.Fatalf("beta media after rejoin: %d devices %d blobs, want 3+3 (stale media must be scrubbed)", len(nst.Devices), len(nst.Blobs))
	}
	man := c.ManifestSnapshot()
	for _, d := range c.DisksOn("beta") {
		if !strings.Contains(man.Disks[d].Device, "-m") {
			t.Fatalf("disk %d on beta has non-migrated device %q", d, man.Disks[d].Device)
		}
	}
	verify(c, "after rejoin delta")
}

// TestMigrationChaosSweep is the migration durability oracle: a mixed
// workload runs while a rebalance migration is mid-copy, and a seeded
// cut lands on the source node, the destination node, or an asymmetric
// partition of the destination (requests land, acks drop). The
// migration must absorb the cut (transient: retry, not abandon), every
// acked write must read back bit-exact, and fsck must be clean.
func TestMigrationChaosSweep(t *testing.T) {
	cuts := []string{"dest", "source", "asym"}
	if testing.Short() {
		cuts = cuts[:1]
	}
	for i, cut := range cuts {
		cut := cut
		seed := int64(50 + 10*i)
		t.Run(cut, func(t *testing.T) {
			runMigrationChaos(t, seed, cut)
		})
	}
}

func runMigrationChaos(t *testing.T, seed int64, cut string) {
	tc := newTestCluster(t, seed)
	delta := tc.addNode(t, seed, "delta")
	opts := tc.options(seed)
	opts.Client.Timeout = 250 * time.Millisecond
	opts.Format = &FormatSpec{Disks: 9, Cycles: 3, StripBytes: 512}
	// Pace the copy so the cut lands mid-migration, not after it.
	opts.Engine.QoS = &engine.QoSConfig{RebuildRate: 30}
	c, err := Open(opts)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer c.Close()

	strips := c.Eng.Strips()
	const stripBytes = 512
	oracle := make([]atomic.Int64, strips)
	attempted := make([]atomic.Int64, strips)
	pattern := func(s, ver int64) []byte {
		p := make([]byte, stripBytes)
		binary.BigEndian.PutUint64(p[0:8], uint64(s))
		binary.BigEndian.PutUint64(p[8:16], uint64(ver))
		for i := 16; i < len(p); i++ {
			p[i] = byte(int64(i)*seed + s + ver)
		}
		return p
	}
	for s := int64(0); s < strips; s++ {
		if err := c.Eng.WriteStrip(s, pattern(s, 0)); err != nil {
			t.Fatalf("preload %d: %v", s, err)
		}
	}

	const workers = 3
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ver := int64(0)
			for {
				select {
				case <-stop:
					return
				default:
				}
				for s := int64(w); s < strips; s += workers {
					ver++
					attempted[s].Store(ver)
					for attempt := 0; ; attempt++ {
						if err := c.Eng.WriteStrip(s, pattern(s, ver)); err == nil {
							oracle[s].Store(ver)
							break
						}
						if attempt > 2000 {
							t.Errorf("worker %d: strip %d never acked", w, s)
							return
						}
						time.Sleep(5 * time.Millisecond)
					}
					select {
					case <-stop:
						return
					default:
					}
				}
			}
		}(w)
	}

	addRes := make(chan error, 1)
	go func() {
		_, err := c.AddNode(delta)
		addRes <- err
	}()

	// Wait for a migration to be provably mid-copy: a committed cursor.
	var victim MigrationStatus
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		if migs := c.Migrations(); len(migs) > 0 && migs[0].Cursor >= 1 {
			victim = migs[0]
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if victim.To == "" {
		t.Fatalf("no migration reached a committed cursor")
	}

	// The cut: shorter than the grace window, so it is transient by
	// contract — the migration must ride it out, never abandon.
	switch cut {
	case "source":
		tc.faults[victim.From].SetPartition(netdev.PartDrop)
	case "dest":
		tc.faults[victim.To].SetPartition(netdev.PartDrop)
	case "asym":
		tc.faults[victim.To].SetPartition(netdev.PartAsym)
	}
	time.Sleep(150 * time.Millisecond)
	for _, f := range tc.faults {
		f.SetPartition(netdev.PartNone)
	}

	select {
	case err := <-addRes:
		if err != nil {
			t.Fatalf("add node across %s cut: %v", cut, err)
		}
	case <-time.After(60 * time.Second):
		t.Fatalf("rebalance never finished after %s cut", cut)
	}
	if migs := c.Migrations(); len(migs) != 0 {
		t.Fatalf("migration records left behind: %+v", migs)
	}
	if got := c.DisksOn("delta"); len(got) != 2 {
		t.Fatalf("delta holds %v after rebalance", got)
	}

	close(stop)
	wg.Wait()
	for s := int64(0); s < strips; s++ {
		got, err := c.Eng.ReadStrip(s)
		if err != nil {
			t.Fatalf("read %d: %v", s, err)
		}
		gotVer := int64(binary.BigEndian.Uint64(got[8:16]))
		acked, issued := oracle[s].Load(), attempted[s].Load()
		if gotVer < acked || gotVer > issued {
			t.Fatalf("strip %d: version %d outside [acked %d, attempted %d]", s, gotVer, acked, issued)
		}
		if !bytes.Equal(got, pattern(s, gotVer)) {
			t.Fatalf("strip %d: content matches no issued write", s)
		}
	}
	rep, err := c.Eng.Fsck(context.Background(), false)
	if err != nil || !rep.Clean {
		t.Fatalf("fsck after %s cut: %v %+v", cut, err, rep)
	}
}

// TestMigrationResumeAcrossRemount: the coordinator dies (clean Close
// here; the HA test covers the hard kill) mid-migration and the next
// open of the same state directory resumes from the last committed
// cursor — not from scratch — and completes the move.
func TestMigrationResumeAcrossRemount(t *testing.T) {
	tc := newTestCluster(t, 61)
	delta := tc.addNode(t, 61, "delta")
	opts := tc.options(61)
	opts.Format = &FormatSpec{Disks: 9, Cycles: 3, StripBytes: 512}
	// Slow pace: the copy spends most of its time waiting for tokens, so
	// Close lands mid-migration deterministically.
	opts.Engine.QoS = &engine.QoSConfig{RebuildRate: 6}
	c, err := Open(opts)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	verify := preload(t, c, 61)
	_ = verify

	addRes := make(chan error, 1)
	go func() {
		_, err := c.AddNode(delta)
		addRes <- err
	}()

	var rec MigrationStatus
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		if migs := c.Migrations(); len(migs) > 0 && migs[0].Cursor >= 1 && migs[0].Cursor < migs[0].Cycles {
			rec = migs[0]
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if rec.To == "" {
		t.Fatalf("no migration reached a committed mid-copy cursor")
	}

	// Kill the coordinator mid-copy. The migration parks — its record
	// stays committed — and the membership op reports the park.
	if err := c.Close(); err != nil {
		t.Fatalf("close mid-migration: %v", err)
	}
	select {
	case err := <-addRes:
		if !errors.Is(err, errMigrationParked) {
			t.Fatalf("add node across close = %v, want a parked migration", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatalf("add node never returned after close")
	}

	// Successor: same state dir. The resume hook must observe the
	// committed cursor — the proof it continues, not restarts.
	var resumed atomic.Pointer[MigrationRecord]
	ropts := tc.options(62)
	ropts.Format = nil
	ropts.onMigrateResume = func(r MigrationRecord) {
		cp := r
		resumed.CompareAndSwap(nil, &cp)
	}
	c2, err := Open(ropts)
	if err != nil {
		t.Fatalf("remount: %v", err)
	}
	defer c2.Close()

	deadline = time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if len(c2.Migrations()) == 0 && c2.ManifestSnapshot().Disks[rec.Disk].Node == rec.To {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	got := resumed.Load()
	if got == nil {
		t.Fatalf("resume hook never fired")
	}
	if got.Disk != rec.Disk || got.Cursor < 1 {
		t.Fatalf("resumed record %+v, want disk %d with cursor >= 1 (resume, not restart)", got, rec.Disk)
	}
	if c2.ManifestSnapshot().Disks[rec.Disk].Node != rec.To {
		t.Fatalf("disk %d never flipped to %s after resume", rec.Disk, rec.To)
	}
	if migs := c2.Migrations(); len(migs) != 0 {
		t.Fatalf("migration records left after resume: %+v", migs)
	}
	verify(c2, "after resumed migration")
}

// TestMigrationResumeAfterCoordinatorKill is the hard-kill half of
// crash safety, under PR 8's fencing: leader A is partitioned away
// mid-migration, standby B takes over at a higher epoch, resumes the
// migration from the last quorum-committed cursor and completes it —
// while A's in-flight copy writes are provably rejected stale-epoch,
// with no disk ever evicted on A's side.
func TestMigrationResumeAfterCoordinatorKill(t *testing.T) {
	h := newFailoverHarness(t)
	optsA, faultsA := h.coordOptions(t, "coord-a", 71)
	optsA.Format = &FormatSpec{Disks: 9, Cycles: 4, StripBytes: 512}
	// Slow pace on A so the kill lands mid-copy with cycles to spare.
	optsA.Engine.QoS = &engine.QoSConfig{RebuildRate: 5}
	cA, err := Open(optsA)
	if err != nil {
		t.Fatalf("open leader: %v", err)
	}
	epochA := cA.Epoch()

	data := make([]byte, 512)
	for s := int64(0); s < cA.Eng.Strips(); s++ {
		for i := range data {
			data[i] = byte(int64(i)*71 + s)
		}
		if err := cA.Eng.WriteStrip(s, data); err != nil {
			t.Fatalf("preload %d: %v", s, err)
		}
	}

	drainRes := make(chan error, 1)
	go func() {
		_, err := cA.DrainNode("gamma")
		drainRes <- err
	}()

	// Wait for a quorum-committed cursor, then remember the full record:
	// its destination is where A's zombie writes must bounce later.
	var pre MigrationStatus
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if migs := cA.Migrations(); len(migs) > 0 && migs[0].Cursor >= 1 && migs[0].Cursor < migs[0].Cycles {
			pre = migs[0]
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if pre.To == "" {
		t.Fatalf("no migration reached a committed mid-copy cursor")
	}
	raw, ok := cA.Mount.Meta.Journal().GetKV(migrateKey(pre.Disk))
	if !ok {
		t.Fatalf("migration record missing from the metadata plane")
	}
	var rec MigrationRecord
	if err := json.Unmarshal(raw, &rec); err != nil {
		t.Fatalf("decode record: %v", err)
	}

	// Kill the leader: full partition from every node, mid-copy.
	for _, f := range faultsA {
		f.SetPartition(netdev.PartDrop)
	}

	// Standby takes over and must resume from the committed cursor.
	var resumed atomic.Pointer[MigrationRecord]
	optsB, _ := h.coordOptions(t, "coord-b", 1071)
	optsB.onMigrateResume = func(r MigrationRecord) {
		cp := r
		resumed.CompareAndSwap(nil, &cp)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cB, err := Standby(ctx, optsB, StandbyOptions{Poll: 20 * time.Millisecond, FailoverAfter: 250 * time.Millisecond})
	if err != nil {
		t.Fatalf("standby takeover: %v", err)
	}
	defer cB.Close()
	if cB.Epoch() <= epochA {
		t.Fatalf("takeover epoch %d not above deposed leader's %d", cB.Epoch(), epochA)
	}

	// The successor completes the migration: record gone, placement
	// flipped off gamma.
	deadline = time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if len(cB.Migrations()) == 0 && cB.ManifestSnapshot().Disks[pre.Disk].Node == pre.To {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	got := resumed.Load()
	if got == nil {
		t.Fatalf("successor never picked up the migration record")
	}
	if got.Disk != pre.Disk || got.Cursor < pre.Cursor {
		t.Fatalf("successor resumed %+v, want disk %d from cursor >= %d (the last quorum-committed range)",
			got, pre.Disk, pre.Cursor)
	}
	if cB.ManifestSnapshot().Disks[pre.Disk].Node != pre.To {
		t.Fatalf("successor never completed the migration")
	}

	// Heal A's partition: its in-flight copy loop wakes into a world
	// that moved on. The parked verdict must surface and nothing on A's
	// side may be evicted — stale-epoch rejections are not disk faults.
	for _, f := range faultsA {
		f.SetPartition(netdev.PartNone)
	}
	select {
	case err := <-drainRes:
		if !errors.Is(err, errMigrationParked) {
			t.Fatalf("deposed leader's drain = %v, want a parked migration", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("deposed leader's drain never returned")
	}
	if st := cA.Eng.Status(); len(st.Failed) != 0 {
		t.Fatalf("stale-epoch rejections evicted disks on the ex-leader: %v", st.Failed)
	}

	// Wire-level proof of the fence: A re-sends a migration bulk write
	// to the (now authoritative) destination device with its old epoch —
	// the node quorum promised B's, so the write must die stale, never
	// land.
	an := cA.Eng.Array().Analyzer()
	strips := cA.Eng.Array().Cycles() * int64(an.SlotsPerDisk())
	dev := cA.Client(rec.Dst.Node).Device(rec.Dst.Device, strips, 512)
	staleDeadline := time.Now().Add(10 * time.Second)
	var staleErr error
	for time.Now().Before(staleDeadline) {
		zombie := []store.StripOp{{Dev: dev, Idx: 0, Buf: make([]byte, 512)}, {Dev: dev, Idx: 1, Buf: make([]byte, 512)}}
		dev.WriteStrips(zombie)
		staleErr = zombie[0].Err
		if errors.Is(staleErr, store.ErrStaleEpoch) {
			break
		}
		if staleErr == nil {
			t.Fatalf("deposed leader's migration write landed on the destination")
		}
		time.Sleep(10 * time.Millisecond) // breakers cooling down after the heal
	}
	if !errors.Is(staleErr, store.ErrStaleEpoch) {
		t.Fatalf("zombie migration write = %v, want ErrStaleEpoch", staleErr)
	}

	// B serves the data bit-exact after the resumed migration.
	for s := int64(0); s < cB.Eng.Strips(); s++ {
		got, err := cB.Eng.ReadStrip(s)
		if err != nil {
			t.Fatalf("B read %d: %v", s, err)
		}
		for i := range data {
			data[i] = byte(int64(i)*71 + s)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("strip %d differs after resumed migration", s)
		}
	}
	frep, err := cB.Eng.Fsck(context.Background(), false)
	if err != nil || !frep.Clean {
		t.Fatalf("fsck on B: %v %+v", err, frep)
	}

	if err := cA.Close(); err != nil &&
		!errors.Is(err, store.ErrStaleEpoch) && !errors.Is(err, store.ErrUnreachable) {
		t.Fatalf("deposed close: %v", err)
	}
}
