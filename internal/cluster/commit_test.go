package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/oiraid/oiraid/internal/store"
	"github.com/oiraid/oiraid/internal/store/netdev"
)

// cutRegion is one of a coordinator's journal regions, kept in a
// store.CrashBlob. onManifest, when set, runs before every write that
// carries the manifest record — where a test arms the cut — and crashed
// runs after any operation that finds the controller cut.
type cutRegion struct {
	*store.CrashBlob
	ctl        *store.CrashController
	onManifest func()
	crashed    func()
}

func (b cutRegion) WriteAt(p []byte, off int64) (int, error) {
	if b.onManifest != nil && bytes.Contains(p, []byte(manifestKey)) {
		b.onManifest()
	}
	defer b.after()
	return b.CrashBlob.WriteAt(p, off)
}

func (b cutRegion) Truncate(size int64) error {
	defer b.after()
	return b.CrashBlob.Truncate(size)
}

func (b cutRegion) Sync() error {
	defer b.after()
	return b.CrashBlob.Sync()
}

func (b cutRegion) after() {
	if b.crashed != nil && b.ctl.Crashed() {
		b.crashed()
	}
}

// crashCoordinator is a volatile coordinator over tc's nodes whose journal
// regions are cutRegions on one controller.
type crashCoordinator struct {
	ctl     *store.CrashController
	regions map[string]*store.CrashBlob
	faults  map[string]*netdev.FaultTransport
}

// crashOptions gives tc's options a fresh transport per node and journal
// regions that hook supplies each of (given its CrashBlob). The transports
// are installed in tc, so a node added later gets one too.
func crashOptions(tc *testCluster, seed int64, hook func(*store.CrashBlob) store.Blob) (Options, *crashCoordinator) {
	cc := &crashCoordinator{ctl: store.NewCrashController(seed), regions: map[string]*store.CrashBlob{}, faults: map[string]*netdev.FaultTransport{}}
	for id := range tc.faults {
		tc.faults[id] = netdev.NewFaultTransport(nil, seed)
		cc.faults[id] = tc.faults[id]
	}
	opts := tc.options(seed)
	opts.Dir = ""
	opts.Format = &FormatSpec{Disks: 9, Cycles: 1, StripBytes: 512}
	opts.journalBlob = func(file string) store.Blob {
		b := store.NewCrashBlob(cc.ctl)
		cc.regions[file] = b
		return hook(b)
	}
	return opts, cc
}

// survivors returns fresh copies of the regions' durable images.
func (cc *crashCoordinator) survivors() map[string]store.Blob {
	out := map[string]store.Blob{}
	for file, b := range cc.regions {
		out[file] = b.Survivor()
	}
	return out
}

// durable opens a journal over copies of the regions' durable images and
// returns its manifest (ok false: none) and migration records.
func (cc *crashCoordinator) durable(t *testing.T) (man Manifest, ok bool, recs []MigrationRecord) {
	t.Helper()
	s := cc.survivors()
	j, err := store.OpenMetaJournal(s["meta0.journal"], s["meta1.journal"])
	if err != nil {
		t.Fatalf("open the durable journal: %v", err)
	}
	defer j.Close()
	if man, ok, err = journaledManifest(j); err != nil {
		t.Fatalf("durable manifest: %v", err)
	}
	c := &Cluster{journal: j}
	return man, ok, c.migRecords()
}

// statusOf is NodeStatus as a coordinator whose installed manifest is m,
// every node ok, reports it.
func statusOf(m Manifest) []NodeInfo {
	var out []NodeInfo
	for _, n := range m.Nodes {
		info := NodeInfo{ID: n.ID, URL: n.URL, State: "ok"}
		for d, p := range m.Disks {
			if p.Node == n.ID {
				info.Disks = append(info.Disks, d)
			}
		}
		out = append(out, info)
	}
	return out
}

// TestMembershipCommitFailureLeavesMemory: a membership commit the journal
// refuses — a crash cut at the manifest record's write — leaves the
// coordinator's memory at the last committed manifest. A drain that fails
// at its removal commit still lists the node; a heal replacement that
// fails at its commit still places the disk where it was.
func TestMembershipCommitFailureLeavesMemory(t *testing.T) {
	for _, tt := range []struct {
		name string
		cut  int // manifest writes let through before the cut
		op   func(*Cluster) error
	}{
		// Gamma's three flips commit; the fourth manifest write is the removal.
		{"drain", 3, func(c *Cluster) error { _, err := c.DrainNode("gamma"); return err }},
		{"replacement", 0, func(c *Cluster) error {
			if err := c.Eng.FailDisk(4); err != nil {
				return err
			}
			_, err := c.provisionReplacement(4)
			return err
		}},
	} {
		t.Run(tt.name, func(t *testing.T) {
			tc := newTestCluster(t, 81)
			var left atomic.Int64
			left.Store(-1)
			var cc *crashCoordinator
			opts, cc := crashOptions(tc, 81, func(b *store.CrashBlob) store.Blob {
				return cutRegion{CrashBlob: b, ctl: cc.ctl, onManifest: func() {
					if left.Add(-1) == -1 {
						cc.ctl.Arm(0)
					}
				}}
			})
			c, err := Open(opts)
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			defer c.Close()
			preload(t, c, 81)
			pre, preStatus := c.ManifestSnapshot(), c.NodeStatus()

			left.Store(int64(tt.cut))
			if err := tt.op(c); !errors.Is(err, store.ErrCrashed) {
				t.Fatalf("%s across the cut: %v, want ErrCrashed", tt.name, err)
			}
			disk, ok, _ := cc.durable(t)
			if !ok {
				t.Fatal("no durable manifest")
			}
			if got := c.ManifestSnapshot(); !reflect.DeepEqual(got, disk) {
				t.Fatalf("manifest after the failed commit\n got %+v\nwant %+v (the last committed)", got, disk)
			}
			if got := c.NodeStatus(); !reflect.DeepEqual(got, statusOf(disk)) {
				t.Fatalf("node status after the failed commit\n got %+v\nwant %+v", got, statusOf(disk))
			}
			if tt.cut == 0 && (!reflect.DeepEqual(disk, pre) || !reflect.DeepEqual(c.NodeStatus(), preStatus)) {
				t.Fatalf("a commit that never landed moved the manifest: %+v, was %+v", disk, pre)
			}
		})
	}
}

// commitScenario is one membership operation of the crash-cut sweep.
type commitScenario struct {
	name string
	// setup brings a formatted, preloaded cluster to the state before op.
	// The format scenario has none: its op is the formatting open itself.
	setup func(t *testing.T, tc *testCluster, c *Cluster)
	op    func(delta NodeSpec, c *Cluster) error
}

// TestMembershipCommitCrashSweep cuts the coordinator's journal at every
// write of a membership operation — format, add with its rebalance flips,
// drain, rejoin after loss, one heal replacement — and kills the
// coordinator there. After every cut the durable journal holds, for every
// disk, the placement from before the operation or one it reached, and a
// surviving migration record's disk sits at the record's source or
// destination; the reopen mounts and serves every acked write bit-exact.
func TestMembershipCommitCrashSweep(t *testing.T) {
	scenarios := []commitScenario{
		{name: "format"},
		{name: "add", op: func(delta NodeSpec, c *Cluster) error {
			_, err := c.AddNode(delta)
			return err
		}},
		{name: "drain", op: func(_ NodeSpec, c *Cluster) error {
			_, err := c.DrainNode("gamma")
			return err
		}},
		{name: "rejoin", setup: loseBeta, op: func(_ NodeSpec, c *Cluster) error {
			_, err := c.RejoinNode(NodeSpec{ID: "beta"})
			return err
		}},
		{name: "replacement", op: func(_ NodeSpec, c *Cluster) error {
			if err := c.Eng.FailDisk(4); err != nil {
				return err
			}
			if err := c.Eng.StartRebuild(1); err != nil {
				return err
			}
			return c.Eng.RebuildWait()
		}},
	}
	for i, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			seed := int64(90 + i)
			points, post := runCommitCut(t, seed, sc, -1, Manifest{})
			if points == 0 {
				t.Fatal("the operation wrote nothing to the journal")
			}
			stride := int64(1)
			if testing.Short() {
				stride = 5
			}
			for k := int64(0); k < points; k += stride {
				runCommitCut(t, seed, sc, k, post)
			}
			t.Logf("%s: %d crash points", sc.name, points)
		})
	}
}

// loseBeta partitions beta past the grace window and waits until its
// disks are healed onto alpha and gamma, then lifts the partition.
func loseBeta(t *testing.T, tc *testCluster, c *Cluster) {
	t.Helper()
	tc.faults["beta"].SetPartition(netdev.PartDrop)
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		for s := int64(0); s < c.Eng.Strips(); s++ {
			c.Eng.ReadStrip(s)
		}
		if c.Client("beta").Lost() && len(c.DisksOn("beta")) == 0 && len(c.Eng.Status().Failed) == 0 && !c.Eng.Rebuilding() {
			tc.faults["beta"].SetPartition(netdev.PartNone)
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("beta's disks never healed elsewhere")
}

// runCommitCut runs sc with the cut after k of the operation's journal
// writes. A dry run (k < 0) counts those writes and returns them with the
// manifest the operation ends at. A cut run kills the coordinator at the
// cut, checks the durable journal against the manifests before the
// operation, at the cut, and after a whole run (post), then reopens from
// the durable regions and verifies the data.
func runCommitCut(t *testing.T, seed int64, sc commitScenario, k int64, post Manifest) (int64, Manifest) {
	t.Helper()
	tc := newTestCluster(t, seed)
	delta := tc.addNode(t, seed, "delta")
	var cc *crashCoordinator
	opts, cc := crashOptions(tc, seed, func(b *store.CrashBlob) store.Blob {
		// The cut kills the coordinator: it reaches no node again.
		return cutRegion{CrashBlob: b, ctl: cc.ctl, crashed: func() {
			for _, f := range cc.faults {
				f.SetPartition(netdev.PartDrop)
			}
		}}
	})
	opts.Client.Grace = 150 * time.Millisecond
	where := fmt.Sprintf("%s, cut %d", sc.name, k)

	var c *Cluster
	var pre Manifest
	var verify func(*Cluster, string)
	var w0 int64
	var err error
	if sc.op != nil {
		if c, err = Open(opts); err != nil {
			t.Fatalf("%s: open: %v", where, err)
		}
		verify = preload(t, c, seed)
		if sc.setup != nil {
			sc.setup(t, tc, c)
		}
		pre, w0 = c.ManifestSnapshot(), cc.ctl.Writes()
	}
	cc.ctl.Arm(k)
	if sc.op == nil {
		c, err = Open(opts)
	} else {
		err = sc.op(delta, c)
	}
	if k < 0 {
		if err != nil {
			t.Fatalf("%s: %v", where, err)
		}
		defer c.Close()
		return cc.ctl.Writes() - w0, c.ManifestSnapshot()
	}
	if !cc.ctl.Crashed() && err != nil {
		t.Fatalf("%s: failed without a crash: %v", where, err)
	}
	var atCut Manifest
	if c != nil {
		atCut = c.ManifestSnapshot()
		for _, f := range cc.faults {
			f.SetPartition(netdev.PartDrop)
		}
		c.Close()
	}

	man, ok, recs := cc.durable(t)
	switch {
	case !ok && sc.op != nil:
		t.Fatalf("%s: the durable journal lost the manifest", where)
	case ok:
		checkDurablePlacement(t, where, man, recs, pre, atCut, post)
	}

	// Reopen from the durable regions, with transports of its own.
	s := cc.survivors()
	for id := range tc.faults {
		tc.faults[id] = netdev.NewFaultTransport(nil, seed+1)
	}
	ropts := tc.options(seed + 1)
	ropts.Dir = ""
	ropts.journalBlob = func(file string) store.Blob { return s[file] }
	if sc.op != nil {
		ropts.Format = nil
	} else {
		ropts.Format = opts.Format
	}
	c2, err := Open(ropts)
	if err != nil {
		t.Fatalf("%s: reopen: %v", where, err)
	}
	defer c2.Close()
	if verify != nil {
		// Let a resumed migration settle and rebuild a disk the cut left
		// failed, then read every strip.
		deadline := time.Now().Add(20 * time.Second)
		for time.Now().Before(deadline) && len(c2.Migrations()) > 0 {
			time.Sleep(5 * time.Millisecond)
		}
		if len(c2.Eng.Array().FailedDisks()) > 0 {
			if err := c2.Eng.StartRebuild(1); err != nil {
				t.Fatalf("%s: rebuild after the reopen: %v", where, err)
			}
			if err := c2.Eng.RebuildWait(); err != nil {
				t.Fatalf("%s: rebuild after the reopen: %v", where, err)
			}
		}
		verify(c2, where)
	}
	return 0, post
}

// checkDurablePlacement: every disk of man sits where it was before the
// operation, where the crashed coordinator had it, or where a whole run
// ends; the node list is one of those three too; and a surviving migration
// record's disk sits at its source or its destination.
func checkDurablePlacement(t *testing.T, where string, man Manifest, recs []MigrationRecord, states ...Manifest) {
	t.Helper()
	ids := func(m Manifest) string {
		var s []string
		for _, n := range m.Nodes {
			s = append(s, n.ID)
		}
		slices.Sort(s)
		return strings.Join(s, ",")
	}
	okNodes := false
	for _, st := range states {
		okNodes = okNodes || ids(st) == ids(man)
	}
	if !okNodes {
		t.Fatalf("%s: durable nodes [%s] are none of the operation's", where, ids(man))
	}
	for d, p := range man.Disks {
		seen := false
		for _, st := range states {
			seen = seen || (d < len(st.Disks) && st.Disks[d] == p)
		}
		if !seen {
			t.Fatalf("%s: durable placement of disk %d %+v is none of the operation's", where, d, p)
		}
	}
	for _, rec := range recs {
		if p := man.Disks[rec.Disk]; p != rec.Src && p != rec.Dst {
			t.Fatalf("%s: disk %d at %+v, its migration record moves %+v → %+v", where, rec.Disk, p, rec.Src, rec.Dst)
		}
	}
}

// TestOpenRefusesOlderManifestStores: the manifest lives in the metadata
// journal only. A state directory that still holds the older format's
// manifest file, and a quorum where a node holds its manifest blob, are
// refused by name before anything is written — no journal region in the
// directory, no lease on any node.
func TestOpenRefusesOlderManifestStores(t *testing.T) {
	t.Run("file", func(t *testing.T) {
		tc := newTestCluster(t, 83)
		old := filepath.Join(tc.dir, legacyManifestFile)
		if err := os.WriteFile(old, []byte(`{"nodes":[]}`), 0o644); err != nil {
			t.Fatal(err)
		}
		c, err := Open(tc.options(83))
		if err == nil {
			c.Close()
			t.Fatal("a directory holding the older manifest file opened")
		}
		if !strings.Contains(err.Error(), old) {
			t.Fatalf("refusal %q does not name %s", err, old)
		}
		if entries, _ := os.ReadDir(tc.dir); len(entries) != 1 {
			t.Fatalf("the refused open left %d entries in the directory", len(entries))
		}
	})
	t.Run("blob", func(t *testing.T) {
		h := newFailoverHarness(t)
		cl := netdev.NewNodeClient(h.specs[1].URL, netdev.Options{Timeout: time.Second})
		defer cl.Close()
		b, err := cl.CreateBlob(legacyManifestBlob)
		if err == nil {
			_, err = b.WriteAt([]byte(`{"nodes":[]}`), 0)
		}
		if err != nil {
			t.Fatal(err)
		}
		opts, _ := h.coordOptions(t, "coord-a", 83)
		opts.Format = &FormatSpec{Disks: 9, Cycles: 1, StripBytes: 512}
		c, err := Open(opts)
		if err == nil {
			c.Close()
			t.Fatal("a quorum holding the older manifest blob was taken over")
		}
		if !strings.Contains(err.Error(), fmt.Sprintf("node %s holds a %q blob", h.specs[1].ID, legacyManifestBlob)) {
			t.Fatalf("refusal %q does not name the blob and its node", err)
		}
		for _, spec := range h.specs {
			probe := netdev.NewNodeClient(spec.URL, netdev.Options{Timeout: time.Second})
			st, err := probe.Stat()
			probe.Close()
			if err != nil || st.Epoch != 0 || len(st.Devices) != 0 {
				t.Fatalf("node %s after the refusal: epoch %d, %d devices (%v)", spec.ID, st.Epoch, len(st.Devices), err)
			}
		}
	})
}

// TestClassicDirUpgradesToHA: a classic coordinator formats, writes and
// closes; the same directory reopened with a Holder seeds the quorum from
// its journal, manifest included — and a successor with no directory at
// all then mounts the same placement from the quorum alone and reads the
// same data.
func TestClassicDirUpgradesToHA(t *testing.T) {
	tc := newTestCluster(t, 85)
	c, err := Open(tc.options(85))
	if err != nil {
		t.Fatalf("classic open: %v", err)
	}
	verify := preload(t, c, 85)
	classic := c.ManifestSnapshot()
	if err := c.Close(); err != nil {
		t.Fatalf("classic close: %v", err)
	}

	ha := func(dir, holder string) *Cluster {
		t.Helper()
		opts := tc.options(86)
		opts.Dir, opts.Format = dir, nil
		opts.Holder, opts.LeaseRenew = holder, 25*time.Millisecond
		c, err := Open(opts)
		if err != nil {
			t.Fatalf("HA open as %s: %v", holder, err)
		}
		if got := c.ManifestSnapshot(); !reflect.DeepEqual(got, classic) {
			t.Fatalf("HA open as %s: manifest %+v, classic had %+v", holder, got, classic)
		}
		verify(c, "HA open as "+holder)
		return c
	}
	if err := ha(tc.dir, "coord-a").Close(); err != nil {
		t.Fatalf("HA close: %v", err)
	}
	ha(t.TempDir(), "coord-b").Close()
}

// TestClusterHAMembershipBlobRPCs pins what an HA coordinator's
// membership commits cost on the blob plane, in blob messages: a heal
// replacement is its superblock blob's create and truncate plus one journal
// append (a write and a sync to each of three nodes); a one-cycle migration
// adds the destination's superblock create and clone, four journal appends
// (record, cursor, flip, delete) and the source's superblock delete. Through
// all of it and a second of lease renewals after, the coordinator's only
// HTTP requests are its streams' Upgrades.
func TestClusterHAMembershipBlobRPCs(t *testing.T) {
	h := newFailoverHarness(t)
	opts, faults := h.coordOptions(t, "coord-a", 87)
	counted := map[string]*countingTransport{}
	for id, ft := range faults {
		counted[id] = &countingTransport{inner: ft}
	}
	opts.Transport = func(s NodeSpec) http.RoundTripper { return counted[s.ID] }
	opts.Format = &FormatSpec{Disks: 9, Cycles: 1, StripBytes: 512}
	c, err := Open(opts)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer c.Close()
	preload(t, c, 87)
	blobs := func() int64 {
		return sumStats(c, func(st netdev.ClientStats) int64 { return st.BlobMessages })
	}

	if err := c.Eng.FailDisk(4); err != nil {
		t.Fatal(err)
	}
	n := blobs()
	if _, err := c.provisionReplacement(4); err != nil {
		t.Fatal(err)
	}
	if got := blobs() - n; got != 8 {
		t.Errorf("a heal replacement sent %d blob messages, want 8", got)
	}

	n = blobs()
	c.memberMu.Lock()
	err = c.migrateDisk(0, "beta") // disk 0 lives on alpha
	c.memberMu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if got := blobs() - n; got != 29 {
		t.Errorf("a one-cycle migration sent %d blob messages, want 29", got)
	}
	idleRenewals(t, c)
	for id, ct := range counted {
		ct.upgradesOnly(t, "an HA leader's open, heal, migration and a second of renewals, to "+id)
	}
}

// tornFlip is a journal region whose sync of a manifest record, once armed,
// flushes every queued byte and then cuts power: a cut at a flip's sync
// whose torn prefix keeps the whole frame. The coordinator lives on,
// reaching its nodes.
type tornFlip struct {
	*store.CrashBlob
	ctl      *store.CrashController
	armed    *atomic.Bool
	manifest bool // a manifest record is queued for the next sync
}

func (b *tornFlip) WriteAt(p []byte, off int64) (int, error) {
	b.manifest = b.manifest || b.armed.Load() && bytes.Contains(p, []byte(manifestKey))
	return b.CrashBlob.WriteAt(p, off)
}

func (b *tornFlip) Sync() error {
	if err := b.CrashBlob.Sync(); err != nil || !b.manifest {
		return err
	}
	b.ctl.Arm(0)
	_, err := b.CrashBlob.WriteAt(nil, 0)
	return err
}

// TestMembershipCommitAmbiguousFlip: a drain's first flip fails at its sync
// after the whole record reached the media, so the durable log places the
// disk at the flip's destination while the coordinator, told the commit
// failed, keeps the source. The coordinator must not reclaim the
// destination the log names: a reopen over the durable log binds it, and
// serves every strip with no disk failed.
func TestMembershipCommitAmbiguousFlip(t *testing.T) {
	const seed = 88
	tc := newTestCluster(t, seed)
	var armed atomic.Bool
	var cc *crashCoordinator
	opts, cc := crashOptions(tc, seed, func(b *store.CrashBlob) store.Blob {
		return &tornFlip{CrashBlob: b, ctl: cc.ctl, armed: &armed}
	})
	c, err := Open(opts)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	verify := preload(t, c, seed)
	armed.Store(true)
	if _, err := c.DrainNode("gamma"); err == nil || !cc.ctl.Crashed() {
		t.Fatalf("drain across the torn flip: %v (crashed %v), want a failure at the cut", err, cc.ctl.Crashed())
	}
	man, ok, recs := cc.durable(t)
	if !ok || len(recs) != 1 || man.Disks[recs[0].Disk] != recs[0].Dst {
		t.Fatalf("durable log: manifest %v, migration records %+v; want the first flip's destination placed", ok, recs)
	}
	dst := recs[0].Dst
	cl := c.Client(dst.Node)
	st, err := cl.Stat()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Devices[dst.Device]; !ok {
		t.Fatalf("node %s no longer holds %s, the device the durable log places disk %d on", dst.Node, dst.Device, recs[0].Disk)
	}
	for _, f := range cc.faults {
		f.SetPartition(netdev.PartDrop)
	}
	c.Close()

	s := cc.survivors()
	for id := range tc.faults {
		tc.faults[id] = netdev.NewFaultTransport(nil, seed+1)
	}
	ropts := tc.options(seed + 1)
	ropts.Dir = ""
	ropts.journalBlob = func(file string) store.Blob { return s[file] }
	c2, err := Open(ropts)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer c2.Close()
	for deadline := time.Now().Add(20 * time.Second); time.Now().Before(deadline) && len(c2.Migrations()) > 0; {
		time.Sleep(5 * time.Millisecond)
	}
	if failed := c2.Eng.Array().FailedDisks(); len(failed) > 0 {
		t.Fatalf("the reopen failed disks %v", failed)
	}
	if p := c2.ManifestSnapshot().Disks[recs[0].Disk]; p != dst {
		t.Fatalf("the reopen placed disk %d at %+v, the durable log at %+v", recs[0].Disk, p, dst)
	}
	verify(c2, "after the reopen")
}

// failingRegion is a coordinator's own copy of a journal region whose
// writes and syncs fail once armed, while every node still answers.
type failingRegion struct {
	store.Blob
	armed *atomic.Bool
}

var errRegion = errors.New("injected region failure")

func (b failingRegion) WriteAt(p []byte, off int64) (int, error) {
	if b.armed.Load() {
		return 0, errRegion
	}
	return b.Blob.WriteAt(p, off)
}

func (b failingRegion) Sync() error {
	if b.armed.Load() {
		return errRegion
	}
	return b.Blob.Sync()
}

// TestFailStoppedCoordinatorStopsRenewing: an HA coordinator whose commit
// fails, and whose restatement of the installed manifest fails too, closes
// its journal and stops renewing its lease: the nodes' renewal counters
// stop advancing, and a standby takes over without a process restart and
// serves every strip.
func TestFailStoppedCoordinatorStopsRenewing(t *testing.T) {
	const seed = 89
	h := newFailoverHarness(t)
	opts, _ := h.coordOptions(t, "coord-a", seed)
	opts.Format = &FormatSpec{Disks: 9, Cycles: 1, StripBytes: 512}
	var armed atomic.Bool
	opts.journalBlob = func(string) store.Blob { return failingRegion{store.NewMemBlob(), &armed} }
	c, err := Open(opts)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer c.Close()
	verify := preload(t, c, seed)

	armed.Store(true)
	if _, err := c.provisionReplacement(4); !errors.Is(err, store.ErrClosed) {
		t.Fatalf("a commit whose restatement fails too: %v, want the journal closed", err)
	}
	renewals := func() (sum uint64) {
		for _, spec := range h.specs {
			st, err := c.Client(spec.ID).Stat()
			if err != nil {
				t.Fatalf("%s stat: %v", spec.ID, err)
			}
			sum += st.RenewSeq
		}
		return sum
	}
	time.Sleep(10 * opts.LeaseRenew) // a renewal round in flight lands
	before := renewals()
	time.Sleep(10 * opts.LeaseRenew)
	if after := renewals(); after != before {
		t.Fatalf("renewal counters %d → %d over 10 renewal intervals after the journal stopped", before, after)
	}

	optsB, _ := h.coordOptions(t, "coord-b", seed+1000)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	b, err := Standby(ctx, optsB, StandbyOptions{Poll: 20 * time.Millisecond, FailoverAfter: 250 * time.Millisecond})
	if err != nil {
		t.Fatalf("standby: %v", err)
	}
	defer b.Close()
	if b.Epoch() <= c.Epoch() {
		t.Fatalf("standby epoch %d, fail-stopped leader's %d", b.Epoch(), c.Epoch())
	}
	verify(b, "after the takeover")
}
