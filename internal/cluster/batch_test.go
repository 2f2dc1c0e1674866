package cluster

import (
	"bytes"
	"errors"
	"math/rand"
	"net/http"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/oiraid/oiraid/internal/core"
	"github.com/oiraid/oiraid/internal/store"
	"github.com/oiraid/oiraid/internal/store/netdev"
)

// closureNodes lists the nodes holding the parity closure of logical strip s,
// by the manifest.
func closureNodes(c *Cluster, s int64) map[string][]int {
	arr := c.Eng.Array()
	target, _ := arr.LocateDataStrip(s)
	m := c.ManifestSnapshot()
	nodes := map[string][]int{}
	for _, st := range arr.Analyzer().WritePlan(target).Strips {
		nodes[m.Disks[st.Disk].Node] = append(nodes[m.Disks[st.Disk].Node], st.Disk)
	}
	return nodes
}

// TestClusterBatchRPCCounts is the exact-count evidence for the batched path:
// every healthy single-strip write is one read message and one write message
// per node of its closure — 4 for a closure on two nodes, 6 on three, 720 over
// the cycle's 144 data strips where strip-at-a-time I/O took 1152 (a node's
// one strip of a closure travels as a message of one item) — a plain strip
// read is one message, and a rebuilt cycle goes out as gather windows of at
// most three read messages and one write message each. No write or read
// takes any other round trip, and the writes and the read ride streams
// opened at most once per node.
func TestClusterBatchRPCCounts(t *testing.T) {
	c, ct := countedCluster(t, 4096, nil)
	p := make([]byte, 4096)
	rand.New(rand.NewSource(6)).Read(p)
	strips := c.Eng.Strips()
	var total int64
	opens := ct.opens()
	for s := int64(0); s < strips; s++ {
		nodes := int64(len(closureNodes(c, s)))
		before := ct.rpcs()
		if err := c.Eng.WriteStrip(s, p); err != nil {
			t.Fatal(err)
		}
		if got := ct.rpcs() - before; got != 2*nodes || nodes < 2 || nodes > 3 {
			t.Fatalf("write of strip %d, closure on %d nodes: %d RPCs, want %d", s, nodes, got, 2*nodes)
		}
		total += 2 * nodes
	}
	if reads, writes := ct.messages(); total != 720 || reads+writes != 720 {
		t.Errorf("%d writes: %d RPCs (%d read messages, %d write messages), want 720 in all", strips, total, reads, writes)
	}
	before := ct.rpcs()
	if got, err := c.Eng.ReadStrip(7); err != nil || !bytes.Equal(got, p) {
		t.Fatalf("read: %v", err)
	}
	if got := ct.rpcs() - before; got != 1 {
		t.Errorf("a plain strip read: %d RPCs, want 1", got)
	}
	if got := ct.opens() - opens; got > 3 {
		t.Errorf("%d writes and a read opened %d strip streams, want at most one per node", strips, got)
	}

	// One cycle of 36 repair tasks at 4 KiB is four 128 KiB gather windows of
	// ten tasks (thirty strip buffers) each.
	r0, w0 := ct.messages()
	rebuildDisk(t, c, 4)
	r, w := ct.messages()
	if r, w = r-r0, w-w0; r+w > 16 || w != 4 {
		t.Errorf("rebuilt cycle: %d read messages, %d write messages; want ≤ 16 in all, 4 write messages (108 strip-at-a-time)", r, w)
	}
	for s := int64(0); s < strips; s++ {
		if got, err := c.Eng.ReadStrip(s); err != nil || !bytes.Equal(got, p) {
			t.Fatalf("strip %d after the rebuild: %v", s, err)
		}
	}
}

// TestHAWriteRPCCounts pins what a strip write costs an HA coordinator, by
// route: the closure's strip messages, as on a classic one (a read and a write
// message per node of the closure), plus the journal's two appends — the redo
// record, then the closure's checksums and clear — each a blob write at every
// one of the three voters, and the redo record's sync at each. Over a cycle's
// 144 writes that is 720 strip messages, 864 blob writes and 432 syncs: 14
// RPCs a write, where one append per record took 26. The strip messages ride
// streams opened at most once per node.
func TestHAWriteRPCCounts(t *testing.T) {
	c, ct := countedClusterHA(t, 512, nil, "coord-a")
	p := make([]byte, 512)
	rand.New(rand.NewSource(7)).Read(p)
	strips := c.Eng.Strips()
	d0, w0, s0, tr0, all0, opens := ct.strips(), ct.blobWrites.Load(), ct.blobSyncs.Load(), ct.blobTruncates.Load(), ct.stripRPCs(), ct.opens()
	epoch := c.journal.Epoch()
	for s := int64(0); s < strips; s++ {
		if err := c.Eng.WriteStrip(s, p); err != nil {
			t.Fatal(err)
		}
	}
	if c.journal.Epoch() != epoch {
		t.Fatal("the journal compacted during the writes; the counts below leave compaction out")
	}
	d, w, sy, tr := ct.strips()-d0, ct.blobWrites.Load()-w0, ct.blobSyncs.Load()-s0, ct.blobTruncates.Load()-tr0
	if strips != 144 || d != 720 || w != 3*2*strips || sy != 3*strips || tr != 0 {
		t.Errorf("%d writes: %d strip messages, %d blob writes, %d blob syncs, %d truncations; want 720, %d, %d, 0",
			strips, d, w, sy, tr, 3*2*strips, 3*strips)
	}
	if per := float64(ct.stripRPCs()-all0) / float64(strips); per != 14 {
		t.Errorf("%.2f RPCs per strip write, want 14", per)
	}
	if got := ct.opens() - opens; got > 3 {
		t.Errorf("%d writes opened %d strip streams, want at most one per node", strips, got)
	}
}

// TestClusterSmallStripRebuildIsOneWindow: at 512-byte strips the whole cycle
// fits one gather window: three read messages and one write message rebuild a
// disk.
func TestClusterSmallStripRebuildIsOneWindow(t *testing.T) {
	c, ct := countedCluster(t, 512, nil)
	p := bytes.Repeat([]byte{0x6B}, 512)
	for s := int64(0); s < c.Eng.Strips(); s++ {
		if err := c.Eng.WriteStrip(s, p); err != nil {
			t.Fatal(err)
		}
	}
	r0, w0 := ct.messages()
	rebuildDisk(t, c, 0)
	if r, w := ct.messages(); r-r0 > 3 || w-w0 != 1 {
		t.Errorf("rebuilt cycle: %d read messages, %d write messages; want ≤ 3, 1", r-r0, w-w0)
	}
}

// msgLog records, in order, the strip messages that cross the fault
// transports it hooks, each as "host read" or "host write".
type msgLog struct {
	mu   sync.Mutex
	msgs []string
}

func (l *msgLog) hook(host string, write bool) {
	kind := "read"
	if write {
		kind = "write"
	}
	l.mu.Lock()
	l.msgs = append(l.msgs, host+" "+kind)
	l.mu.Unlock()
}

func (l *msgLog) take() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	msgs := l.msgs
	l.msgs = nil
	return msgs
}

// faultedCluster is countedCluster with every node client behind a fault
// transport of its own, each hooked to one msgLog.
func faultedCluster(t *testing.T, stripBytes int) (*Cluster, *msgLog, map[string]*netdev.FaultTransport) {
	t.Helper()
	log, faults := &msgLog{}, map[string]*netdev.FaultTransport{}
	c, _ := countedCluster(t, stripBytes, func(node string, inner http.RoundTripper) http.RoundTripper {
		ft := netdev.NewFaultTransport(inner, int64(len(faults))+1)
		ft.SetHook(log.hook)
		faults[node] = ft
		return ft
	})
	return c, log, faults
}

// loggedCluster is faultedCluster with every strip written and the host of
// each node by id.
func loggedCluster(t *testing.T, stripBytes int) (*Cluster, *msgLog, map[string]string) {
	t.Helper()
	c, log, _ := faultedCluster(t, stripBytes)
	p := make([]byte, stripBytes)
	rand.New(rand.NewSource(8)).Read(p)
	for s := int64(0); s < c.Eng.Strips(); s++ {
		if err := c.Eng.WriteStrip(s, p); err != nil {
			t.Fatal(err)
		}
	}
	hosts := map[string]string{}
	for _, n := range c.ManifestSnapshot().Nodes {
		hosts[n.ID] = strings.TrimPrefix(n.URL, "http://")
	}
	log.take()
	return c, log, hosts
}

// TestClusterMigrationRPCCounts pins what a migrated cycle costs on the strip
// plane: one gather window is one read message at the source node and one
// write message at the destination — the whole 36-strip cycle at 512-byte
// strips, two windows of 128 KiB at 4 KiB — where a strip-at-a-time copy took
// 36 reads and a bulk write.
func TestClusterMigrationRPCCounts(t *testing.T) {
	for _, tc := range []struct{ stripBytes, windows int }{{512, 1}, {4096, 2}} {
		c, log, hosts := loggedCluster(t, tc.stripBytes)
		c.memberMu.Lock()
		err := c.migrateDisk(0, "beta") // disk 0 lives on alpha
		c.memberMu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		var want []string
		for w := 0; w < tc.windows; w++ {
			want = append(want, hosts["alpha"]+" read", hosts["beta"]+" write")
		}
		if got := log.take(); !slices.Equal(got, want) {
			t.Errorf("%d-byte strips: a migrated cycle's strip messages\n got %v\nwant %v", tc.stripBytes, got, want)
		}
		if got := c.DisksOn("beta"); !slices.Contains(got, 0) {
			t.Errorf("%d-byte strips: disk 0 did not move, beta holds %v", tc.stripBytes, got)
		}
	}
}

// TestClusterMirrorDrainRPCCounts: the flip's re-copy of k dirty strips goes
// out in 128 KiB windows too, a read and a write message each, and leaves the
// destination equal to the source.
func TestClusterMirrorDrainRPCCounts(t *testing.T) {
	const stripBytes, disk = 4096, 0
	c, log, _ := loggedCluster(t, stripBytes)
	arr := c.Eng.Array()
	strips := arr.Cycles() * int64(arr.Analyzer().SlotsPerDisk())
	beta := c.Client("beta")
	dst, err := beta.CreateDevice("drain-dst", strips, stripBytes)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Eng.StartMirror(disk, dst); err != nil {
		t.Fatal(err)
	}
	defer c.Eng.AbortMigration(disk)

	// With the destination gone every mirrored write is refused there and
	// its strip goes dirty: each strip of the disk that a closure holds.
	if err := beta.DeleteDevice("drain-dst"); err != nil {
		t.Fatal(err)
	}
	p := bytes.Repeat([]byte{0x7A}, stripBytes)
	dirty := map[int]bool{}
	for s := int64(0); s < c.Eng.Strips(); s += 5 {
		if err := c.Eng.WriteStrip(s, p); err != nil {
			t.Fatalf("write %d with the mirror's destination gone: %v", s, err)
		}
		target, _ := arr.LocateDataStrip(s)
		for _, st := range arr.Analyzer().WritePlan(target).Strips {
			if st.Disk == disk {
				dirty[st.Slot] = true
			}
		}
	}
	if _, err := beta.CreateDevice("drain-dst", strips, stripBytes); err != nil {
		t.Fatal(err)
	}
	defer beta.DeleteDevice("drain-dst")
	log.take()
	if err := arr.DrainMirror(disk); err != nil {
		t.Fatal(err)
	}
	k := len(dirty)
	bound := 2 * ((k*stripBytes + 128<<10 - 1) / (128 << 10))
	if got := log.take(); k < 2 || len(got) == 0 || len(got) > bound {
		t.Errorf("drain of %d dirty strips: %d strip messages %v, want 1 to %d", k, len(got), got, bound)
	}
	src := c.Client("alpha").Device("disk00", strips, stripBytes)
	got, want := make([]byte, stripBytes), make([]byte, stripBytes)
	for slot := range dirty {
		if err := src.ReadStrip(int64(slot), want); err != nil {
			t.Fatal(err)
		}
		if err := dst.ReadStrip(int64(slot), got); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("strip %d of the destination after the drain differs (err %v)", slot, err)
		}
	}
}

// TestClusterMirroredWriteRidesBatch: a foreground write whose closure holds
// a migrating disk sends the disk's repeat at the destination node inside
// that node's one write message — a write is one write message per node, not
// one more for the repeat — and when the destination node fails under its
// FaultTransport the write still succeeds and the source disk is charged no
// error and none of the destination's latency.
func TestClusterMirroredWriteRidesBatch(t *testing.T) {
	const disk, stripBytes = 0, 512 // disk 0 lives on alpha
	const delay = 100 * time.Millisecond
	c, log, faults := faultedCluster(t, stripBytes)
	p := bytes.Repeat([]byte{0x2F}, stripBytes)
	for s := int64(0); s < c.Eng.Strips(); s++ {
		if err := c.Eng.WriteStrip(s, p); err != nil {
			t.Fatal(err)
		}
	}
	arr := c.Eng.Array()
	beta := c.Client("beta")
	dst, err := beta.CreateDevice("mirror-dst", arr.Cycles()*int64(arr.Analyzer().SlotsPerDisk()), stripBytes)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Eng.StartMirror(disk, dst); err != nil {
		t.Fatal(err)
	}
	defer c.Eng.AbortMigration(disk)
	hosts := map[string]string{}
	for _, n := range c.ManifestSnapshot().Nodes {
		hosts[strings.TrimPrefix(n.URL, "http://")] = n.ID
	}
	// strip returns a data strip whose closure holds the migrating disk, on
	// beta's disks too or not.
	strip := func(onBeta bool) (int64, map[string][]int) {
		for s := int64(0); s < c.Eng.Strips(); s++ {
			nodes := closureNodes(c, s)
			if _, ok := nodes["beta"]; ok == onBeta && slices.Contains(nodes["alpha"], disk) {
				return s, nodes
			}
		}
		t.Fatalf("no closure holds disk %d with beta in it: %v", disk, onBeta)
		return 0, nil
	}

	s, nodes := strip(true)
	log.take()
	if err := c.Eng.WriteStrip(s, p); err != nil {
		t.Fatal(err)
	}
	writes := map[string]int{}
	for _, msg := range log.take() {
		if f := strings.Fields(msg); f[1] == "write" {
			writes[hosts[f[0]]]++
		}
	}
	for node := range nodes {
		if writes[node] != 1 {
			t.Errorf("node %s: %d write messages, want one", node, writes[node])
		}
	}
	if len(writes) != len(nodes) {
		t.Errorf("write of strip %d with disk %d migrating to beta: write messages %v, want one per closure node", s, disk, writes)
	}

	s, _ = strip(false)
	before := c.Eng.Health().Disks[disk]
	fault := faults["beta"]
	fault.SetDelay(delay)
	fault.SetPartition(netdev.PartDrop)
	err = c.Eng.WriteStrip(s, p)
	fault.SetPartition(netdev.PartNone)
	fault.SetDelay(0)
	if err != nil {
		t.Fatalf("write with the migration's destination node down: %v", err)
	}
	after := c.Eng.Health().Disks[disk]
	if after.Errors != before.Errors || after.TransientErrors != before.TransientErrors || after.UnreachableErrors != before.UnreachableErrors {
		t.Errorf("disk %d was charged the destination's failure: %+v, was %+v", disk, after, before)
	}
	if moved := after.P99LatencyUs - before.P99LatencyUs; moved >= float64(delay/16)/1e3 {
		t.Errorf("disk %d's p99 moved %.0f µs: the destination's %v was charged to it", disk, moved, delay)
	}
}

// rebuildDisk fails disk d and rebuilds it onto a replacement the
// coordinator provisions.
func rebuildDisk(t *testing.T, c *Cluster, d int) {
	t.Helper()
	if err := c.Eng.FailDisk(d); err != nil {
		t.Fatal(err)
	}
	if err := c.Eng.StartRebuild(1); err != nil {
		t.Fatal(err)
	}
	if err := c.Eng.RebuildWait(); err != nil {
		t.Fatal(err)
	}
	if failed := c.Eng.Array().FailedDisks(); len(failed) != 0 {
		t.Fatalf("rebuild of disk %d left %v failed", d, failed)
	}
}

// rendezvous parks each strip read message — a node's share of a request,
// one item or many — until as many as it was armed for have arrived: if the
// executor issued a request's node groups one after another, the first would
// wait for a second that is never sent. No clock decides the outcome; the
// timeout only turns a hang into a failure.
type rendezvous struct {
	mu       sync.Mutex
	want     int
	arrived  int
	together chan struct{}
	timedOut bool
}

func (rv *rendezvous) arm(n int) {
	rv.mu.Lock()
	rv.want, rv.arrived, rv.together, rv.timedOut = n, 0, make(chan struct{}), false
	rv.mu.Unlock()
}

func (rv *rendezvous) hook(_ string, write bool) {
	rv.mu.Lock()
	together := rv.together
	if rv.want == 0 || write {
		rv.mu.Unlock()
		return
	}
	if rv.arrived++; rv.arrived == rv.want {
		rv.want = 0
		close(together)
	}
	rv.mu.Unlock()
	select {
	case <-together:
	case <-time.After(3 * time.Second):
		rv.mu.Lock()
		rv.timedOut = true
		rv.mu.Unlock()
	}
}

// TestClusterBatchGroupsInFlightTogether: the read messages of a closure
// that spans three nodes are all in flight before any of them is answered.
func TestClusterBatchGroupsInFlightTogether(t *testing.T) {
	c, _, faults := faultedCluster(t, 512)
	rv := &rendezvous{}
	for _, ft := range faults {
		ft.SetHook(rv.hook)
	}
	p := bytes.Repeat([]byte{0x3C}, 512)
	tried := 0
	for s := int64(0); s < c.Eng.Strips() && tried < 8; s++ {
		if len(closureNodes(c, s)) != 3 {
			continue
		}
		tried++
		rv.arm(3)
		if err := c.Eng.WriteStrip(s, p); err != nil {
			t.Fatal(err)
		}
		rv.mu.Lock()
		arrived, timedOut := rv.arrived, rv.timedOut
		rv.mu.Unlock()
		if arrived != 3 || timedOut {
			t.Fatalf("write of strip %d: %d of the closure's 3 read messages in flight together (timed out: %v)", s, arrived, timedOut)
		}
	}
	if tried == 0 {
		t.Fatal("no closure spans three nodes")
	}
}

// TestClusterBatchPartitionChargesOwnDisks: when a node drops out under a
// batch, the transport failure lands on every op of that node's group and on
// no other — each of its disks' probes is charged its own unreachable error,
// the other nodes' disks none.
func TestClusterBatchPartitionChargesOwnDisks(t *testing.T) {
	tc := newTestCluster(t, 77)
	opts := tc.options(77)
	opts.Client.Grace = time.Hour // the node stays unreachable, never lost
	c, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	p := bytes.Repeat([]byte{0x4D}, 512)
	var target int64 = -1
	for s := int64(0); s < c.Eng.Strips(); s++ {
		if err := c.Eng.WriteStrip(s, p); err != nil {
			t.Fatal(err)
		}
		if nodes := closureNodes(c, s); target < 0 && len(nodes) == 3 {
			target = s
		}
	}
	nodes := closureNodes(c, target)
	unreachable := func() []int64 {
		var out []int64
		for _, d := range c.Eng.Health().Disks {
			out = append(out, d.UnreachableErrors)
		}
		return out
	}
	before := unreachable()
	tc.faults["beta"].SetPartition(netdev.PartDrop)
	if err := c.Eng.WriteStrip(target, p); !errors.Is(err, store.ErrUnreachable) {
		t.Fatalf("write across a partitioned node: %v, want ErrUnreachable", err)
	}
	tc.faults["beta"].SetPartition(netdev.PartNone)
	after := unreachable()
	onBeta := map[int]bool{}
	for _, d := range nodes["beta"] {
		onBeta[d] = true
	}
	for d := range after {
		if got := after[d] - before[d]; onBeta[d] && got != 1 || !onBeta[d] && got != 0 {
			t.Errorf("disk %d (closure disk on the partitioned node: %v) was charged %d unreachable errors", d, onBeta[d], got)
		}
	}
}

// TestClusterRebuildReadsMatchPlan is TestRebuildReadsMatchPlan of
// internal/store on the live cluster: through the batched path, over three
// nodes, every survivor of every failed disk is read exactly as many strips
// as the plan says, and all survivors the same number.
func TestClusterRebuildReadsMatchPlan(t *testing.T) {
	c, _ := countedCluster(t, 512, nil)
	p := bytes.Repeat([]byte{0x5E}, 512)
	for s := int64(0); s < c.Eng.Strips(); s++ {
		if err := c.Eng.WriteStrip(s, p); err != nil {
			t.Fatal(err)
		}
	}
	arr := c.Eng.Array()
	for failed := 0; failed < 9; failed++ {
		plan := arr.Analyzer().Plan([]int{failed}, core.PlanOptions{})
		arr.ResetStats()
		rebuildDisk(t, c, failed)
		stats := arr.DiskStats()
		for d, st := range stats {
			wantW := int64(0)
			if d == failed {
				wantW = int64(plan.WriteStrips)
			}
			if st.ReadOps != int64(plan.ReadsPerDisk[d]) || st.WriteOps != wantW {
				t.Errorf("failed disk %d: disk %d did %d reads / %d writes, the plan says %d / %d", failed, d, st.ReadOps, st.WriteOps, plan.ReadsPerDisk[d], wantW)
			}
			if d != failed && st.ReadOps != stats[(failed+1)%9].ReadOps {
				t.Errorf("failed disk %d: survivor %d read %d strips, survivor %d read %d", failed, d, st.ReadOps, (failed+1)%9, stats[(failed+1)%9].ReadOps)
			}
		}
	}
}
