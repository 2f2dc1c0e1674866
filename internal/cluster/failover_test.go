package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/oiraid/oiraid/internal/engine"
	"github.com/oiraid/oiraid/internal/store"
	"github.com/oiraid/oiraid/internal/store/netdev"
	"github.com/oiraid/oiraid/internal/testutil"
)

// failoverHarness is three shared storage nodes that two coordinators
// (leader + standby) reach through SEPARATE fault transports — so the
// leader can be partitioned away while the standby's view stays clear,
// which is exactly the asymmetric split a real fail-over sees.
type failoverHarness struct {
	nodes []*netdev.Node
	specs []NodeSpec
}

func newFailoverHarness(t *testing.T) *failoverHarness {
	t.Helper()
	h := &failoverHarness{}
	for i := 0; i < 3; i++ {
		id := []string{"alpha", "beta", "gamma"}[i]
		n := netdev.NewMemNode(id)
		srv := httptest.NewServer(n.Handler())
		t.Cleanup(srv.Close)
		h.nodes = append(h.nodes, n)
		h.specs = append(h.specs, NodeSpec{ID: id, URL: srv.URL})
	}
	return h
}

// coordOptions builds one coordinator's view of the shared nodes: its
// own state dir, its own fault transports, its own holder identity.
func (h *failoverHarness) coordOptions(t *testing.T, holder string, seed int64) (Options, map[string]*netdev.FaultTransport) {
	t.Helper()
	faults := map[string]*netdev.FaultTransport{}
	for i, s := range h.specs {
		faults[s.ID] = netdev.NewFaultTransport(nil, seed+int64(i))
	}
	opts := Options{
		Dir:   t.TempDir(),
		Nodes: h.specs,
		Client: netdev.Options{
			Timeout:          250 * time.Millisecond,
			MaxAttempts:      2,
			BaseDelay:        time.Millisecond,
			MaxDelay:         5 * time.Millisecond,
			BreakerThreshold: 4,
			BreakerCooldown:  40 * time.Millisecond,
			ProbeInterval:    25 * time.Millisecond,
			// Grace 0: never declare a node lost. The leader's failure
			// mode under test is deposition (stale epoch), not node
			// eviction — a partitioned ex-leader must come back to find
			// itself fenced, not start healing a phantom topology.
			Grace: 0,
			Seed:  seed,
		},
		Engine: engine.Options{
			Workers: 4,
			Health: &engine.HealthPolicy{
				EvictAfter:        3,
				QuarantineProbe:   30 * time.Millisecond,
				QuarantineProbeOK: 2,
			},
		},
		Transport:  func(n NodeSpec) http.RoundTripper { return faults[n.ID] },
		Holder:     holder,
		LeaseRenew: 25 * time.Millisecond,
	}
	return opts, faults
}

// TestClusterFailoverChaosSweep is the fail-over durability oracle: a
// mixed workload runs against leader A; at a seeded random point A is
// partitioned from every node (even seeds drop traffic outright, odd
// seeds let requests land but drop the acks — the nastier half-open
// split). Standby B watches the lease heartbeat, takes over with a
// higher fencing epoch, and must serve every write A acked bit-exactly.
// When A's partition heals, its writes must be provably rejected by the
// node quorum with the stale-epoch sentinel — the split-brain race.
func TestClusterFailoverChaosSweep(t *testing.T) {
	seeds := []int64{7, 18}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runFailoverSweep(t, seed)
		})
	}
}

func runFailoverSweep(t *testing.T, seed int64) {
	h := newFailoverHarness(t)
	optsA, faultsA := h.coordOptions(t, "coord-a", seed)
	optsA.Format = &FormatSpec{Disks: 9, Cycles: 2, StripBytes: 512}
	cA, err := Open(optsA)
	if err != nil {
		t.Fatalf("open leader: %v", err)
	}
	epochA := cA.Epoch()
	if epochA == 0 {
		t.Fatalf("HA leader has epoch 0")
	}

	strips := cA.Eng.Strips()
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
		if err := cA.Eng.WriteStrip(s, pattern(s, 1)); err != nil {
			t.Fatalf("preload %d: %v", s, err)
		}
		oracle[s].Store(1)
		attempted[s].Store(1)
	}

	// Standby B watches the heartbeat from the start.
	optsB, _ := h.coordOptions(t, "coord-b", seed+1000)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	type sbRes struct {
		c   *Cluster
		err error
	}
	resCh := make(chan sbRes, 1)
	go func() {
		c, err := Standby(ctx, optsB, StandbyOptions{Poll: 20 * time.Millisecond, FailoverAfter: 250 * time.Millisecond})
		resCh <- sbRes{c, err}
	}()

	// Mixed workload on A: workers own disjoint strips, bump versions,
	// and record acked vs attempted. A worker abandons ship once A is
	// clearly dead (persistent errors or a stale-epoch verdict).
	const workers = 3
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ver := int64(1)
			for {
				select {
				case <-stop:
					return
				default:
				}
				ver++
				for s := int64(w); s < strips; s += workers {
					attempted[s].Store(ver)
					acked := false
					for attempt := 0; attempt < 40; attempt++ {
						err := cA.Eng.WriteStrip(s, pattern(s, ver))
						if err == nil {
							oracle[s].Store(ver)
							acked = true
							break
						}
						if errors.Is(err, store.ErrStaleEpoch) {
							return // deposed: this coordinator is done
						}
						select {
						case <-stop:
							return
						case <-time.After(2 * time.Millisecond):
						}
					}
					if !acked {
						return // A unreachable for the whole budget: dead
					}
				}
			}
		}(w)
	}

	// Leader must stay leader while its heartbeat is healthy: the
	// standby must NOT fire during this quiet-but-alive window (longer
	// than FailoverAfter).
	rng := rand.New(rand.NewSource(seed))
	time.Sleep(400 * time.Millisecond)
	select {
	case r := <-resCh:
		t.Fatalf("standby took over while leader alive: %+v %v", r.c, r.err)
	default:
	}

	// Kill the leader at a seeded random point in the workload. Odd
	// seeds use the asymmetric partition: A's writes keep LANDING on the
	// nodes without acks, so its stale data plane keeps firing into B's
	// reign until fencing stops it — the split-brain race in the flesh.
	time.Sleep(time.Duration(30+rng.Intn(150)) * time.Millisecond)
	part := netdev.PartDrop
	if seed%2 == 1 {
		part = netdev.PartAsym
	}
	killedAt := time.Now()
	for _, f := range faultsA {
		f.SetPartition(part)
	}

	// Standby detects the stall and takes over.
	var cB *Cluster
	select {
	case r := <-resCh:
		if r.err != nil {
			t.Fatalf("standby takeover: %v", r.err)
		}
		cB = r.c
	case <-time.After(20 * time.Second):
		t.Fatalf("standby never took over")
	}
	failoverTime := time.Since(killedAt)
	defer cB.Close()
	t.Logf("seed %d: fail-over in %v (partition=%v)", seed, failoverTime, part)

	if cB.Epoch() <= epochA {
		t.Fatalf("takeover epoch %d not above deposed leader's %d", cB.Epoch(), epochA)
	}

	// Drain A's workers, then verify on B: every strip must hold some
	// version in [acked, attempted] with bit-exact content. Acked writes
	// below the window would mean the quorum lost durable state; content
	// mismatches would mean A's zombie writes leaked past the fence.
	close(stop)
	wg.Wait()
	for s := int64(0); s < strips; s++ {
		got, err := cB.Eng.ReadStrip(s)
		if err != nil {
			t.Fatalf("B read %d: %v", s, err)
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
	rep, err := cB.Eng.Fsck(context.Background(), false)
	if err != nil || !rep.Clean {
		t.Fatalf("fsck on B after takeover: %v %+v", err, rep)
	}

	// Heal A's partition: the ex-leader comes back to a world that has
	// moved on. Its renewals latch the deposed flag, and its writes are
	// rejected by the nodes with the stale-epoch sentinel — never
	// applied, never counted as disk faults.
	for _, f := range faultsA {
		f.SetPartition(netdev.PartNone)
	}
	deadline := time.Now().Add(10 * time.Second)
	for !cA.Deposed() && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if !cA.Deposed() {
		t.Fatalf("healed ex-leader never noticed its deposition")
	}
	// Deterministic wire-level proof of the fence: a metadata append
	// carrying A's epoch bounces off every node that promised B's. The
	// epoch check runs before the generation check node-side, so the
	// rejection must be stale-epoch proper, not a stale-gen artifact. A's
	// breaker for a node may still be open from the partition, and its
	// "circuit open" is A's own answer, not the node's: a transient answer
	// is asked again until the node is heard.
	staleRejected := 0
	for _, id := range []string{"alpha", "beta", "gamma"} {
		var err error
		for probeEnd := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
			_, err = cA.Client(id).Blob(metaBlobJournal0).AtGen(1).WriteAt(make([]byte, 1), 0)
			if !store.IsTransient(err) || time.Now().After(probeEnd) {
				break
			}
		}
		if errors.Is(err, store.ErrStaleEpoch) && !errors.Is(err, netdev.ErrStaleGen) {
			staleRejected++
		}
	}
	if staleRejected < 2 {
		t.Fatalf("only %d/3 nodes fenced A's metadata append", staleRejected)
	}

	// The data plane is fenced too, though what surfaces depends on what
	// the partition left behind: once the deposition latches, the serving
	// mode drops to read-only and writes die at admission (ErrReadOnly);
	// before that, a clean strip write dies on its fenced quorum journal
	// append (ErrStaleEpoch), and one whose cycle still holds an
	// abandoned intent record parks on the conflict/replay errors (the
	// replay itself is fenced, so the record can never clear). All are
	// rejections — what must never happen is an ack.
	staleDeadline := time.Now().Add(10 * time.Second)
	var staleErr error
	for time.Now().Before(staleDeadline) {
		staleErr = cA.Eng.WriteStrip(0, pattern(0, 1<<20))
		if staleErr == nil {
			t.Fatalf("deposed ex-leader acked a strip write")
		}
		if errors.Is(staleErr, store.ErrStaleEpoch) || errors.Is(staleErr, store.ErrReadOnly) {
			break
		}
		if !errors.Is(staleErr, store.ErrIntentConflict) && !errors.Is(staleErr, store.ErrIntentReplay) &&
			!store.IsTransient(staleErr) {
			t.Fatalf("ex-leader write after heal = %v, want a fence/conflict rejection", staleErr)
		}
		time.Sleep(10 * time.Millisecond) // breakers may still be cooling down
	}
	if st := cA.Eng.Status(); len(st.Failed) != 0 {
		t.Fatalf("stale-epoch rejections evicted disks on the ex-leader: %v", st.Failed)
	}

	// The node quorum has promised B's epoch to B.
	promised := 0
	for _, id := range []string{"alpha", "beta", "gamma"} {
		st, err := cB.Client(id).Stat()
		if err == nil && st.Epoch == cB.Epoch() && st.Holder == "coord-b" {
			promised++
		}
	}
	if promised < 2 {
		t.Fatalf("only %d/3 nodes promised B's epoch", promised)
	}

	// B's reign is live: fresh writes ack and read back.
	for s := int64(0); s < 4; s++ {
		want := pattern(s, 1<<20)
		if err := cB.Eng.WriteStrip(s, want); err != nil {
			t.Fatalf("B write %d: %v", s, err)
		}
		got, err := cB.Eng.ReadStrip(s)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("B read-back %d: %v", s, err)
		}
	}

	// A deposed Close may fail its seal (fenced) — that must not panic
	// or hang, and unreachable/stale are the only acceptable verdicts.
	if err := cA.Close(); err != nil &&
		!errors.Is(err, store.ErrStaleEpoch) && !errors.Is(err, store.ErrUnreachable) {
		t.Fatalf("deposed close: %v", err)
	}
}

// TestClusterHARecoverFromQuorumAlone proves the metadata plane needs
// no coordinator-local state: the leader's entire state directory is
// lost with it, and a successor with an empty dir reassembles manifest
// and journal from the node quorum and serves the old acked data.
func TestClusterHARecoverFromQuorumAlone(t *testing.T) {
	h := newFailoverHarness(t)
	optsA, _ := h.coordOptions(t, "coord-a", 3)
	optsA.Format = &FormatSpec{Disks: 9, Cycles: 2, StripBytes: 512}
	cA, err := Open(optsA)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	data := make([]byte, 512)
	for s := int64(0); s < cA.Eng.Strips(); s++ {
		for i := range data {
			data[i] = byte(int64(i)*3 + s)
		}
		if err := cA.Eng.WriteStrip(s, data); err != nil {
			t.Fatalf("write %d: %v", s, err)
		}
	}
	if err := cA.Close(); err != nil {
		t.Fatalf("close A: %v", err)
	}

	// Successor: fresh dir, no Format — everything must come from the
	// quorum (the journal regions merge frame-by-frame, and the manifest
	// is one of their records).
	optsB, _ := h.coordOptions(t, "coord-b", 4)
	cB, err := Open(optsB)
	if err != nil {
		t.Fatalf("open successor from quorum: %v", err)
	}
	defer cB.Close()
	if cB.Epoch() <= 1 {
		t.Fatalf("successor epoch %d, want above the first reign", cB.Epoch())
	}
	man := cB.ManifestSnapshot()
	if len(man.Disks) != 9 || man.StripBytes != 512 {
		t.Fatalf("recovered manifest %+v", man)
	}
	for s := int64(0); s < cB.Eng.Strips(); s++ {
		got, err := cB.Eng.ReadStrip(s)
		if err != nil {
			t.Fatalf("read %d: %v", s, err)
		}
		for i := range data {
			data[i] = byte(int64(i)*3 + s)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("strip %d differs after quorum-only recovery", s)
		}
	}
	rep, err := cB.Eng.Fsck(context.Background(), false)
	if err != nil || !rep.Clean {
		t.Fatalf("fsck: %v %+v", err, rep)
	}
}

// TestClusterHACloseLeavesNoGoroutines is the HA leak guard: Close must
// drain the lease-renewal loop alongside the probe and breaker
// goroutines — a renewal firing after Close would be a zombie
// coordinator heartbeat.
func TestClusterHACloseLeavesNoGoroutines(t *testing.T) {
	h := newFailoverHarness(t)
	guard := testutil.NewLeakGuard()
	opts, _ := h.coordOptions(t, "coord-a", 9)
	opts.Format = &FormatSpec{Disks: 9, Cycles: 2, StripBytes: 512}
	c, err := Open(opts)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	data := make([]byte, 512)
	for s := int64(0); s < 8; s++ {
		if err := c.Eng.WriteStrip(s, data); err != nil {
			t.Fatalf("write: %v", err)
		}
	}
	// Let several renewal ticks fire so the loop is provably live.
	time.Sleep(100 * time.Millisecond)
	if err := c.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	guard.Check(t)
	// Idempotent: a second Close must not hang on the drained loop.
	if err := c.Close(); err != nil && !errors.Is(err, engine.ErrClosed) && !errors.Is(err, store.ErrClosed) {
		t.Fatalf("second close: %v", err)
	}
}

// TestClusterHARejoinedNodeVotes: a node declared lost, healed around and
// then rejoined gets a fresh client, and that client must become the
// metadata voter the lease renews through — while the renewal loop keeps
// running. Beta's renewal counter advancing after the rejoin is the proof;
// under -race the swap must also be ordered against every renewal round.
func TestClusterHARejoinedNodeVotes(t *testing.T) {
	h := newFailoverHarness(t)
	opts, faults := h.coordOptions(t, "coord-a", 41)
	opts.Client.Grace = 300 * time.Millisecond
	opts.Format = &FormatSpec{Disks: 9, Cycles: 2, StripBytes: 512}
	c, err := Open(opts)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer c.Close()
	data := make([]byte, 512)
	// The manifest is a journal record: an HA open replicates the journal
	// regions and nothing else.
	for _, spec := range h.specs {
		st, err := c.Client(spec.ID).Stat()
		if err != nil {
			t.Fatalf("%s stat: %v", spec.ID, err)
		}
		if _, ok := st.Blobs[legacyManifestBlob]; ok {
			t.Fatalf("node %s holds a %q blob after an HA open", spec.ID, legacyManifestBlob)
		}
	}

	faults["beta"].SetPartition(netdev.PartDrop)
	deadline := time.Now().Add(30 * time.Second)
	for !c.Client("beta").Lost() && time.Now().Before(deadline) {
		for s := int64(0); s < c.Eng.Strips(); s++ {
			c.Eng.WriteStrip(s, data)
		}
	}
	if !c.Client("beta").Lost() {
		t.Fatalf("beta never declared lost")
	}
	for time.Now().Before(deadline) {
		for s := int64(0); s < c.Eng.Strips(); s++ {
			c.Eng.ReadStrip(s)
		}
		if len(c.DisksOn("beta")) == 0 && len(c.Eng.Status().Failed) == 0 && !c.Eng.Rebuilding() {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if n := len(c.DisksOn("beta")); n != 0 {
		t.Fatalf("beta still holds %d disks after the heal", n)
	}

	faults["beta"].SetPartition(netdev.PartNone)
	if _, err := c.RejoinNode(NodeSpec{ID: "beta"}); err != nil {
		t.Fatalf("rejoin: %v", err)
	}
	st, err := c.Client("beta").Stat()
	if err != nil {
		t.Fatalf("beta meta state: %v", err)
	}
	// The rejoin reclaims beta's stale media, but the blob table it sweeps
	// also holds beta's replicas of the metadata quorum: they must stay.
	for _, name := range []string{metaBlobJournal0, metaBlobJournal1} {
		if b, ok := st.Blobs[name]; !ok || b.Gen < 1 {
			t.Fatalf("beta's %s replica after the rejoin: %+v (present %v), want gen ≥ 1", name, b, ok)
		}
	}
	before := st.RenewSeq
	for time.Now().Before(deadline) && st.RenewSeq < before+3 {
		time.Sleep(opts.LeaseRenew)
		if st, err = c.Client("beta").Stat(); err != nil {
			t.Fatalf("beta meta state: %v", err)
		}
	}
	if st.RenewSeq < before+3 {
		t.Fatalf("beta's renewal counter %d → %d after the rejoin: the new client is not a voter", before, st.RenewSeq)
	}
	if c.Deposed() {
		t.Fatalf("leader deposed across the rejoin")
	}
}

// TestStandbyValidation pins the standby's preconditions and context
// hygiene.
func TestStandbyValidation(t *testing.T) {
	h := newFailoverHarness(t)
	if _, err := Standby(context.Background(), Options{Nodes: h.specs}, StandbyOptions{}); err == nil {
		t.Fatalf("standby without holder accepted")
	}
	if _, err := Standby(context.Background(), Options{Holder: "x"}, StandbyOptions{}); err == nil {
		t.Fatalf("standby without nodes accepted")
	}
	opts, _ := h.coordOptions(t, "coord-x", 11)
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	// No leader has ever run: signature never advances, but the nodes
	// answer — the standby WOULD take over, except there is nothing to
	// mount (no manifest, no format) and it must keep retrying until the
	// context ends rather than give up.
	if _, err := Standby(ctx, opts, StandbyOptions{Poll: 10 * time.Millisecond, FailoverAfter: 30 * time.Millisecond}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("standby with nothing to mount: %v, want deadline exceeded", err)
	}
}
