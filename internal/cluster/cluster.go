// Package cluster assembles an OI-RAID array whose disks live on remote
// storage nodes (internal/store/netdev) and runs the engine over it —
// the coordinator half of multi-node OI-RAID.
//
// Failure-domain mapping: one rule (placeNode) puts every disk on the
// eligible node holding the fewest disks, so a format places disk d on
// node d mod N. Losing a whole node is survivable only where each node's
// disk set is one the layout recovers from. Over 2 to 8 nodes that is 9
// disks on 3 or more, 16 on 4 or more, and 25 on exactly 5 or 8
// (TestPlacementCensus pins the table).
// The two-layer BIBD declustering spreads the rebuild load over every
// surviving disk.
//
// Reachability handling composes three existing mechanisms:
//
//   - Node down (transient): the NodeClient's OnDown hook marks the
//     node's disks down (engine.SetDiskDown), so foreground reads
//     reconstruct around them (store.Array read-avoid) instead of
//     stalling on retries and the serving mode counts them unavailable;
//     writes keep being attempted and return store.ErrUnreachable, which
//     the health monitor deliberately does not count toward eviction.
//     A down disk is not slow: slow-disk quarantine stays a verdict on
//     the disk's speed, and its counters do not move.
//   - Node back (OnUp): the down marks are cleared and the disks serve
//     reads again — no rebuild, nothing was evicted.
//   - Node lost (grace window elapsed): operations turn into permanent
//     errors (OnDown fires once more, and each disk gets a probe read so
//     an idle array hears of it too), the monitor evicts the node's
//     disks, and the engine's heal path rebuilds them onto replacement
//     devices provisioned on surviving nodes — with each replacement's
//     superblock blob rebound alongside (ArrayMeta.RebindSuperblock), so
//     the metadata plane follows the data off the dead node.
package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/oiraid/oiraid/internal/bibd"
	"github.com/oiraid/oiraid/internal/core"
	"github.com/oiraid/oiraid/internal/engine"
	"github.com/oiraid/oiraid/internal/layout"
	"github.com/oiraid/oiraid/internal/store"
	"github.com/oiraid/oiraid/internal/store/netdev"
)

// NodeSpec names one storage node.
type NodeSpec struct {
	ID  string `json:"id"`
	URL string `json:"url"`
}

// Placement records where one disk lives.
type Placement struct {
	Node   string `json:"node"`   // node ID
	Device string `json:"device"` // device name on that node
	Super  string `json:"super"`  // superblock blob name on that node
}

// Manifest is the coordinator's cluster map: which nodes exist and where
// each disk (and its superblock copy) currently lives. It is one record
// of the coordinator's metadata journal (manifestKey), beside the
// migration records that depend on it, and every membership change
// commits it as one synced append (Cluster.commit). It is a bootstrap
// hint, not the source of truth — the mount still assembles from the
// superblocks themselves (media-authoritative), so a stale manifest entry
// surfaces as a failed disk, never as silent corruption.
type Manifest struct {
	Nodes      []NodeSpec  `json:"nodes"`
	Disks      []Placement `json:"disks"`
	Cycles     int64       `json:"cycles"`
	StripBytes int         `json:"strip_bytes"`
}

// manifestKey is the manifest's record in the metadata journal's KV space.
const manifestKey = "cluster/manifest"

// The older coordinator format kept the manifest in a second store: a
// file in the state directory and, in HA mode, a blob on every node. Open
// refuses both by name instead of reading either.
const (
	legacyManifestFile = "cluster.json"
	legacyManifestBlob = "manifest"
)

// clone returns a copy that shares no slice with m.
func (m Manifest) clone() Manifest {
	m.Nodes = slices.Clone(m.Nodes)
	m.Disks = slices.Clone(m.Disks)
	return m
}

// ParseManifest decodes and validates a manifest record payload: nodes
// and disks present, positive geometry, unique node IDs, every disk
// placed on a known node.
func ParseManifest(raw []byte) (Manifest, error) {
	var m Manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return Manifest{}, fmt.Errorf("cluster: manifest: %w", err)
	}
	if len(m.Nodes) == 0 {
		return Manifest{}, errors.New("cluster: manifest has no nodes")
	}
	if len(m.Disks) == 0 {
		return Manifest{}, errors.New("cluster: manifest has no disks")
	}
	if m.Cycles <= 0 || m.StripBytes <= 0 {
		return Manifest{}, fmt.Errorf("cluster: manifest geometry %d cycles × %d strip bytes", m.Cycles, m.StripBytes)
	}
	ids := map[string]bool{}
	for _, n := range m.Nodes {
		if n.ID == "" {
			return Manifest{}, errors.New("cluster: manifest node with empty ID")
		}
		if ids[n.ID] {
			return Manifest{}, fmt.Errorf("cluster: duplicate node %q", n.ID)
		}
		ids[n.ID] = true
	}
	for d, p := range m.Disks {
		if !ids[p.Node] {
			return Manifest{}, fmt.Errorf("cluster: disk %d placed on unknown node %q", d, p.Node)
		}
		if p.Device == "" || p.Super == "" {
			return Manifest{}, fmt.Errorf("cluster: disk %d missing device or superblock name", d)
		}
	}
	return m, nil
}

// FormatSpec sizes a new cluster array.
type FormatSpec struct {
	Disks      int
	Cycles     int64
	StripBytes int
	// Degraded is the degradation policy stamped into the superblocks:
	// what a mount does when the failure pattern is beyond tolerance
	// (default DegradedRefuse).
	Degraded store.DegradedPolicy
}

// Options configures Open.
type Options struct {
	// Dir is the coordinator's state directory: the two regions of its
	// metadata journal (meta0.journal, meta1.journal), which hold the
	// manifest beside the migration records. Empty runs volatile (journal
	// in memory) — tests only. In HA mode the regions live on the node
	// quorum and these files are only their local read cache.
	Dir string
	// Nodes lists the storage nodes. Required when no manifest exists.
	Nodes []NodeSpec
	// Client is the per-node client template; ExpectID is filled per
	// node, Seed is offset per node.
	Client netdev.Options
	// Engine configures the engine. Health must be set for a cluster
	// (its eviction path heals the disks of a lost node); Open
	// installs a default policy when it is nil. Replace is overridden
	// by the cluster's own provisioner.
	Engine engine.Options
	// Transport, when set, supplies the HTTP transport per node — the
	// fault-injection hook for partition tests.
	Transport func(NodeSpec) http.RoundTripper
	// Format, when set and the journal holds no manifest yet, formats a new
	// array of this size across the nodes.
	Format *FormatSpec
	// Holder, when non-empty, runs the coordinator in HA mode under
	// this identity: it acquires a fenced lease from a node quorum at
	// open (deposing any previous coordinator), replicates every
	// metadata-journal append — manifest commits included — to a
	// majority of nodes before acking, and renews the lease so a standby
	// can detect its death. Empty keeps the classic single-coordinator
	// behavior. HA mode requires Nodes (the manifest itself lives
	// behind the quorum, so the node list must come from config). The
	// first HA open over a classic Dir seeds the quorum from its journal.
	Holder string
	// LeaseRenew is the lease renewal interval in HA mode
	// (default 100ms).
	LeaseRenew time.Duration

	// onMigrateResume, when set (tests), observes every migration record
	// the resume path picks up, before the migration continues.
	onMigrateResume func(MigrationRecord)
	// journalBlob, when set (tests), supplies the coordinator's own copy
	// of a journal region (meta0.journal, meta1.journal) in place of
	// Dir's file: the crash-cut sweeps hand in store.CrashBlobs.
	journalBlob func(file string) store.Blob
}

// Cluster is a mounted multi-node array: the engine plus the node
// clients it rides on.
type Cluster struct {
	Eng   *engine.Engine
	Mount *store.Mount

	dir      string
	journal  *store.MetaJournal // the manifest record, migration records, the array's metadata
	mu       sync.Mutex         // guards manifest + its commit + clients/order
	manifest Manifest

	clients map[string]*netdev.NodeClient // node ID → client
	order   []string                      // node IDs in manifest order
	// retired holds clients for nodes that left the membership (drain)
	// or were replaced by a fresh client (rejoin after lost): they stay
	// open until Close — in HA mode the replicator may still count them
	// as metadata voters for the rest of the reign.
	retired []*netdev.NodeClient

	replaceSeq atomic.Int64 // suffix for replacement device names

	// Client-template state for building clients after Open (AddNode,
	// RejoinNode): the option template, the per-node transport hook, the
	// shared fence (HA only, nil otherwise), and the seed counter that
	// keeps jitter streams de-correlated across clients.
	copts     netdev.Options
	transport func(NodeSpec) http.RoundTripper
	fence     *netdev.FenceToken
	nodeSeq   atomic.Int64
	engPtr    atomic.Pointer[engine.Engine]

	// Membership/migration state. memberMu serialises membership
	// operations (one migration plan at a time); draining marks nodes
	// that must not receive new placements while their disks move off.
	memberMu sync.Mutex
	draining map[string]bool // guarded by mu
	migStop  chan struct{}
	stopMig  sync.Once
	migWg    sync.WaitGroup
	// onMigrateResume and journalBlob are Options' test hooks.
	onMigrateResume func(MigrationRecord)
	journalBlob     func(file string) store.Blob

	// HA mode (nil/zero in classic mode).
	rep        *replicator
	leaseEvery time.Duration
	renewStop  chan struct{}
	stopRenew  sync.Once
	renewWg    sync.WaitGroup
}

// Open mounts (or formats) the cluster array and starts the engine.
// With Options.Holder set this is also the takeover path: acquire a
// fenced lease at a fresh epoch, reassemble the metadata plane from the
// node quorum, and resume — a standby calls exactly this.
func Open(opts Options) (_ *Cluster, err error) {
	ha := opts.Holder != ""
	// The client-template state is kept on the Cluster so membership
	// changes can build identically-configured clients after Open.
	c := &Cluster{
		dir:             opts.Dir,
		clients:         map[string]*netdev.NodeClient{},
		copts:           opts.Client,
		transport:       opts.Transport,
		draining:        map[string]bool{},
		migStop:         make(chan struct{}),
		onMigrateResume: opts.onMigrateResume,
		journalBlob:     opts.journalBlob,
	}
	if ha {
		if len(opts.Nodes) == 0 {
			return nil, errors.New("cluster: HA mode requires the node list")
		}
		c.leaseEvery = opts.LeaseRenew
		if c.leaseEvery <= 0 {
			c.leaseEvery = defaultLeaseRenew
		}
		c.renewStop = make(chan struct{})
		c.fence = &netdev.FenceToken{}
	}
	if c.dir != "" {
		if err := os.MkdirAll(c.dir, 0o755); err != nil {
			return nil, err
		}
		old := filepath.Join(c.dir, legacyManifestFile)
		if _, err := os.Stat(old); err == nil {
			return nil, fmt.Errorf("cluster: %s is the manifest file of an older coordinator format: "+
				"the manifest is now a record of the metadata journal and the file is never read", old)
		}
	}

	// Every failed exit below unwinds here: before the engine exists the
	// clients and the journal (or its region blobs) are closed directly,
	// after it the engine's Close closes them (OnClose below).
	var j0, j1 store.Blob
	var eng *engine.Engine
	defer func() {
		if err == nil {
			return
		}
		if eng != nil {
			eng.Close()
			return
		}
		for _, cl := range c.clients {
			cl.Close()
		}
		if c.journal != nil {
			c.journal.Close()
			return
		}
		for _, j := range []store.Blob{j0, j1} {
			if j != nil {
				j.Close()
			}
		}
	}()

	// The metadata journal comes first: its manifest record names the
	// geometry and the nodes everything below binds. Classic mode keeps
	// the regions coordinator-local. HA mode runs the fenced takeover —
	// lease first (deposing any rival), then the regions from the quorum,
	// quorum-wrapped so every append is majority-durable before it acks —
	// over the configured nodes, whose clients the replicator gets a fixed
	// snapshot of: the metadata voter set stays put for the reign even if
	// AddNode or DrainNode changes the data-plane node list afterwards.
	if ha {
		c.addClientsLocked(opts.Nodes)
		c.rep = &replicator{holder: opts.Holder, fence: c.fence,
			order: slices.Clone(c.order), clients: c.clientsInOrderLocked()}
		j0, j1, err = c.takeover()
	} else if j0, err = c.localBlob("meta0.journal"); err == nil {
		j1, err = c.localBlob("meta1.journal")
	}
	if err != nil {
		return nil, err
	}
	if c.journal, err = store.OpenMetaJournal(j0, j1); err != nil {
		return nil, err
	}
	man, loaded, err := journaledManifest(c.journal)
	if err != nil {
		return nil, err
	}
	if !loaded {
		if opts.Format == nil {
			return nil, errors.New("cluster: no manifest in the metadata journal and no format spec")
		}
		if len(opts.Nodes) == 0 {
			return nil, errors.New("cluster: no nodes")
		}
		man = buildManifest(opts.Nodes, *opts.Format)
	}
	if ha {
		if err := nodesMatch(man.Nodes, opts.Nodes); err != nil {
			return nil, err
		}
	} else {
		c.addClientsLocked(man.Nodes)
	}

	// Geometry: disks count from the manifest placements.
	an, err := analyzerFor(len(man.Disks))
	if err != nil {
		return nil, err
	}
	strips := man.Cycles * int64(an.SlotsPerDisk())

	// Bind devices and superblock blobs per placement.
	devs := make([]store.Device, len(man.Disks))
	sbs := make([]store.Blob, len(man.Disks))
	for d, p := range man.Disks {
		cl, ok := c.clients[p.Node]
		if !ok {
			return nil, fmt.Errorf("cluster: disk %d placed on unknown node %q", d, p.Node)
		}
		if loaded {
			// Bind blind: geometry comes from the manifest, verification
			// from the superblocks at mount. Asking the node here would
			// make an unreachable node block a degraded mount.
			devs[d], sbs[d] = cl.Device(p.Device, strips, man.StripBytes), cl.Blob(p.Super)
		} else {
			devs[d], err = cl.CreateDevice(p.Device, strips, man.StripBytes)
			if err == nil {
				sbs[d], err = cl.CreateBlob(p.Super)
			}
		}
		if err != nil {
			return nil, fmt.Errorf("cluster: disk %d on node %s: %w", d, p.Node, err)
		}
	}

	// A format starts the journal afresh — whatever a journal without a
	// manifest holds belongs to no array — and commits the manifest last:
	// a crash before that commit leaves a journal without one, and the
	// next open formats again.
	var mnt *store.Mount
	if loaded {
		c.manifest = man
		mnt, err = store.MountWithJournal(an, devs, sbs, c.journal)
	} else if mnt, err = store.FormatArray(an, devs, sbs, j0, j1, store.WithDegradedPolicy(opts.Format.Degraded)); err == nil {
		c.journal = mnt.Meta.Journal()
		err = c.commit(func(m *Manifest) { *m = man }, nil)
	}
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	if !ha && c.dir == "" && c.journalBlob == nil {
		c.journal.SetCompactThreshold(memJournalCompactAt)
	}

	eopts := opts.Engine
	if eopts.Health == nil {
		eopts.Health = &engine.HealthPolicy{}
	}
	eopts.Replace = c.provisionReplacement
	if eng, err = engine.New(mnt.Array, eopts); err != nil {
		return nil, err
	}
	c.engPtr.Store(eng)
	// Node clients close at the very end of engine shutdown: the seal
	// writes superblocks through them, and the drain guarantees no
	// probe/callback goroutine outlives Close. Retired clients (nodes
	// drained or replaced after a rejoin) close here too — they may have
	// stayed metadata voters for the reign.
	eng.OnClose(func() error {
		c.mu.Lock()
		cls := append(c.clientsInOrderLocked(), c.retired...)
		c.mu.Unlock()
		var first error
		for _, cl := range cls {
			if err := cl.Close(); err != nil && first == nil {
				first = err
			}
		}
		return first
	})

	c.Eng = eng
	c.Mount = mnt
	// Replacement names must not collide across coordinator restarts:
	// continue from the count of non-original placements.
	c.replaceSeq.Store(int64(replacementCount(man)))
	if ha {
		c.renewWg.Add(1)
		go c.renewLoop()
	}
	// Resume any migration a previous coordinator (or a previous run of
	// this one) left mid-flight: the records are committed journal
	// entries, so the successor picks up from the last committed range.
	c.resumeMigrations()
	// A node that was already unreachable at mount shows up as failed
	// disks (the mount detected their superblocks missing); the engine
	// heals them like any other failure once ops start flowing.
	return c, nil
}

// addClientsLocked builds a client per node and appends the nodes to the
// order. Safe before the Cluster is published (Open) or with c.mu held.
// The engine does not exist yet at Open, so the reachability hooks go
// through an atomic pointer Open fills in later.
func (c *Cluster) addClientsLocked(nodes []NodeSpec) {
	for _, n := range nodes {
		c.clients[n.ID] = c.newClientLocked(n)
		c.order = append(c.order, n.ID)
	}
}

// clientsInOrderLocked lists the member clients in order. Caller holds
// c.mu, or Open has not published the Cluster yet.
func (c *Cluster) clientsInOrderLocked() []*netdev.NodeClient {
	cls := make([]*netdev.NodeClient, len(c.order))
	for i, id := range c.order {
		cls[i] = c.clients[id]
	}
	return cls
}

// newClientLocked builds a node client from the stored template. Safe
// before the Cluster is published (Open) or with c.mu held.
func (c *Cluster) newClientLocked(n NodeSpec) *netdev.NodeClient {
	idx := c.nodeSeq.Add(1) - 1
	copts := c.copts
	copts.ExpectID = n.ID
	copts.Seed = c.copts.Seed + idx*7919
	if c.transport != nil {
		copts.Transport = c.transport(n)
	}
	id := n.ID
	copts.OnDown = func() { c.nodeDown(c.engPtr.Load(), id) }
	copts.OnUp = func() { c.nodeUp(c.engPtr.Load(), id) }
	cl := netdev.NewNodeClient(n.URL, copts)
	if c.fence != nil {
		cl.SetFence(c.fence)
	}
	return cl
}

// Close shuts the engine down (which seals metadata, then closes the
// node clients via the OnClose hook). In HA mode the lease renewal
// loop stops first — the seal's journal appends still replicate, and
// no renewal goroutine may outlive Close.
func (c *Cluster) Close() error {
	// Migrations first: their copy loops pace on migStop, so they park
	// their records (quorum-committed cursor) and exit promptly; the next
	// open resumes them.
	c.stopMig.Do(func() { close(c.migStop) })
	c.migWg.Wait()
	c.stopRenewing()
	c.renewWg.Wait()
	return c.Eng.Close()
}

// stopRenewing ends the lease renewals of an HA coordinator: at Close, and
// when its journal fail-stops, so a standby sees the heartbeat stall and
// takes over a coordinator that can no longer commit.
func (c *Cluster) stopRenewing() {
	if c.renewStop != nil {
		c.stopRenew.Do(func() { close(c.renewStop) })
	}
}

// Client returns the node client for id (tests, CLI surfacing).
func (c *Cluster) Client(id string) *netdev.NodeClient {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.clients[id]
}

// Manifest returns a copy of the current cluster map.
func (c *Cluster) ManifestSnapshot() Manifest {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.manifest.clone()
}

// DisksOn lists the disk indices currently placed on node id.
func (c *Cluster) DisksOn(id string) []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []int
	for d, p := range c.manifest.Disks {
		if p.Node == id {
			out = append(out, d)
		}
	}
	return out
}

// nodeDown marks every disk on the node down: reads reconstruct around
// them (the partition would otherwise stall every read that lands on the
// node for a full retry budget), writes keep probing the path, and enough
// downed paths across nodes demote the array to read-only/partial service
// from the survivors instead of acking writes it cannot protect.
//
// The hook fires once more when the grace window declares the node lost.
// Reads avoid a down disk and an idle array sends it nothing, so each disk
// then gets one probe read: its ErrNodeLost is how the engine's monitor
// learns of the loss, and it evicts the disk and heals it onto the
// survivors.
func (c *Cluster) nodeDown(eng *engine.Engine, id string) {
	if eng == nil {
		return
	}
	cl := c.Client(id)
	lost := cl != nil && cl.Lost()
	buf := make([]byte, eng.StripBytes())
	for _, d := range c.DisksOn(id) {
		// Best effort: a closed engine says no, and then nothing is probed.
		if err := eng.SetDiskDown(d, true); err == nil && lost {
			_ = eng.Array().ProbeDiskStrip(d, 0, buf) // its error is the report the monitor reads
		}
	}
}

// nodeUp clears the node's down marks: the disks were healthy the whole
// time, nothing needs rebuilding. The serving mode recomputes toward
// normal and a rebuild the partition starved is re-kicked.
func (c *Cluster) nodeUp(eng *engine.Engine, id string) {
	if eng == nil {
		return
	}
	for _, d := range c.DisksOn(id) {
		_ = eng.SetDiskDown(d, false)
	}
	// A down episode can leave half-committed parity closures: a commit
	// whose write to this node failed (or whose ack was lost) left its
	// redo record pending. Replay them now that the node is back so
	// every stripe is self-consistent again — the cluster's equivalent
	// of a post-rejoin resync.
	eng.Array().RecoverIntent()
}

// nodeStateLocked is node id's state as NodeStatus reports it: ok, down,
// lost or draining. Caller holds c.mu.
func (c *Cluster) nodeStateLocked(id string) string {
	switch cl := c.clients[id]; {
	case cl == nil || cl.Lost():
		return "lost"
	case cl.Down():
		return "down"
	case c.draining[id]:
		return "draining"
	}
	return "ok"
}

// eligibleLocked reports whether node id may receive a disk: only an ok
// node does. Caller holds c.mu.
func (c *Cluster) eligibleLocked(id string) bool { return c.nodeStateLocked(id) == "ok" }

// provisionReplacement is the engine's Replace hook: a new device for
// disk d on a surviving node, the manifest committed with its placement,
// and the superblock copy rebound next to it — the step that moves a dead
// node's disk to live hardware.
func (c *Cluster) provisionReplacement(d int) (store.Device, error) {
	c.mu.Lock()
	if d < 0 || d >= len(c.manifest.Disks) {
		c.mu.Unlock()
		return nil, fmt.Errorf("%w: disk %d", store.ErrNoSuchDisk, d)
	}
	best := placeNode(c.order, c.manifest.Disks, c.eligibleLocked)
	cl := c.clients[best]
	c.mu.Unlock()
	if best == "" {
		return nil, fmt.Errorf("%w: no reachable node for replacement of disk %d", store.ErrUnreachable, d)
	}

	seq := c.replaceSeq.Add(1)
	p := Placement{Node: best, Device: fmt.Sprintf("disk%02d-r%d", d, seq), Super: fmt.Sprintf("sb%02d-r%d", d, seq)}
	an := c.Mount.Array.Analyzer()
	strips := c.Mount.Array.Cycles() * int64(an.SlotsPerDisk())
	dev, err := cl.CreateDevice(p.Device, strips, c.Mount.Array.StripBytes())
	if err != nil {
		return nil, fmt.Errorf("cluster: provision disk %d on %s: %w", d, best, err)
	}
	sb, err := cl.CreateBlob(p.Super)
	if err != nil {
		return nil, fmt.Errorf("cluster: provision superblock %d on %s: %w", d, best, err)
	}
	if err := c.commit(func(m *Manifest) { m.Disks[d] = p }, nil); err != nil {
		return nil, err
	}
	if err := c.Mount.Meta.RebindSuperblock(d, sb); err != nil {
		return nil, err
	}
	return dev, nil
}

// commit is the coordinator's one membership commit: edit turns a copy of
// the installed manifest into the next one, which is appended to the
// metadata journal as one synced record and only then installed, along
// with install's matching change to the clients and order. A failed
// commit leaves memory as it was, and the log too (restate). Format,
// replacement, add, drain, rejoin and the migration flip all commit here.
func (c *Cluster) commit(edit func(*Manifest), install func()) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	next := c.manifest.clone()
	edit(&next)
	raw, err := json.Marshal(next)
	if err != nil {
		return err
	}
	if err := c.journal.PutKV(manifestKey, raw, true); err != nil {
		return c.restate(fmt.Errorf("cluster: commit manifest: %w", err))
	}
	c.manifest = next
	if install != nil {
		install()
	}
	return nil
}

// restate answers a failed commit, whose record may reach the log all the
// same: its append can land with only the sync failing, or stay claimed in
// the journal's unacknowledged suffix, which the next append re-sends. A
// reopen would then bind a placement this run never used — one whose
// destination an abandoned flip has already reclaimed. So the installed
// manifest (none, before a format's commit) is journaled again, synced,
// behind it. When that fails too, the journal is closed: fail-stop until a
// reopen, so nothing this run appends can carry the record into the log,
// and the error wraps store.ErrClosed, on which a migration parks, keeping
// both placements for the reopen to settle; an HA coordinator also stops
// renewing its lease, handing over to a standby. Caller holds c.mu.
func (c *Cluster) restate(cause error) error {
	var err error
	if len(c.manifest.Disks) == 0 {
		err = c.journal.DeleteKV(manifestKey, true)
	} else {
		var raw []byte
		if raw, err = json.Marshal(c.manifest); err == nil {
			err = c.journal.PutKV(manifestKey, raw, true)
		}
	}
	if err == nil {
		return cause
	}
	c.journal.Close()
	c.stopRenewing()
	return fmt.Errorf("%w; restating the installed manifest: %w; journal stopped: %w", cause, err, store.ErrClosed)
}

// journaledManifest reads the manifest record out of the journal; ok is
// false when it holds none (no format has committed yet).
func journaledManifest(j *store.MetaJournal) (m Manifest, ok bool, err error) {
	raw, ok := j.GetKV(manifestKey)
	if !ok {
		return Manifest{}, false, nil
	}
	if m, err = ParseManifest(raw); err != nil {
		return Manifest{}, false, err
	}
	return m, true, nil
}

// memJournalCompactAt is the compaction trigger of a volatile coordinator's
// journal, a quarter of a file journal's. Its regions are heap memory and a
// compaction of them syncs nothing, so it compacts four times as often and
// holds a quarter of the frames a file journal lets pile up in between: on
// a one-cycle 4 KiB-strip cluster that is about 0.7 MiB less heap at the
// top of the journal's sawtooth. Measured on the bench's cluster-4k over
// ten alternating 20 s runs with one HTTP request per strip op, it alone
// took mem_peak_mb from 22.2 to 20.8 MiB and left setup_s level.
const memJournalCompactAt = 256 << 10

// localBlob opens the coordinator's own copy of a journal region: a file
// in the state directory, or memory for a volatile coordinator.
func (c *Cluster) localBlob(file string) (store.Blob, error) {
	switch {
	case c.journalBlob != nil:
		return c.journalBlob(file), nil
	case c.dir == "":
		return store.NewMemBlob(), nil
	}
	b, err := store.CreateFileBlob(filepath.Join(c.dir, file))
	if err != nil {
		return nil, err // an untyped nil: Open's cleanup closes what is non-nil
	}
	return b, nil
}

// buildManifest places the disks one at a time by placeNode, which on
// empty nodes is disk d on node d mod N. For the canonical 9-disk
// geometry on 3 nodes this yields {0,3,6}, {1,4,7}, {2,5,8}, each a set
// the layout recovers from; on other geometries and node counts some
// node's set may not be (TestPlacementCensus).
func buildManifest(nodes []NodeSpec, spec FormatSpec) Manifest {
	m := Manifest{
		Nodes:      append([]NodeSpec(nil), nodes...),
		Cycles:     spec.Cycles,
		StripBytes: spec.StripBytes,
	}
	ids := make([]string, len(nodes))
	for i, n := range nodes {
		ids[i] = n.ID
	}
	every := func(string) bool { return true }
	for d := 0; d < spec.Disks; d++ {
		m.Disks = append(m.Disks, Placement{
			Node:   placeNode(ids, m.Disks, every),
			Device: fmt.Sprintf("disk%02d", d),
			Super:  fmt.Sprintf("sb%02d", d),
		})
	}
	return m
}

// replacementCount counts placements that are not original ("diskNN")
// names, seeding the replacement sequence after a restart.
func replacementCount(m Manifest) int {
	n := 0
	for d, p := range m.Disks {
		if p.Device != fmt.Sprintf("disk%02d", d) {
			n++
		}
	}
	return n
}

// placeNode is the cluster's one node-placement rule: among the eligible
// nodes of order, the one holding the fewest of disks, ties broken by
// order. It returns "" when no node is eligible. Format, replacement
// provisioning, drain and rebalance all place through it.
func placeNode(order []string, disks []Placement, eligible func(id string) bool) string {
	load := diskLoad(disks)
	best := ""
	for _, id := range order {
		if eligible(id) && (best == "" || load[id] < load[best]) {
			best = id
		}
	}
	return best
}

// diskLoad counts the disks placed on each node.
func diskLoad(disks []Placement) map[string]int {
	load := map[string]int{}
	for _, p := range disks {
		load[p.Node]++
	}
	return load
}

// analyzerFor builds the OI-RAID analyzer for the given disk count.
func analyzerFor(disks int) (*core.Analyzer, error) {
	d, err := bibd.ForArray(disks)
	if err != nil {
		return nil, err
	}
	sch, err := layout.NewOIRAID(d)
	if err != nil {
		return nil, err
	}
	return core.NewAnalyzer(sch)
}
