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

// Manifest is the coordinator's persisted cluster map: which nodes
// exist and where each disk (and its superblock copy) currently lives.
// It is a bootstrap hint, not the source of truth — the mount still
// assembles from the superblocks themselves (media-authoritative), so a
// stale manifest entry surfaces as a failed disk, never as silent
// corruption.
type Manifest struct {
	Nodes      []NodeSpec  `json:"nodes"`
	Disks      []Placement `json:"disks"`
	Cycles     int64       `json:"cycles"`
	StripBytes int         `json:"strip_bytes"`
	// Epoch records the fencing epoch of the coordinator that wrote
	// this manifest (0 outside HA mode) — an audit trail for fsck and
	// takeover debugging, not an input to recovery.
	Epoch uint64 `json:"epoch,omitempty"`
	// Degraded is the array's degradation policy ("refuse", "read-only",
	// "partial") — what a mount does when the committed failure pattern
	// is beyond tolerance. Empty means refuse (the historic behaviour).
	// It is stamped into the superblocks at format and also applied as a
	// per-mount override, so a manifest edit can relax the policy of an
	// array formatted before the field existed.
	Degraded string `json:"degraded_policy,omitempty"`
}

// ParseManifest decodes and sanity-checks a manifest image. Recovery
// reads replicas that may be torn mid-save, so structural validation is
// what separates "the last acked manifest" from "half a JSON object".
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
	if _, err := store.ParseDegradedPolicy(m.Degraded); err != nil {
		return Manifest{}, fmt.Errorf("cluster: manifest: %w", err)
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
	// Dir is the coordinator's state directory: cluster.json (the
	// manifest) and the metadata journal live here. Empty runs volatile
	// (in-memory journal, manifest not persisted) — tests only.
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
	// Format, when set and no cluster state exists yet, formats a new
	// array of this size across the nodes.
	Format *FormatSpec
	// Holder, when non-empty, runs the coordinator in HA mode under
	// this identity: it acquires a fenced lease from a node quorum at
	// open (deposing any previous coordinator), replicates every
	// manifest commit and metadata-journal append to a majority of
	// nodes before acking, and renews the lease so a standby can
	// detect its death. Empty keeps the classic single-coordinator
	// behavior. HA mode requires Nodes (the manifest itself lives
	// behind the quorum, so the node list must come from config).
	Holder string
	// LeaseRenew is the lease renewal interval in HA mode
	// (default 100ms).
	LeaseRenew time.Duration

	// onMigrateResume, when set (tests), observes every migration record
	// the resume path picks up, before the migration continues.
	onMigrateResume func(MigrationRecord)
}

// Cluster is a mounted multi-node array: the engine plus the node
// clients it rides on.
type Cluster struct {
	Eng   *engine.Engine
	Mount *store.Mount

	dir      string
	mu       sync.Mutex // guards manifest + persisted file + clients/order
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
	// onMigrateResume, when set (tests), observes every migration record
	// picked up by the resume path before it continues.
	onMigrateResume func(MigrationRecord)

	// HA mode (nil/zero in classic mode).
	rep        *replicator
	manGen     uint64 // manifest blob generation, guarded by mu
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
	c := &Cluster{dir: opts.Dir, clients: map[string]*netdev.NodeClient{}}
	if ha {
		if len(opts.Nodes) == 0 {
			return nil, errors.New("cluster: HA mode requires the node list")
		}
		c.leaseEvery = opts.LeaseRenew
		if c.leaseEvery <= 0 {
			c.leaseEvery = defaultLeaseRenew
		}
		c.renewStop = make(chan struct{})
	}

	// Local manifest: a bootstrap cache. In HA mode the quorum copy
	// recovered below overrides it; classic mode trusts it outright.
	loaded, err := c.loadManifest()
	if err != nil {
		return nil, err
	}
	nodeList := opts.Nodes
	if !ha && loaded {
		nodeList = c.manifest.Nodes
	}
	if !loaded && !ha {
		if opts.Format == nil {
			return nil, errors.New("cluster: no manifest and no format spec")
		}
		if len(opts.Nodes) == 0 {
			return nil, errors.New("cluster: no nodes")
		}
		c.manifest = buildManifest(opts.Nodes, *opts.Format)
	}

	// One client per node. The engine does not exist yet, so the
	// reachability hooks go through an atomic pointer filled in below.
	// The template state is kept on the Cluster so membership changes
	// can build identically-configured clients after Open.
	c.copts = opts.Client
	c.transport = opts.Transport
	c.draining = map[string]bool{}
	c.migStop = make(chan struct{})
	c.onMigrateResume = opts.onMigrateResume
	fence := &netdev.FenceToken{}
	if ha {
		c.fence = fence
	}
	voters := make([]*netdev.NodeClient, len(nodeList))
	for i, n := range nodeList {
		voters[i] = c.newClientLocked(n)
		c.clients[n.ID] = voters[i]
		c.order = append(c.order, n.ID)
	}
	// Every failed exit below unwinds here: before the engine exists the
	// clients and journal blobs are closed directly, after it the
	// engine's Close closes them (OnClose below).
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
		for _, j := range []store.Blob{j0, j1} {
			if j != nil {
				j.Close()
			}
		}
	}()

	// HA: fenced takeover — lease first (deposing any rival), then the
	// metadata plane from the quorum. The journal blobs come back
	// quorum-wrapped, so every append below is majority-durable before
	// it acks.
	if ha {
		// The replicator gets its own snapshot of the membership: the
		// metadata voter set is fixed for the reign even if AddNode or
		// DrainNode changes the data-plane node list afterwards.
		c.rep = &replicator{holder: opts.Holder, fence: fence,
			order: append([]string(nil), c.order...), clients: voters}
		var haveManifest bool
		if j0, j1, haveManifest, err = c.takeover(loaded); err != nil {
			return nil, err
		}
		if !haveManifest {
			if opts.Format == nil {
				return nil, errors.New("cluster: no manifest anywhere and no format spec")
			}
			c.manifest = buildManifest(opts.Nodes, *opts.Format)
		}
		loaded = haveManifest
		if err := nodesMatch(c.manifest.Nodes, opts.Nodes); err != nil {
			return nil, err
		}
	}
	man := c.manifest

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

	// Classic mode: the metadata journal is coordinator-local state —
	// the coordinator's own write-ahead record, not array media. (HA
	// mode replaced this above with quorum-replicated blobs, where the
	// local file is only the read cache.)
	if !ha {
		if j0, err = c.localBlob("meta0.journal"); err != nil {
			return nil, err
		}
		if j1, err = c.localBlob("meta1.journal"); err != nil {
			return nil, err
		}
	}

	// Degradation policy: the manifest's word applies at format (stamped
	// into the superblocks) and as the per-mount override, so editing the
	// manifest relaxes the policy of arrays formatted before the
	// superblock carried one.
	policy, err := store.ParseDegradedPolicy(man.Degraded)
	if err != nil {
		return nil, fmt.Errorf("cluster: manifest: %w", err)
	}
	var mnt *store.Mount
	if loaded {
		var mos []store.MountOption
		if man.Degraded != "" {
			mos = append(mos, store.WithMountDegradedPolicy(policy))
		}
		mnt, err = store.MountArray(an, devs, sbs, j0, j1, mos...)
	} else {
		mnt, err = store.FormatArray(an, devs, sbs, j0, j1, store.WithDegradedPolicy(policy))
	}
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
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
		cls := make([]*netdev.NodeClient, 0, len(c.clients)+len(c.retired))
		for _, id := range c.order {
			cls = append(cls, c.clients[id])
		}
		cls = append(cls, c.retired...)
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
	// Persist the manifest when it is new — and always in HA mode,
	// which stamps the new epoch and reseeds the quorum copy.
	if !loaded || ha {
		if err := c.saveManifest(); err != nil {
			return nil, err
		}
	}
	if ha {
		c.renewWg.Add(1)
		go c.renewLoop()
	}
	// Resume any migration a previous coordinator (or a previous run of
	// this one) left mid-flight: the records are quorum-committed KV
	// entries, so the successor picks up from the last committed range.
	c.resumeMigrations()
	// A node that was already unreachable at mount shows up as failed
	// disks (the mount detected their superblocks missing); the engine
	// heals them like any other failure once ops start flowing.
	return c, nil
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
	if c.renewStop != nil {
		c.stopRenew.Do(func() { close(c.renewStop) })
		c.renewWg.Wait()
	}
	return c.Eng.Close()
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
	m := c.manifest
	m.Nodes = append([]NodeSpec(nil), c.manifest.Nodes...)
	m.Disks = append([]Placement(nil), c.manifest.Disks...)
	return m
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
// disk d on a surviving node, with the superblock copy rebound next to
// it and the manifest updated — the step that moves a dead node's disk
// to live hardware.
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
	devName := fmt.Sprintf("disk%02d-r%d", d, seq)
	sbName := fmt.Sprintf("sb%02d-r%d", d, seq)
	an := c.Mount.Array.Analyzer()
	strips := c.Mount.Array.Cycles() * int64(an.SlotsPerDisk())
	dev, err := cl.CreateDevice(devName, strips, c.Mount.Array.StripBytes())
	if err != nil {
		return nil, fmt.Errorf("cluster: provision disk %d on %s: %w", d, best, err)
	}
	sb, err := cl.CreateBlob(sbName)
	if err != nil {
		return nil, fmt.Errorf("cluster: provision superblock %d on %s: %w", d, best, err)
	}
	if err := c.Mount.Meta.RebindSuperblock(d, sb); err != nil {
		return nil, err
	}

	c.mu.Lock()
	c.manifest.Disks[d] = Placement{Node: best, Device: devName, Super: sbName}
	err = c.saveManifestLocked()
	c.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return dev, nil
}

func (c *Cluster) manifestPath() string { return filepath.Join(c.dir, "cluster.json") }

// localBlob opens the coordinator's own copy of a journal region: a file
// in the state directory, or memory for a volatile coordinator.
func (c *Cluster) localBlob(file string) (store.Blob, error) {
	if c.dir == "" {
		return store.NewMemBlob(), nil
	}
	b, err := store.CreateFileBlob(filepath.Join(c.dir, file))
	if err != nil {
		return nil, err // an untyped nil: Open's cleanup closes what is non-nil
	}
	return b, nil
}

func (c *Cluster) loadManifest() (bool, error) {
	if c.dir == "" {
		return false, nil
	}
	if err := os.MkdirAll(c.dir, 0o755); err != nil {
		return false, err
	}
	raw, err := os.ReadFile(c.manifestPath())
	if os.IsNotExist(err) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	m, err := ParseManifest(raw)
	if err != nil {
		return false, fmt.Errorf("%s: %w", c.manifestPath(), err)
	}
	c.manifest = m
	return true, nil
}

func (c *Cluster) saveManifest() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.saveManifestLocked()
}

// saveManifestLocked persists the manifest: atomically and durably to
// the local directory (tmp is fsynced before the rename, the directory
// after — a crash can never leave a torn or vanishing manifest), and in
// HA mode replicated to a node quorum at a fresh blob generation before
// the commit is acknowledged. Volatile classic clusters (no dir) keep
// it in memory only.
func (c *Cluster) saveManifestLocked() error {
	if c.rep != nil {
		c.manifest.Epoch = c.rep.fence.Epoch()
	}
	if c.dir == "" && c.rep == nil {
		return nil
	}
	raw, err := json.MarshalIndent(c.manifest, "", "  ")
	if err != nil {
		return err
	}
	if c.dir != "" {
		if err := store.AtomicWriteFile(c.manifestPath(), raw, 0o644); err != nil {
			return err
		}
	}
	if c.rep != nil {
		// Full rewrite under a bumped generation: the gen wipe replaces
		// the old image on every replica that hears about it, and the
		// quorum requirement makes the save recoverable by the next
		// coordinator.
		c.manGen++
		gen := c.manGen
		return c.rep.fanout(func(cl *netdev.NodeClient) error {
			b := cl.Blob(metaBlobManifest).AtGen(gen)
			if _, err := b.WriteAt(raw, 0); err != nil {
				return err
			}
			return b.Sync()
		})
	}
	return nil
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
	if spec.Degraded != store.DegradedRefuse {
		m.Degraded = spec.Degraded.String()
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
