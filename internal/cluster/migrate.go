// Membership plane: online node add/drain/rejoin, each built on one
// primitive — a resumable, fenced strip migration that moves a healthy
// disk to a new node while the array stays online.
//
// The migration state machine:
//
//  1. Commit a MigrationRecord (src, dst, cursor=0) to the metadata
//     journal (quorum-replicated in HA mode). From here on the move
//     survives coordinator death: whoever mounts next finds the record
//     and resumes.
//  2. Install the array's migration mirror on the disk: foreground writes
//     land on both placements, reads stay on the source, destination
//     failures go to a dirty set instead of the health monitor.
//  3. Copy cycle by cycle, paced by the engine's QoS bucket (the same
//     budget rebuilds run under, so foreground p99 stays bounded). Each
//     cycle is copied by the array's batch executor under the engine's
//     cycle lock (a consistent snapshot; a source strip that fails its
//     checksum is healed on the way): gathered from the source node,
//     scattered to the destination as fenced batch writes, and then the
//     cursor is committed to the quorum — the resume point.
//  4. Flip under the exclusive mode lock: the engine re-copies dirty
//     strips the same way (no foreground writer can race now), then
//     this package clones the superblock to the destination (both
//     placements stay mountable at the same epoch — a crash on either
//     side of the commit mounts a healthy array), commits the placement
//     as one journal append beside the still-present record, and the
//     engine swaps the device.
//  5. Reclaim the source and delete the record — in that order, so a
//     crash in between leaves a record whose finalize path re-runs the
//     (idempotent) reclaim.
//
// Every destination write and every metadata commit carries the
// coordinator's epoch: a deposed coordinator's migration parks itself
// with ErrStaleEpoch and the successor resumes from the last committed
// cursor, exactly like any other fenced write path.

package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/url"
	"slices"
	"sort"
	"time"

	"github.com/oiraid/oiraid/internal/engine"
	"github.com/oiraid/oiraid/internal/store"
	"github.com/oiraid/oiraid/internal/store/netdev"
)

// migrateKeyPrefix namespaces migration records in the metadata
// journal's KV space; one record per disk in flight.
const migrateKeyPrefix = "migrate/"

func migrateKey(d int) string { return fmt.Sprintf("%s%02d", migrateKeyPrefix, d) }

// migrateRetryEvery is the wait between copy retries while the source
// or destination node is transiently unreachable.
const migrateRetryEvery = 50 * time.Millisecond

// MigrationRecord is the per-disk migration state committed through the
// quorum metadata plane. Cursor counts the layout cycles whose copy is
// complete and acknowledged; a successor resumes from there.
type MigrationRecord struct {
	Disk   int       `json:"disk"`
	Src    Placement `json:"src"`
	Dst    Placement `json:"dst"`
	Cursor int64     `json:"cursor"`
}

// MigrationStatus is the externally visible view of one in-flight
// migration, read straight from the committed records.
type MigrationStatus struct {
	Disk   int    `json:"disk"`
	From   string `json:"from"`
	To     string `json:"to"`
	Cursor int64  `json:"cursor"`
	Cycles int64  `json:"cycles"`
}

// MoveReport summarises a membership operation: which disks moved.
type MoveReport struct {
	Moved []int `json:"moved"`
}

// NodeInfo is one row of NodeStatus.
type NodeInfo struct {
	ID    string `json:"id"`
	URL   string `json:"url"`
	State string `json:"state"` // ok | down | lost | draining
	Disks []int  `json:"disks"`
}

// errMigrationParked reports a migration that stopped without being
// abandoned: its record stays committed and the next open resumes it.
var errMigrationParked = errors.New("cluster: migration parked, will resume at next open")

// ErrBadMember reports a membership request the caller got wrong: a
// missing id or url, a duplicate or unknown node, draining the last one.
// The HTTP layer maps it onto 400.
var ErrBadMember = errors.New("cluster: invalid membership request")

// badMember is an ErrBadMember that keeps its own wording.
type badMember string

func (e badMember) Error() string        { return string(e) }
func (e badMember) Is(target error) bool { return target == ErrBadMember }

// AddNode joins a new storage node to the cluster and rebalances:
// disks migrate from the most-loaded nodes until the spread is ≤ 1.
func (c *Cluster) AddNode(spec NodeSpec) (MoveReport, error) {
	if spec.ID == "" || spec.URL == "" {
		return MoveReport{}, badMember("cluster: add node needs an id and a url")
	}
	if u, err := url.Parse(spec.URL); err != nil || u.Host == "" {
		return MoveReport{}, badMember(fmt.Sprintf("cluster: add node %s: malformed url %q", spec.ID, spec.URL))
	}
	c.memberMu.Lock()
	defer c.memberMu.Unlock()

	c.mu.Lock()
	if _, ok := c.clients[spec.ID]; ok {
		c.mu.Unlock()
		return MoveReport{}, badMember(fmt.Sprintf("cluster: node %q is already a member", spec.ID))
	}
	cl := c.newClientLocked(spec)
	c.mu.Unlock()

	// The node must answer (and identify itself — ExpectID) before it
	// can hold data.
	if err := cl.Ping(); err != nil {
		cl.Close()
		return MoveReport{}, fmt.Errorf("cluster: add node %s: %w", spec.ID, err)
	}

	if err := c.commit(func(m *Manifest) { m.Nodes = append(m.Nodes, spec) }, func() {
		c.clients[spec.ID] = cl
		c.order = append(c.order, spec.ID)
	}); err != nil {
		cl.Close()
		return MoveReport{}, err
	}
	return c.rebalance()
}

// DrainNode migrates every disk off the node and removes it from the
// membership. The node must be reachable: draining reads its strips
// (a dead node's disks move through the heal path, not a drain).
func (c *Cluster) DrainNode(id string) (MoveReport, error) {
	c.memberMu.Lock()
	defer c.memberMu.Unlock()

	c.mu.Lock()
	cl, ok := c.clients[id]
	if !ok {
		c.mu.Unlock()
		return MoveReport{}, badMember(fmt.Sprintf("cluster: unknown node %q", id))
	}
	if len(c.order) < 2 {
		c.mu.Unlock()
		return MoveReport{}, badMember("cluster: cannot drain the last node")
	}
	c.draining[id] = true
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		delete(c.draining, id)
		c.mu.Unlock()
	}()
	if cl.Lost() || cl.Down() {
		return MoveReport{}, fmt.Errorf("cluster: drain %s: node unreachable (heal, not drain, moves a dead node's disks)", id)
	}

	var rep MoveReport
	for {
		disks := c.DisksOn(id)
		if len(disks) == 0 {
			break
		}
		c.mu.Lock()
		dst := placeNode(c.order, c.manifest.Disks, c.eligibleLocked)
		c.mu.Unlock()
		if dst == "" {
			return rep, fmt.Errorf("%w: no eligible node to migrate to", store.ErrUnreachable)
		}
		if err := c.migrateDisk(disks[0], dst); err != nil {
			return rep, err
		}
		rep.Moved = append(rep.Moved, disks[0])
	}

	// Remove from the membership. The client retires instead of closing:
	// in HA mode it may still be a metadata voter for the reign.
	return rep, c.commit(func(m *Manifest) {
		m.Nodes = slices.DeleteFunc(m.Nodes, func(n NodeSpec) bool { return n.ID == id })
	}, func() {
		c.order = slices.DeleteFunc(c.order, func(o string) bool { return o == id })
		delete(c.clients, id)
		c.retired = append(c.retired, cl)
	})
}

// RejoinNode brings a known node back. Inside the grace window the
// client recovers on its own and the node's disks were only down —
// zero strips move. After the grace window (the node was
// declared lost and its disks healed elsewhere) the latched-dead client
// is replaced with a fresh one, stale media on the node is scrubbed,
// and rebalancing migrates the delta back — paced, like any migration.
func (c *Cluster) RejoinNode(spec NodeSpec) (MoveReport, error) {
	c.memberMu.Lock()
	defer c.memberMu.Unlock()

	c.mu.Lock()
	old, ok := c.clients[spec.ID]
	if !ok {
		c.mu.Unlock()
		return MoveReport{}, badMember(fmt.Sprintf("cluster: unknown node %q (AddNode joins new nodes)", spec.ID))
	}
	if spec.URL == "" {
		for _, n := range c.manifest.Nodes {
			if n.ID == spec.ID {
				spec.URL = n.URL
			}
		}
	}
	c.mu.Unlock()

	if !old.Lost() {
		// Inside the grace window: nothing was evicted, the client's probe
		// loop clears the down marks when the node answers again.
		if len(c.DisksOn(spec.ID)) > 0 {
			return MoveReport{}, nil
		}
	} else {
		// Lost is a latch: the old client can never serve again. Replace
		// it, verify the node answers under its expected identity, and
		// let the voter (HA) point at the live client again.
		c.mu.Lock()
		cl := c.newClientLocked(spec)
		c.mu.Unlock()
		if err := cl.Ping(); err != nil {
			cl.Close()
			return MoveReport{}, fmt.Errorf("cluster: rejoin %s: %w", spec.ID, err)
		}
		if err := c.commit(func(m *Manifest) {
			for i := range m.Nodes {
				if m.Nodes[i].ID == spec.ID {
					m.Nodes[i].URL = spec.URL
				}
			}
		}, func() {
			c.clients[spec.ID] = cl
			c.retired = append(c.retired, old)
		}); err != nil {
			cl.Close()
			return MoveReport{}, err
		}
		if c.rep != nil {
			c.rep.setClient(spec.ID, cl)
		}
		// Whatever the node still holds from before it died is stale —
		// its placements were healed onto other nodes. Scrub it so the
		// space is usable and a later mount can never bind old media.
		c.scrubStaleMedia(spec.ID)
	}
	return c.rebalance()
}

// NodeStatus reports every member node with its reachability state and
// current disk placements.
func (c *Cluster) NodeStatus() []NodeInfo {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]NodeInfo, 0, len(c.manifest.Nodes))
	for _, n := range c.manifest.Nodes {
		info := NodeInfo{ID: n.ID, URL: n.URL, State: c.nodeStateLocked(n.ID)}
		for d, p := range c.manifest.Disks {
			if p.Node == n.ID {
				info.Disks = append(info.Disks, d)
			}
		}
		out = append(out, info)
	}
	return out
}

// Migrations lists the in-flight migrations from their committed
// records — the same view a successor coordinator would resume from.
func (c *Cluster) Migrations() []MigrationStatus {
	cycles := c.Mount.Array.Cycles()
	var out []MigrationStatus
	for _, rec := range c.migRecords() {
		out = append(out, MigrationStatus{
			Disk: rec.Disk, From: rec.Src.Node, To: rec.Dst.Node,
			Cursor: rec.Cursor, Cycles: cycles,
		})
	}
	return out
}

// migRecords decodes the committed migration records, ordered by disk.
func (c *Cluster) migRecords() []MigrationRecord {
	_, vals := c.journal.KVRange(migrateKeyPrefix)
	var recs []MigrationRecord
	for _, v := range vals {
		var rec MigrationRecord
		if json.Unmarshal(v, &rec) == nil {
			recs = append(recs, rec)
		}
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].Disk < recs[j].Disk })
	return recs
}

// rebalance migrates disks from the most- to the least-loaded eligible
// node until the spread is ≤ 1. Caller holds memberMu.
func (c *Cluster) rebalance() (MoveReport, error) {
	var rep MoveReport
	for {
		d, dst, ok := c.nextBalanceMove()
		if !ok {
			return rep, nil
		}
		if err := c.migrateDisk(d, dst); err != nil {
			return rep, err
		}
		rep.Moved = append(rep.Moved, d)
	}
}

// nextBalanceMove picks one disk to move: from the most-loaded eligible
// node (ties by membership order; its highest-numbered disk) to the node
// placeNode picks, while their loads differ by more than one.
func (c *Cluster) nextBalanceMove() (int, string, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	dst := placeNode(c.order, c.manifest.Disks, c.eligibleLocked)
	if dst == "" {
		return 0, "", false
	}
	load := diskLoad(c.manifest.Disks)
	donor := dst
	for _, id := range c.order {
		if c.eligibleLocked(id) && load[id] > load[donor] {
			donor = id
		}
	}
	if load[donor]-load[dst] <= 1 {
		return 0, "", false
	}
	move := 0
	for d, p := range c.manifest.Disks {
		if p.Node == donor {
			move = d
		}
	}
	return move, dst, true
}

// migrateDisk commits a migration record for disk d → dstNode and runs
// it to completion. Caller holds memberMu.
func (c *Cluster) migrateDisk(d int, dstNode string) error {
	c.mu.Lock()
	if d < 0 || d >= len(c.manifest.Disks) {
		c.mu.Unlock()
		return fmt.Errorf("%w: disk %d", store.ErrNoSuchDisk, d)
	}
	src := c.manifest.Disks[d]
	c.mu.Unlock()
	if src.Node == dstNode {
		return nil
	}
	seq := c.replaceSeq.Add(1)
	rec := MigrationRecord{
		Disk: d,
		Src:  src,
		Dst: Placement{
			Node:   dstNode,
			Device: fmt.Sprintf("disk%02d-m%d", d, seq),
			Super:  fmt.Sprintf("sb%02d-m%d", d, seq),
		},
	}
	if err := c.putMigRecord(rec); err != nil {
		return err
	}
	return c.runMigration(rec)
}

// resumeMigrations picks up every committed migration record — the
// successor side of crash safety. Runs in a tracked goroutine so Open
// returns promptly; Close parks any in-flight copy via migStop.
func (c *Cluster) resumeMigrations() {
	recs := c.migRecords()
	if len(recs) == 0 {
		return
	}
	c.migWg.Add(1)
	go func() {
		defer c.migWg.Done()
		for _, rec := range recs {
			select {
			case <-c.migStop:
				return
			default:
			}
			if c.onMigrateResume != nil {
				c.onMigrateResume(rec)
			}
			c.memberMu.Lock()
			_ = c.runMigration(rec) // parked records stay for the next open
			c.memberMu.Unlock()
		}
	}()
}

func (c *Cluster) putMigRecord(rec MigrationRecord) error {
	raw, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	return c.journal.PutKV(migrateKey(rec.Disk), raw, true)
}

func (c *Cluster) deleteMigRecord(d int) error {
	return c.journal.DeleteKV(migrateKey(d), true)
}

func (c *Cluster) placement(d int) (Placement, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if d < 0 || d >= len(c.manifest.Disks) {
		return Placement{}, false
	}
	return c.manifest.Disks[d], true
}

// reclaim deletes a placement's device and superblock blob off its
// node, fenced and best-effort: an unreachable node just keeps the
// orphan (the rejoin scrub collects it later).
func (c *Cluster) reclaim(p Placement) {
	cl := c.Client(p.Node)
	if cl == nil {
		return
	}
	_ = cl.DeleteDevice(p.Device)
	_ = cl.DeleteBlob(p.Super)
}

// scrubStaleMedia deletes devices and blobs on node id that no current
// placement or in-flight migration references — the media a dead node
// still holds after its disks were healed elsewhere. Best-effort.
func (c *Cluster) scrubStaleMedia(id string) {
	cl := c.Client(id)
	if cl == nil {
		return
	}
	st, err := cl.Stat()
	if err != nil {
		return
	}
	// The replicated journal regions are the node's copy of the cluster's
	// metadata, not a disk's media.
	keep := map[string]bool{metaBlobJournal0: true, metaBlobJournal1: true}
	c.mu.Lock()
	for _, p := range c.manifest.Disks {
		if p.Node == id {
			keep[p.Device] = true
			keep[p.Super] = true
		}
	}
	c.mu.Unlock()
	for _, rec := range c.migRecords() {
		for _, p := range []Placement{rec.Src, rec.Dst} {
			if p.Node == id {
				keep[p.Device] = true
				keep[p.Super] = true
			}
		}
	}
	for name := range st.Devices {
		if !keep[name] {
			_ = cl.DeleteDevice(name)
		}
	}
	for name := range st.Blobs {
		if !keep[name] {
			_ = cl.DeleteBlob(name)
		}
	}
}

// runMigration executes (or resumes) one committed migration record to
// completion. Caller holds memberMu. A nil return means the record is
// gone — the migration finished or was abandoned as obsolete; an
// errMigrationParked-wrapped return means the record stays committed
// for a successor (stop requested, coordinator deposed, quorum lost).
func (c *Cluster) runMigration(rec MigrationRecord) error {
	eng := c.Eng
	arr := eng.Array()
	slots := int64(arr.Analyzer().SlotsPerDisk())
	cycles := arr.Cycles()
	strips := cycles * slots
	stripBytes := arr.StripBytes()
	d := rec.Disk

	cur, ok := c.placement(d)
	if !ok {
		return c.deleteMigRecord(d)
	}
	if cur == rec.Dst {
		// The flip committed before a crash: only finalization is left.
		c.reclaim(rec.Src)
		return c.deleteMigRecord(d)
	}
	if cur != rec.Src {
		// The world moved on while the record was parked (the disk was
		// healed onto a different placement). The record is obsolete;
		// drop the half-copied destination.
		c.reclaim(rec.Dst)
		return c.deleteMigRecord(d)
	}

	dstCl, srcCl := c.Client(rec.Dst.Node), c.Client(rec.Src.Node)
	if dstCl == nil {
		// Destination left the membership while the record was parked.
		return c.deleteMigRecord(d)
	}
	dstDev, err := dstCl.CreateDevice(rec.Dst.Device, strips, stripBytes)
	if err != nil {
		return c.migrateAside(rec, fmt.Errorf("cluster: migrate disk %d: create destination: %w", d, err))
	}
	dstSb, err := dstCl.CreateBlob(rec.Dst.Super)
	if err != nil {
		return c.migrateAside(rec, fmt.Errorf("cluster: migrate disk %d: create destination superblock: %w", d, err))
	}

	// Resuming a partial copy: the copied prefix may be stale — mount
	// replay rewrote source strips the dead coordinator's mirror never
	// saw. Compare per-strip checksums and restart from the first cycle
	// that differs.
	if rec.Cursor > 0 {
		if rec.Cursor > cycles {
			rec.Cursor = cycles
		}
		if srcCl == nil {
			return c.deleteMigRecord(d)
		}
		srcDev := srcCl.Device(rec.Src.Device, strips, stripBytes)
		verified, err := verifyCopiedPrefix(srcDev, dstDev, rec.Cursor, slots)
		if err != nil {
			return c.migrateAside(rec, fmt.Errorf("cluster: migrate disk %d: verify prefix: %w", d, err))
		}
		rec.Cursor = verified
	}

	if err := eng.StartMirror(d, dstDev); err != nil {
		// The source disk failed (heal owns it now) or a mirror is
		// already installed; either way this record cannot proceed.
		return c.migrateFailed(rec, fmt.Errorf("cluster: migrate disk %d: %w", d, err))
	}
	done := false
	defer func() {
		if !done {
			_ = eng.AbortMigration(d)
		}
	}()

	for cy := rec.Cursor; cy < cycles; cy++ {
		if !eng.PaceBackground(c.migStop) {
			return errMigrationParked
		}
		if err := c.migrateStep(rec, dstCl, fmt.Sprintf("cycle %d", cy), func() error {
			return eng.CopyMirrorCycle(d, cy)
		}); err != nil {
			return err
		}
		rec.Cursor = cy + 1
		if err := c.putMigRecord(rec); err != nil {
			// Quorum lost or deposed: the copy cannot claim durability.
			return fmt.Errorf("%w: commit cursor: %w", errMigrationParked, err)
		}
	}

	// Flip. The engine drains the mirror's dirty set and runs the finish
	// closure under the exclusive mode lock: no foreground write is in
	// flight and none can start, so the dirty set is final and the swap is
	// atomic against I/O. The flip is one journal append, made while the
	// record is still there: a replay that finds the placement at Dst
	// finds the record too, and finishes the reclaim above.
	flip := func() error {
		return c.Mount.Meta.CloneSuperblock(d, dstSb, func() error {
			return c.commit(func(m *Manifest) { m.Disks[d] = rec.Dst }, nil)
		})
	}
	if err := c.migrateStep(rec, dstCl, "flip", func() error {
		return eng.CompleteMigration(d, dstDev, flip)
	}); err != nil {
		return err
	}
	done = true

	// Reclaim before deleting the record: a crash in between leaves the
	// finalize-only path above, which reclaims again (idempotent).
	c.reclaim(rec.Src)
	return c.deleteMigRecord(d)
}

// migrateStep runs one step of a migration (a cycle copy, the flip)
// until it succeeds, and otherwise returns the migration's verdict:
//   - a stale epoch, or a closed engine or array: parked, the record
//     stays for the next open;
//   - a transient error while the destination is not lost: wait
//     migrateRetryEvery for the path to heal and try again, or park if a
//     stop is requested meanwhile;
//   - anything else: abandoned (migrateFailed).
func (c *Cluster) migrateStep(rec MigrationRecord, dstCl *netdev.NodeClient, what string, step func() error) error {
	for {
		err := step()
		switch {
		case err == nil:
			return nil
		case errors.Is(err, store.ErrStaleEpoch):
			return fmt.Errorf("%w: %w", errMigrationParked, err)
		case errors.Is(err, store.ErrClosed) || errors.Is(err, engine.ErrClosed):
			return errMigrationParked
		case !errors.Is(err, store.ErrTransient) || dstCl.Lost():
			return c.migrateFailed(rec, fmt.Errorf("cluster: migrate disk %d: %s: %w", rec.Disk, what, err))
		}
		select {
		case <-c.migStop:
			return errMigrationParked
		case <-time.After(migrateRetryEvery):
		}
	}
}

// migrateAside parks the record when the cause is transient (partition,
// node down — the next attempt can succeed), abandons otherwise.
func (c *Cluster) migrateAside(rec MigrationRecord, cause error) error {
	if errors.Is(cause, store.ErrTransient) {
		return fmt.Errorf("%w: %w", errMigrationParked, cause)
	}
	return c.migrateFailed(rec, cause)
}

// migrateFailed abandons a migration: the destination leftovers are
// reclaimed and the record deleted — the source placement stays
// authoritative and untouched.
func (c *Cluster) migrateFailed(rec MigrationRecord, cause error) error {
	c.reclaim(rec.Dst)
	if err := c.deleteMigRecord(rec.Disk); err != nil {
		return fmt.Errorf("%w: abandoning after %w", errMigrationParked, cause)
	}
	return cause
}

// verifyCopiedPrefix compares per-strip checksums of the first cursor
// cycles on source and destination and returns the length of the
// longest verified prefix (in cycles) — the safe resume point.
func verifyCopiedPrefix(src, dst *netdev.NetDevice, cursor, slots int64) (int64, error) {
	for cy := int64(0); cy < cursor; cy++ {
		ss, err := src.StripSums(cy*slots, int(slots))
		if err != nil {
			return 0, err
		}
		ds, err := dst.StripSums(cy*slots, int(slots))
		if err != nil {
			return 0, err
		}
		for i := range ss {
			if ss[i] != ds[i] {
				return cy, nil
			}
		}
	}
	return cursor, nil
}
