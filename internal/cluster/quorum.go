package cluster

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/oiraid/oiraid/internal/store"
	"github.com/oiraid/oiraid/internal/store/netdev"
)

// Names of the coordinator metadata blobs replicated onto the nodes: the
// two metadata-journal regions, which are the whole metadata plane — the
// manifest is one of their records.
const (
	metaBlobJournal0 = "meta0"
	metaBlobJournal1 = "meta1"
)

// replicator fans coordinator metadata writes out to the storage nodes
// and requires a majority before reporting success. It is the shared
// half of every quorumBlob: one fencing epoch, one deposed latch.
//
// The voter set (order) is fixed for the reign: membership changes to
// the data plane (AddNode/DrainNode) do not alter who votes on metadata
// until the next coordinator open reads the updated node list. Only the
// client *behind* a voter may be swapped (setClient) — the rejoin path
// replaces a lost node's latched-dead client with a fresh one so the
// voter comes back instead of staying unreachable for the reign.
type replicator struct {
	holder  string
	fence   *netdev.FenceToken
	order   []string
	mu      sync.RWMutex
	clients []*netdev.NodeClient // clients[i] votes for order[i]; guarded by mu
	deposed atomic.Bool
}

// majority is the quorum of n voters.
func majority(n int) int { return n/2 + 1 }

func (r *replicator) quorum() int { return majority(len(r.order)) }

// voters snapshots the voter clients, in order, under r.mu. It is the
// only read of the voter set, so a rejoin's setClient is ordered against
// every fan-out, the lease renewals included.
func (r *replicator) voters() []*netdev.NodeClient {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]*netdev.NodeClient(nil), r.clients...)
}

// setClient swaps the client behind an existing voter; unknown IDs are
// ignored (a node added after this reign started is not a voter).
func (r *replicator) setClient(id string, cl *netdev.NodeClient) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, o := range r.order {
		if o == id {
			r.clients[i] = cl
		}
	}
}

// eachNode is the coordinator's one node fan-out: it runs call against
// every client concurrently and returns the errors in client order.
func eachNode(clients []*netdev.NodeClient, call func(i int, cl *netdev.NodeClient) error) []error {
	errs := make([]error, len(clients))
	var wg sync.WaitGroup
	for i, cl := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = call(i, cl)
		}()
	}
	wg.Wait()
	return errs
}

// survey reads every node's inventory (its fence: epoch, holder, renewal
// counter) at once; states[i] is nil where node i did not answer.
func survey(clients []*netdev.NodeClient) (states []*netdev.NodeStat, answered int) {
	states = make([]*netdev.NodeStat, len(clients))
	errs := eachNode(clients, func(i int, cl *netdev.NodeClient) error {
		st, err := cl.Stat()
		if err == nil {
			states[i] = &st
		}
		return err
	})
	return states, acks(errs)
}

// acks counts the calls that succeeded.
func acks(errs []error) int {
	n := 0
	for _, err := range errs {
		if err == nil {
			n++
		}
	}
	return n
}

// fanout runs op against every voter concurrently and demands a quorum
// of successes. A stale-epoch verdict from any node latches the deposed
// flag and wins over every other error: the coordinator must stand
// down, not retry.
func (r *replicator) fanout(op func(*netdev.NodeClient) error) error {
	errs := eachNode(r.voters(), func(_ int, cl *netdev.NodeClient) error { return op(cl) })
	ok := 0
	var firstErr error
	for i, err := range errs {
		switch {
		case err == nil:
			ok++
		case errors.Is(err, store.ErrStaleEpoch):
			r.deposed.Store(true)
			return fmt.Errorf("cluster: deposed by node %s: %w", r.order[i], err)
		case firstErr == nil:
			firstErr = fmt.Errorf("node %s: %w", r.order[i], err)
		}
	}
	if ok < r.quorum() {
		return fmt.Errorf("cluster: metadata quorum lost (%d/%d acks, need %d): %w: %v",
			ok, len(r.order), r.quorum(), store.ErrUnreachable, firstErr)
	}
	return nil
}

// quorumBlob is a store.Blob whose writes are durable only once a
// majority of storage nodes hold them: the local blob is a cache for
// reads and replay, the node copies — each a NetBlob stamped with the
// blob's generation, under the coordinator's fence — are the
// authoritative record a standby reassembles at takeover.
//
// The write contract is shaped for the metadata journal's acked-frontier
// discipline: when the local write lands but the quorum does not,
// WriteAt still returns n == len(p) alongside the error — the frame has
// claimed its offsets (so no two replicas can ever hold different
// frames at one offset) and the journal re-sends the unacked suffix in
// front of its next append.
type quorumBlob struct {
	name  string
	local store.Blob
	rep   *replicator
	gen   atomic.Uint64
}

func newQuorumBlob(name string, local store.Blob, rep *replicator, gen uint64) *quorumBlob {
	b := &quorumBlob{name: name, local: local, rep: rep}
	b.gen.Store(gen)
	return b
}

func (b *quorumBlob) ReadAt(p []byte, off int64) (int, error) { return b.local.ReadAt(p, off) }
func (b *quorumBlob) Size() (int64, error)                    { return b.local.Size() }
func (b *quorumBlob) Close() error                            { return b.local.Close() }

func (b *quorumBlob) WriteAt(p []byte, off int64) (int, error) {
	n, err := b.local.WriteAt(p, off)
	if err != nil || n != len(p) {
		return n, err
	}
	gen := b.gen.Load()
	err = b.rep.fanout(func(cl *netdev.NodeClient) error {
		_, err := cl.Blob(b.name).AtGen(gen).WriteAt(p, off)
		return err
	})
	return len(p), err
}

func (b *quorumBlob) Sync() error {
	if err := b.local.Sync(); err != nil {
		return err
	}
	gen := b.gen.Load()
	return b.rep.fanout(func(cl *netdev.NodeClient) error {
		return cl.Blob(b.name).AtGen(gen).Sync()
	})
}

// Truncate opens a new generation: the gen bump is what guarantees any
// replica that missed it gets wiped before accepting bytes of the new
// stream, so stale frames from the old stream can never leak into a
// takeover merge.
func (b *quorumBlob) Truncate(size int64) error {
	gen := b.gen.Add(1)
	if err := b.local.Truncate(size); err != nil {
		return err
	}
	return b.rep.fanout(func(cl *netdev.NodeClient) error {
		return cl.Blob(b.name).AtGen(gen).Truncate(size)
	})
}

// takeover is the fenced leadership acquisition + metadata recovery
// that runs inside Open when Holder is set:
//
//  1. Survey a quorum of nodes for the highest promised epoch and claim
//     the next one — every node that grants it will from now on reject
//     the previous coordinator's writes (data plane included). A node
//     holding the older format's manifest blob stops the takeover first.
//  2. Reassemble both metadata-journal regions from the replicas a quorum
//     holds: newest generation wins, torn tails and per-replica holes are
//     tolerated by the frame-level merge.
//  3. Reseed the merged images back out at a fresh generation, so the
//     new reign starts from a converged majority-held state.
//
// Returns the two journal regions as quorum-replicated blobs, ready for
// the journal the array mounts over; the manifest is one of its records.
// On error, whichever region was already recovered is returned for the
// caller to close.
func (c *Cluster) takeover() (j0, j1 store.Blob, err error) {
	rep := c.rep

	// 1. Epoch survey + lease.
	voters := rep.voters()
	states, responsive := survey(voters)
	if responsive < rep.quorum() {
		return nil, nil, fmt.Errorf(
			"cluster: takeover needs a node quorum, only %d/%d answered: %w",
			responsive, len(rep.order), store.ErrUnreachable)
	}
	var maxEpoch uint64
	for i, st := range states {
		if st == nil {
			continue
		}
		if _, ok := st.Blobs[legacyManifestBlob]; ok {
			return nil, nil, fmt.Errorf("cluster: node %s holds a %q blob, the manifest of an older coordinator format: "+
				"the manifest is now a record of the metadata journal and the blob is never read", rep.order[i], legacyManifestBlob)
		}
		maxEpoch = max(maxEpoch, st.Epoch)
	}
	epoch := maxEpoch + 1
	rep.fence.Advance(epoch)
	granted := acks(eachNode(voters, func(_ int, cl *netdev.NodeClient) error {
		return cl.AcquireLease(epoch, rep.holder)
	}))
	if granted < rep.quorum() {
		// A rival claimed a higher epoch between survey and acquire, or
		// the quorum slipped away. Either way this reign never starts.
		return nil, nil, fmt.Errorf(
			"cluster: lease epoch %d granted by %d/%d nodes, need %d: %w",
			epoch, granted, len(rep.order), rep.quorum(), store.ErrStaleEpoch)
	}

	// 2+3. Both journal regions.
	if j0, err = c.recoverRegion(metaBlobJournal0, "meta0.journal"); err != nil {
		return nil, nil, err
	}
	if j1, err = c.recoverRegion(metaBlobJournal1, "meta1.journal"); err != nil {
		return j0, nil, err
	}
	return j0, j1, nil
}

// recoverRegion rebuilds one journal-region blob from the quorum and
// hands it back quorum-wrapped. A virgin quorum (no node has ever held
// the blob) seeds from the local cache file instead — the upgrade path
// for a pre-HA coordinator directory.
func (c *Cluster) recoverRegion(name, file string) (store.Blob, error) {
	reps := fetchReplicas(c.rep, name)
	data := recoverJournalRegion(reps)
	local, err := c.localBlob(file)
	if err != nil {
		return nil, err
	}
	if data == nil && len(reps) == 0 {
		if data, err = readAllBlob(local); err != nil {
			local.Close()
			return nil, err
		}
	}
	gen := maxGen(reps) + 1
	if err := reseed(c.rep, name, local, data, gen); err != nil {
		local.Close()
		return nil, err
	}
	return newQuorumBlob(name, local, c.rep, gen), nil
}

// nodesMatch checks a recovered manifest against the configured node
// list: same IDs or the config points at the wrong cluster.
func nodesMatch(man, conf []NodeSpec) error {
	if len(man) != len(conf) {
		return fmt.Errorf("cluster: manifest lists %d nodes, config %d", len(man), len(conf))
	}
	ids := map[string]bool{}
	for _, n := range conf {
		ids[n.ID] = true
	}
	for _, n := range man {
		if !ids[n.ID] {
			return fmt.Errorf("cluster: manifest node %q not in configured node list", n.ID)
		}
	}
	return nil
}

func readAllBlob(b store.Blob) ([]byte, error) {
	size, err := b.Size()
	if err != nil || size == 0 {
		return nil, err
	}
	buf := make([]byte, size)
	n, err := b.ReadAt(buf, 0)
	if err != nil && n != len(buf) {
		return nil, err
	}
	return buf, nil
}

// metaReplica is one node's copy of a metadata blob.
type metaReplica struct {
	node string
	gen  uint64
	data []byte
}

// fetchReplicas collects every responsive node's copy of blob name.
// Nodes that do not hold the blob (or cannot be reached) are simply
// absent from the result — quorum accounting happens in the callers.
func fetchReplicas(rep *replicator, name string) []metaReplica {
	out := make([]metaReplica, len(rep.order))
	eachNode(rep.voters(), func(i int, cl *netdev.NodeClient) error {
		data, gen, err := cl.Blob(name).ReadAll()
		if err == nil {
			out[i] = metaReplica{node: rep.order[i], gen: gen, data: data}
		}
		return err
	})
	var got []metaReplica
	for _, r := range out {
		if r.node != "" {
			got = append(got, r)
		}
	}
	return got
}

// maxGen returns the highest generation among the replicas (0 if none).
func maxGen(reps []metaReplica) uint64 {
	var g uint64
	for _, r := range reps {
		if r.gen > g {
			g = r.gen
		}
	}
	return g
}

// recoverJournalRegion reassembles one journal-region blob from its
// replicas. Only the newest generation is eligible: a quorum-acked
// truncation (compaction open, poison clear) is itself part of history,
// and reaching below it could resurrect a failed compaction snapshot
// that was never acknowledged — the exact split-brain the generation
// bump exists to kill. Within the newest generation the frame-level
// merge tolerates torn tails and per-replica holes (store.
// MergeJournalReplicas); a region that does not merge contributes
// nothing, which is safe because every acknowledged append reached a
// majority at that generation.
func recoverJournalRegion(reps []metaReplica) []byte {
	top := maxGen(reps)
	var streams [][]byte
	for _, r := range reps {
		if r.gen == top {
			streams = append(streams, r.data)
		}
	}
	if merged, ok := store.MergeJournalReplicas(streams); ok {
		return merged
	}
	return nil
}

// reseed pushes recovered bytes back out as a fresh generation on a
// quorum of nodes (and into the local cache blob), so the new
// coordinator starts from a converged, majority-held image instead of
// the scattered per-replica states it merged from.
func reseed(rep *replicator, name string, local store.Blob, data []byte, gen uint64) error {
	if err := local.Truncate(0); err != nil {
		return err
	}
	if len(data) > 0 {
		if n, err := local.WriteAt(data, 0); err != nil || n != len(data) {
			return fmt.Errorf("cluster: reseed local %s: %w", name, err)
		}
	}
	if err := local.Sync(); err != nil {
		return err
	}
	return rep.fanout(func(cl *netdev.NodeClient) error {
		b := cl.Blob(name).AtGen(gen)
		if err := b.Truncate(0); err != nil {
			return err
		}
		if len(data) > 0 {
			if _, err := b.WriteAt(data, 0); err != nil {
				return err
			}
		}
		return b.Sync()
	})
}
