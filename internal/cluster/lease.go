package cluster

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"github.com/oiraid/oiraid/internal/engine"
	"github.com/oiraid/oiraid/internal/store"
	"github.com/oiraid/oiraid/internal/store/netdev"
)

// Lease timing defaults (HA mode).
const (
	defaultLeaseRenew    = 100 * time.Millisecond
	defaultStandbyPoll   = 100 * time.Millisecond
	defaultFailoverAfter = time.Second
)

// renewMissLimit is how many consecutive unconfirmed renewal rounds a
// leader tolerates before it suspends its own heartbeat.
const renewMissLimit = 3

// renewLoop keeps proving this coordinator alive to the node quorum.
// Safety never depends on it — the fencing epoch alone keeps a deposed
// coordinator harmless — renewals exist so a standby can DETECT leader
// death: it watches the renewal counters and takes over once they
// stall. A majority of stale-epoch verdicts means a rival already won;
// the loop latches deposed and stops (renewing a lost lease is noise).
//
// The asymmetric-partition trap: when the leader's requests still LAND
// on the nodes but the acks never come back, its renewals keep
// advancing the node-side counters — the nodes think the leader is
// alive while no client of the leader can get anything acked, and a
// standby watching the counters would wait forever. So a leader that
// cannot CONFIRM a quorum of renewals for renewMissLimit consecutive
// rounds suspends itself: it stops sending renewals (freezing the
// counters, letting the standby's stall detector fire) and falls back
// to read-only state probes — which advance nothing — until it either
// sees its own epoch still standing (resume) or a successor's (deposed).
func (c *Cluster) renewLoop() {
	defer c.renewWg.Done()
	t := time.NewTicker(c.leaseEvery)
	defer t.Stop()
	misses := 0
	suspended := false
	for {
		select {
		case <-c.renewStop:
			return
		case <-t.C:
		}
		epoch := c.rep.fence.Epoch()

		if suspended {
			alive, higher := c.probeEpochs(epoch)
			switch {
			case higher:
				// A successor holds a newer epoch: deposed for good. The
				// read-only floor stays — fencing already rejects our
				// writes node-side, but the floor turns each one into a
				// clean ErrReadOnly at admission instead of a late
				// ErrStaleEpoch mid-closure.
				c.rep.deposed.Store(true)
				c.Eng.ForceMode(engine.ModeReadOnly)
				return
			case alive >= c.rep.quorum():
				// The world answers again and the lease still stands:
				// nobody took over during the silence. Resume heartbeats
				// and lift the read-only floor.
				suspended, misses = false, 0
				c.Eng.ForceMode(engine.ModeNormal)
			}
			continue
		}

		errs := eachNode(c.rep.voters(), func(_ int, cl *netdev.NodeClient) error {
			return cl.RenewLease(epoch, c.rep.holder)
		})
		stale := 0
		for _, err := range errs {
			if errors.Is(err, store.ErrStaleEpoch) {
				stale++
			}
		}
		if stale >= c.rep.quorum() {
			c.rep.deposed.Store(true)
			c.Eng.ForceMode(engine.ModeReadOnly)
			return
		}
		if acks(errs) < c.rep.quorum() {
			if misses++; misses >= renewMissLimit {
				// Quorum loss beyond the miss budget: demote to read-only
				// service from whatever survives until the lease is
				// confirmed standing (resume above lifts the floor).
				suspended = true
				c.Eng.ForceMode(engine.ModeReadOnly)
			}
		} else {
			misses = 0
		}
	}
}

// probeEpochs is the suspended leader's read-only check: how many nodes
// still answer, and whether any has promised a higher epoch. State
// reads advance no counters, so a suspended leader is invisible to the
// standby's stall detector — which is the point.
func (c *Cluster) probeEpochs(epoch uint64) (alive int, higher bool) {
	states, alive := survey(c.rep.voters())
	for _, st := range states {
		if st != nil && st.Epoch > epoch {
			higher = true
		}
	}
	return alive, higher
}

// Deposed reports whether a newer coordinator has fenced this one off.
// A deposed cluster keeps serving reads; every metadata and data write
// fails with store.ErrStaleEpoch.
func (c *Cluster) Deposed() bool {
	if c.rep == nil {
		return false
	}
	return c.rep.deposed.Load()
}

// Epoch returns the coordinator's fencing epoch (0 outside HA mode).
func (c *Cluster) Epoch() uint64 {
	if c.rep == nil {
		return 0
	}
	return c.rep.fence.Epoch()
}

// StandbyOptions tunes the failure detector of a standby coordinator.
type StandbyOptions struct {
	// Poll is the interval between metadata-state sweeps.
	Poll time.Duration
	// FailoverAfter is how long the leader's renewal signature must
	// stall (while a node quorum stays reachable) before the standby
	// takes over. It bounds fail-over time from above; too small only
	// costs a spurious takeover, never safety — fencing makes a
	// premature takeover equivalent to a deliberate one.
	FailoverAfter time.Duration
}

// Standby watches the cluster's lease heartbeat and takes over the
// moment the leader goes quiet: it polls every node's (epoch, renewal
// counter) pair, and when the combined signature stops advancing for
// FailoverAfter — with a quorum still answering, so the silence is the
// leader's fault, not a partition around the standby — it runs the
// fenced takeover (Open) and returns the live cluster. Blocks until
// takeover succeeds or ctx ends.
func Standby(ctx context.Context, opts Options, so StandbyOptions) (*Cluster, error) {
	if opts.Holder == "" {
		return nil, errors.New("cluster: standby requires a holder identity")
	}
	if len(opts.Nodes) == 0 {
		return nil, errors.New("cluster: standby requires the node list")
	}
	if so.Poll <= 0 {
		so.Poll = defaultStandbyPoll
	}
	if so.FailoverAfter <= 0 {
		so.FailoverAfter = defaultFailoverAfter
	}

	// Dedicated probe clients: single attempt, no breaker drama — a
	// missed poll just means no new signature this tick.
	copts := opts.Client
	copts.MaxAttempts = 1
	copts.OnDown, copts.OnUp = nil, nil
	clients := make([]*netdev.NodeClient, len(opts.Nodes))
	for i, n := range opts.Nodes {
		if opts.Transport != nil {
			copts.Transport = opts.Transport(n)
		}
		copts.ExpectID = n.ID
		clients[i] = netdev.NewNodeClient(n.URL, copts)
	}
	defer func() {
		for _, cl := range clients {
			cl.Close()
		}
	}()

	quorum := majority(len(clients))
	lastSig := ""
	lastMove := time.Now()
	var lastErr error
	t := time.NewTicker(so.Poll)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			if lastErr != nil {
				return nil, fmt.Errorf("%w (last takeover attempt: %v)", ctx.Err(), lastErr)
			}
			return nil, ctx.Err()
		case <-t.C:
		}
		sig, responsive := leaseSignature(clients)
		if responsive < quorum {
			// Can't tell leader death from our own partition — and
			// couldn't win a lease anyway. Reset the stall clock.
			lastMove = time.Now()
			continue
		}
		if sig != lastSig {
			lastSig, lastMove = sig, time.Now()
			continue
		}
		if time.Since(lastMove) >= so.FailoverAfter {
			c, err := Open(opts)
			if err == nil {
				return c, nil
			}
			// A transient loss (quorum flapping, a rival mid-election)
			// is retried after another full quiet window; standing by
			// is the job, giving up is not.
			lastErr = err
			lastSig, lastMove = "", time.Now()
		}
	}
}

// leaseSignature snapshots the per-node (epoch, renew counter) pairs
// into a comparable string. Any live leader advances it every renewal
// interval on at least a quorum of nodes.
func leaseSignature(clients []*netdev.NodeClient) (sig string, responsive int) {
	states, responsive := survey(clients)
	var parts []string
	for i, st := range states {
		if st != nil {
			parts = append(parts, fmt.Sprintf("%d:%d:%d", i, st.Epoch, st.RenewSeq))
		}
	}
	return strings.Join(parts, ","), responsive
}
