package netdev

import (
	"fmt"

	"github.com/oiraid/oiraid/internal/store"
)

// This file is the node half of the fence a coordinator quorum acquires
// leadership through.
//
// Fencing invariant (Paxos-style promise): the node stores the highest
// epoch it has ever seen and rejects any epoch-stamped write below it.
// A lease is not time-based on the node — safety comes entirely from
// the fence, liveness from standbys watching the renewal counter stall.

// adopt enforces the promise on f, with n.metaMu held. Ops without an
// epoch pass — single-coordinator deployments stay valid — but once a
// coordinator stamps its writes, a node that has promised a newer epoch
// refuses the old one, which is what keeps a deposed coordinator's strip
// writes, superblock seals, metadata appends and replacement provisioning
// off the shared media. A higher epoch is adopted on the spot — the
// legitimate leader may have acquired its lease while this node was
// partitioned away, and its first write is as good as the lease call.
func (n *Node) adopt(f fence) error {
	switch {
	case !f.on || f.epoch == n.epoch:
		return nil
	case f.epoch < n.epoch:
		return fmt.Errorf("%w: epoch %d, node promised %d to %q",
			store.ErrStaleEpoch, f.epoch, n.epoch, n.holder)
	}
	n.epoch, n.holder = f.epoch, ""
	return n.saveState()
}

// admit is adopt for a strip write, which acts without n.metaMu.
func (n *Node) admit(f fence) error {
	if !f.on {
		return nil
	}
	n.metaMu.Lock()
	defer n.metaMu.Unlock()
	return n.adopt(f)
}

// lease does a lease message's item: the holder asks the node to promise it
// epoch, or to count a renewal of the promise it holds. An acquire is granted
// iff epoch is above the node's promise, and granted again to the holder of
// the promise (its answer was lost). A renewal never moves the fence; it only
// proves the holder alive. Anything else is ErrStaleEpoch. checkItem has
// refused an empty holder and epoch 0.
func (n *Node) lease(holder string, epoch uint64, renew bool) error {
	n.metaMu.Lock()
	defer n.metaMu.Unlock()
	switch {
	case renew && epoch == n.epoch && holder == n.holder:
		n.renewSeq++
		return nil
	case renew:
		return fmt.Errorf("%w: renew epoch %d holder %q, node promised %d to %q",
			store.ErrStaleEpoch, epoch, holder, n.epoch, n.holder)
	case epoch > n.epoch:
		n.epoch, n.holder = epoch, holder
		n.renewSeq++
		return n.saveState()
	case epoch == n.epoch && holder == n.holder:
		return nil
	}
	return fmt.Errorf("%w: acquire epoch %d, node promised %d to %q",
		store.ErrStaleEpoch, epoch, n.epoch, n.holder)
}
