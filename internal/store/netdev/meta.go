package netdev

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"github.com/oiraid/oiraid/internal/store"
)

// This file is the node half of the fence a coordinator quorum acquires
// leadership through.
//
// Fencing invariant (Paxos-style promise): the node stores the highest
// epoch it has ever seen and rejects any epoch-stamped write below it.
// A lease is not time-based on the node — safety comes entirely from
// the fence, liveness from standbys watching the renewal counter stall.

// adopt enforces the promise on s, with n.metaMu held. Requests without an
// epoch pass — single-coordinator deployments stay valid — but once a
// coordinator stamps its writes, a node that has promised a newer epoch
// refuses the old one, which is what keeps a deposed coordinator's strip
// writes, superblock seals, metadata appends and replacement provisioning
// off the shared media. A higher epoch is adopted on the spot — the
// legitimate leader may have acquired its lease while this node was
// partitioned away, and its first write is as good as the lease call.
func (n *Node) adopt(s stamps) error {
	switch {
	case !s.fenced || s.epoch == n.epoch:
		return nil
	case s.epoch < n.epoch:
		return fmt.Errorf("%w: epoch %d, node promised %d to %q",
			store.ErrStaleEpoch, s.epoch, n.epoch, n.holder)
	}
	n.epoch, n.holder = s.epoch, ""
	return n.saveState()
}

// admit is adopt for a strip write, which acts without n.metaMu.
func (n *Node) admit(s stamps) error {
	if !s.fenced {
		return nil
	}
	n.metaMu.Lock()
	defer n.metaMu.Unlock()
	return n.adopt(s)
}

// leaseReq is the body of POST /node/v1/meta/lease.
type leaseReq struct {
	Epoch  uint64 `json:"epoch"`
	Holder string `json:"holder"`
	Renew  bool   `json:"renew"`
}

func (n *Node) handleMetaLease(w http.ResponseWriter, r *http.Request) {
	var req leaseReq
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<16)).Decode(&req); err != nil {
		failAs(w, store.ErrBadGeometry, err)
		return
	}
	n.metaMu.Lock()
	defer n.metaMu.Unlock()
	if req.Renew {
		// Renewal never moves the fence; it only proves the holder alive.
		if req.Epoch != n.epoch || req.Holder != n.holder {
			fail(w, fmt.Errorf("%w: renew epoch %d holder %q, node promised %d to %q",
				store.ErrStaleEpoch, req.Epoch, req.Holder, n.epoch, n.holder))
			return
		}
		n.renewSeq++
		writeJSON(w, map[string]uint64{"epoch": n.epoch, "renew_seq": n.renewSeq})
		return
	}
	switch {
	case req.Epoch > n.epoch:
		n.epoch, n.holder = req.Epoch, req.Holder
		n.renewSeq++
		if err := n.saveState(); err != nil {
			fail(w, err)
			return
		}
	case req.Epoch == n.epoch && req.Holder == n.holder && n.holder != "":
		// Idempotent re-acquire: the grant response was lost.
	default:
		fail(w, fmt.Errorf("%w: acquire epoch %d, node promised %d to %q",
			store.ErrStaleEpoch, req.Epoch, n.epoch, n.holder))
		return
	}
	writeJSON(w, map[string]any{"epoch": n.epoch, "holder": n.holder})
}
