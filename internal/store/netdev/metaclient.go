package netdev

import (
	"fmt"
	"sync/atomic"

	"github.com/oiraid/oiraid/internal/store"
)

// ErrStaleGen reports a gen-stamped blob op rejected because the
// node holds a newer blob generation: another coordinator truncated the
// blob into a new stream. It wraps store.ErrStaleEpoch — both mean the same
// thing to the writer: it has been superseded and must stand down.
var ErrStaleGen = fmt.Errorf("netdev: blob superseded by a newer generation: %w", store.ErrStaleEpoch)

// FenceToken carries the fencing epoch a coordinator stamps its writes
// with. One token is shared by every NodeClient of a coordinator, so a
// takeover observed on any node (a stale-epoch rejection) fences the
// whole write path at once — the token only ever moves forward.
type FenceToken struct {
	epoch atomic.Uint64
}

// Epoch returns the current fencing epoch.
func (t *FenceToken) Epoch() uint64 { return t.epoch.Load() }

// Advance raises the fencing epoch (monotonic; lower values are ignored).
func (t *FenceToken) Advance(epoch uint64) {
	for {
		cur := t.epoch.Load()
		if epoch <= cur || t.epoch.CompareAndSwap(cur, epoch) {
			return
		}
	}
}

// SetFence attaches a fencing token: every subsequent mutating message
// from this client (strip writes, blob writes, syncs and truncates, creates
// and deletes) carries the token's epoch, and the node refuses it once it
// has promised a newer one. Reads stay unfenced — a deposed coordinator can
// look, it just cannot touch.
func (c *NodeClient) SetFence(t *FenceToken) { c.fence.Store(t) }

// AcquireLease asks the node to promise epoch to holder. The node
// grants iff epoch is strictly above anything it has promised
// (idempotent for the same epoch+holder, so a lost grant is safely
// re-asked); otherwise the call fails with store.ErrStaleEpoch.
func (c *NodeClient) AcquireLease(epoch uint64, holder string) error {
	return c.postJSON("/node/v1/meta/lease", leaseReq{Epoch: epoch, Holder: holder})
}

// RenewLease bumps the node's renewal counter, proving the holder of
// epoch is still alive. Fails with store.ErrStaleEpoch once the node
// has promised a newer epoch — which is how a deposed leader finds out.
func (c *NodeClient) RenewLease(epoch uint64, holder string) error {
	return c.postJSON("/node/v1/meta/lease", leaseReq{Epoch: epoch, Holder: holder, Renew: true})
}
