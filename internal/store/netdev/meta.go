package netdev

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"

	"github.com/oiraid/oiraid/internal/store"
)

// genHeader carries a metadata blob's generation on read responses.
const genHeader = "X-Oiraid-Gen"

// This file is the node half of the replicated-metadata plane: the
// fencing promise a coordinator quorum acquires leadership through, and
// the generation-tracked metadata blobs the coordinator replicates its
// manifest and journal regions into.
//
// Fencing invariant (Paxos-style promise): the node stores the highest
// epoch it has ever seen and rejects any epoch-stamped write below it.
// A lease is not time-based on the node — safety comes entirely from
// the fence, liveness from standbys watching the renewal counter stall.
//
// Generation invariant: every metadata blob carries a generation the
// coordinator bumps on truncation. A write stamped with a generation
// above the node's wipes the blob first (the node provably missed the
// truncation that started the new stream), and a write below it is
// rejected — so a blob replica at generation G holds only zeros and
// bytes of the generation-G stream, which is what makes frame-level
// merge recovery sound.

// MetaBlobStat describes one metadata blob in a node's meta state.
type MetaBlobStat struct {
	Gen  uint64 `json:"gen"`
	Size int64  `json:"size"`
}

// MetaState is a node's view of the metadata plane, served by
// GET /node/v1/meta/state.
type MetaState struct {
	Node     string                  `json:"node"`
	Epoch    uint64                  `json:"epoch"`
	Holder   string                  `json:"holder"`
	RenewSeq uint64                  `json:"renew_seq"`
	Blobs    map[string]MetaBlobStat `json:"blobs"`
}

// nodeMetaState is the durable part of the fence (meta.state on dir
// nodes). RenewSeq is deliberately volatile: it only signals liveness.
type nodeMetaState struct {
	Epoch  uint64            `json:"epoch"`
	Holder string            `json:"holder"`
	Gens   map[string]uint64 `json:"gens"`
}

func (n *Node) metaStatePath() string { return filepath.Join(n.dir, "meta.state") }

// loadMetaState restores the fencing promise and blob generations of a
// directory-backed node, reopening the metadata blob files.
func (n *Node) loadMetaState() error {
	raw, err := os.ReadFile(n.metaStatePath())
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	var st nodeMetaState
	if err := json.Unmarshal(raw, &st); err != nil {
		return fmt.Errorf("netdev: meta state %s: %w", n.metaStatePath(), err)
	}
	n.epoch, n.holder = st.Epoch, st.Holder
	for name, gen := range st.Gens {
		b, err := n.newBlob("meta-" + name)
		if err != nil {
			return fmt.Errorf("netdev: reopen meta blob %s: %w", name, err)
		}
		n.metaGens[name] = gen
		n.metaBlobs[name] = b
	}
	return nil
}

// saveMetaState persists the fencing promise, called with metaMu held.
// The write is atomic (temp + fsync + rename + dir sync): a half-written
// promise would let a deposed coordinator back in after a node restart.
func (n *Node) saveMetaState() error {
	if n.dir == "" {
		return nil
	}
	st := nodeMetaState{Epoch: n.epoch, Holder: n.holder, Gens: n.metaGens}
	raw, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		return err
	}
	return store.AtomicWriteFile(n.metaStatePath(), raw, 0o644)
}

// checkEpoch enforces the fencing promise for one epoch-stamped write,
// called with metaMu held. Higher epochs are adopted on the spot — the
// legitimate leader may have acquired its lease while this node was
// partitioned away, and its first write is as good as the lease call.
func (n *Node) checkEpoch(epoch uint64) error {
	if epoch < n.epoch {
		return fmt.Errorf("%w: epoch %d, node promised %d to %q",
			store.ErrStaleEpoch, epoch, n.epoch, n.holder)
	}
	if epoch > n.epoch {
		n.epoch = epoch
		n.holder = ""
		if err := n.saveMetaState(); err != nil {
			return err
		}
	}
	return nil
}

// fenceOK gates a data-plane write handler on the optional epoch query
// parameter. Requests without one pass — single-coordinator deployments
// and pre-fencing clients stay valid — but once a coordinator stamps its
// writes, a node that has promised a newer epoch refuses the old one,
// which is what keeps a deposed coordinator's strip writes, superblock
// seals, and replacement provisioning off the shared media.
func (n *Node) fenceOK(w http.ResponseWriter, r *http.Request) bool {
	s := r.URL.Query().Get("epoch")
	if s == "" {
		return true
	}
	epoch, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		failAs(w, store.ErrBadGeometry, fmt.Errorf("netdev: bad epoch %q", s))
		return false
	}
	n.metaMu.Lock()
	err = n.checkEpoch(epoch)
	n.metaMu.Unlock()
	if err != nil {
		fail(w, err)
		return false
	}
	return true
}

func (n *Node) handleMetaState(w http.ResponseWriter, r *http.Request) {
	n.metaMu.Lock()
	st := MetaState{
		Node:     n.id,
		Epoch:    n.epoch,
		Holder:   n.holder,
		RenewSeq: n.renewSeq,
		Blobs:    make(map[string]MetaBlobStat, len(n.metaBlobs)),
	}
	for name, b := range n.metaBlobs {
		size, err := b.Size()
		if err != nil {
			size = -1
		}
		st.Blobs[name] = MetaBlobStat{Gen: n.metaGens[name], Size: size}
	}
	n.metaMu.Unlock()
	writeJSON(w, st)
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
		if err := n.saveMetaState(); err != nil {
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

// metaBlob resolves (creating on demand) a metadata blob and applies the
// fence + generation rules for a write stamped (epoch, gen). Called with
// metaMu held; returns the blob ready for the operation.
func (n *Node) metaBlobForWrite(name string, epoch, gen uint64) (store.Blob, error) {
	if err := n.checkEpoch(epoch); err != nil {
		return nil, err
	}
	cur, known := n.metaGens[name]
	if known && gen < cur {
		return nil, fmt.Errorf("%w: blob %s gen %d, node at %d", ErrStaleGen, name, gen, cur)
	}
	b, ok := n.metaBlobs[name]
	if !ok {
		var err error
		if b, err = n.newBlob("meta-" + name); err != nil {
			return nil, err
		}
		n.metaBlobs[name] = b
	}
	if !known || gen > cur {
		// The node missed the truncation that opened generation gen: wipe,
		// so the blob holds nothing from the destroyed stream.
		if err := b.Truncate(0); err != nil {
			return nil, err
		}
		n.metaGens[name] = gen
		if err := n.saveMetaState(); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// metaWriteParams parses the mandatory epoch/gen stamps of a metadata
// blob write.
func metaWriteParams(r *http.Request) (epoch, gen uint64, err error) {
	if epoch, err = strconv.ParseUint(r.URL.Query().Get("epoch"), 10, 64); err != nil {
		return 0, 0, fmt.Errorf("netdev: bad meta epoch: %v", err)
	}
	if gen, err = strconv.ParseUint(r.URL.Query().Get("gen"), 10, 64); err != nil {
		return 0, 0, fmt.Errorf("netdev: bad meta gen: %v", err)
	}
	return epoch, gen, nil
}

func (n *Node) handleMetaRead(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	n.metaMu.Lock()
	b, ok := n.metaBlobs[name]
	gen := n.metaGens[name]
	n.metaMu.Unlock()
	if !ok {
		fail(w, fmt.Errorf("%w: meta blob %s", ErrNodeNotFound, name))
		return
	}
	w.Header().Set(genHeader, strconv.FormatUint(gen, 10))
	serveBlobRead(w, r, b, "meta")
}

func (n *Node) handleMetaWrite(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if !validName(name) {
		failAs(w, store.ErrBadGeometry, fmt.Errorf("netdev: bad meta blob name %q", name))
		return
	}
	epoch, gen, err := metaWriteParams(r)
	if err != nil {
		failAs(w, store.ErrBadGeometry, err)
		return
	}
	off, err := strconv.ParseInt(r.URL.Query().Get("off"), 10, 64)
	if err != nil {
		failAs(w, store.ErrBadGeometry, err)
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, 64<<20+1))
	if err != nil {
		fail(w, fmt.Errorf("%w: %v", ErrBadFrame, err))
		return
	}
	if want := r.Header.Get(crcHeader); want != "" && want != blobCRC(body) {
		fail(w, fmt.Errorf("%w: meta body crc %s, header says %s", ErrBadFrame, blobCRC(body), want))
		return
	}
	n.metaMu.Lock()
	defer n.metaMu.Unlock()
	b, err := n.metaBlobForWrite(name, epoch, gen)
	if err != nil {
		fail(w, err)
		return
	}
	nw, werr := b.WriteAt(body, off)
	if werr != nil {
		fail(w, werr)
		return
	}
	writeJSON(w, map[string]int{"written": nw})
}

func (n *Node) handleMetaSync(w http.ResponseWriter, r *http.Request) {
	epoch, gen, err := metaWriteParams(r)
	if err != nil {
		failAs(w, store.ErrBadGeometry, err)
		return
	}
	n.metaMu.Lock()
	defer n.metaMu.Unlock()
	b, err := n.metaBlobForWrite(r.PathValue("name"), epoch, gen)
	if err != nil {
		fail(w, err)
		return
	}
	if err := b.Sync(); err != nil {
		fail(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (n *Node) handleMetaTruncate(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if !validName(name) {
		failAs(w, store.ErrBadGeometry, fmt.Errorf("netdev: bad meta blob name %q", name))
		return
	}
	epoch, gen, err := metaWriteParams(r)
	if err != nil {
		failAs(w, store.ErrBadGeometry, err)
		return
	}
	size, err := strconv.ParseInt(r.URL.Query().Get("size"), 10, 64)
	if err != nil {
		failAs(w, store.ErrBadGeometry, err)
		return
	}
	n.metaMu.Lock()
	defer n.metaMu.Unlock()
	// A truncation always opens (or re-opens) its stamped generation:
	// metaBlobForWrite wipes when the node is behind, and the explicit
	// Truncate below settles the requested size either way.
	b, err := n.metaBlobForWrite(name, epoch, gen)
	if err != nil {
		fail(w, err)
		return
	}
	if err := b.Truncate(size); err != nil {
		fail(w, err)
		return
	}
	if err := b.Sync(); err != nil {
		fail(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}
