package netdev

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"github.com/oiraid/oiraid/internal/retry"
	"github.com/oiraid/oiraid/internal/store"
)

// Catalogue is the node plane's error table (see retry.Catalogue): the node
// encodes every failure through it — a request's in the X-Oiraid-Err header,
// a stream message item's in the item — and NodeClient decodes the code back
// into the same sentinel, so the error taxonomy survives the network hop. A
// sentinel that wraps another precedes it.
var Catalogue = retry.Catalogue{
	// Fencing verdicts on the writer, never retried: the node has promised
	// a newer coordinator epoch, or a newer coordinator has truncated the
	// blob into a new generation (ErrStaleGen wraps ErrStaleEpoch).
	{Err: ErrStaleGen, Code: "stale-gen", Status: http.StatusConflict},
	{Err: store.ErrStaleEpoch, Code: "stale-epoch", Status: http.StatusConflict},
	{Err: store.ErrStripOutOfRange, Code: "out-of-range", Status: http.StatusRequestedRangeNotSatisfiable},
	{Err: store.ErrShortBuffer, Code: "short-buffer", Status: http.StatusBadRequest},
	// The node-side device is closed (node shutting down): transient from
	// the coordinator's perspective — a restart reopens it.
	{Err: store.ErrClosed, Code: "closed", Status: http.StatusServiceUnavailable, Retryable: true},
	{Err: store.ErrBadGeometry, Code: "bad-geometry", Status: http.StatusBadRequest},
	{Err: store.ErrNegativeOffset, Code: "negative-offset", Status: http.StatusBadRequest},
	{Err: ErrNodeNotFound, Code: "not-found", Status: http.StatusNotFound},
	{Err: ErrNoUpgrade, Code: "no-upgrade", Status: http.StatusUpgradeRequired},
	// The message did not survive the wire. The node refuses it — damaged
	// bytes must not reach media — and the client re-sends.
	{Err: ErrBadFrame, Code: "bad-frame", Status: http.StatusBadRequest, Retryable: true},
	// The node's device answered with an error of its own. None of these
	// looks like a network fault: each lands on its op alone, as the same
	// device's error would in a local array, so the coordinator's monitor
	// counts it against exactly that disk and evicts it as it would a
	// local one. Only "closed" and "bad-frame" above retry a message.
	{Err: store.ErrPermanent, Code: "permanent", Status: http.StatusInternalServerError},
	{Err: store.ErrTransient, Code: "transient", Status: http.StatusServiceUnavailable},
	{Code: "io", Status: http.StatusInternalServerError},
}

// ErrNodeNotFound reports a device or blob name the node does not serve.
var ErrNodeNotFound = errors.New("netdev: no such device or blob on node")

// DeviceStat is one exported device's geometry, as served by /stat.
type DeviceStat struct {
	Strips     int64 `json:"strips"`
	StripBytes int   `json:"strip_bytes"`
}

// BlobStat is one blob's size and generation, as served by /stat.
type BlobStat struct {
	Size int64  `json:"size"` // -1 when the node cannot size it
	Gen  uint64 `json:"gen"`
}

// NodeStat is the storage node's inventory, the answer to a stat message and
// to GET /node/v1/stat: its devices, its blobs, and its fence — the epoch it
// has promised, to whom, and the lease-renewal counter a standby watches.
type NodeStat struct {
	Node     string                `json:"node"`
	Devices  map[string]DeviceStat `json:"devices"`
	Blobs    map[string]BlobStat   `json:"blobs"`
	Epoch    uint64                `json:"epoch"`
	Holder   string                `json:"holder"`
	RenewSeq uint64                `json:"renew_seq"`
}

// Node exports a set of named strip devices and blobs over HTTP. It is
// the server half of the network plane: a coordinator's NetDevice/NetBlob
// clients drive it. The zero tricks rule applies — every op is parsed and
// checked whole before it touches the fence or media, and a message is
// refused unless its checksum verifies, so a torn message can never place
// damaged bytes on a disk.
type Node struct {
	id  string
	dir string // non-empty for directory-backed nodes

	// mu guards the device table. Strip ops hold it shared only to
	// look a device up, so a strip read never waits on the fence or on a
	// blob's fsync; a fenced strip write takes metaMu for its check alone.
	mu   sync.RWMutex
	devs map[string]store.Device
	geo  map[string]DeviceStat

	// metaMu guards the blob table and the fence. A blob op holds it from
	// its fence check to its end, so no lease grant or generation bump lands
	// in between. A change to the device table
	// holds mu and then metaMu, so holding either one reads geo, and
	// saveState (metaMu held) writes a consistent state file.
	metaMu sync.Mutex
	blobs  map[string]*nodeBlob
	epoch  uint64 // the highest epoch promised (see meta.go)
	holder string // whom it was promised to
	// renewSeq counts lease renewals. It only signals liveness, so it is
	// not kept across a restart.
	renewSeq uint64

	newDev  func(name string, strips int64, stripBytes int) (store.Device, error)
	newBlob func(name string) (store.Blob, error)

	streams nodeStreams // the open streams (stream.go)
}

// nodeBlob is a blob of the node's table with its generation: 0 until a
// gen-stamped op stamps one (see blobFor).
type nodeBlob struct {
	store.Blob
	gen uint64
}

func newNode(id, dir string) *Node {
	return &Node{
		id:    id,
		dir:   dir,
		devs:  map[string]store.Device{},
		geo:   map[string]DeviceStat{},
		blobs: map[string]*nodeBlob{},
	}
}

// NewMemNode builds a memory-backed storage node (tests, benchmarks).
// A device created through the API lives until it is deleted or the node
// is closed: Close releases every device's bytes, so it models losing the
// node's media. Serving the same open Node again behind a new listener
// models a node restart that keeps them.
func NewMemNode(id string) *Node {
	n := newNode(id, "")
	n.newDev = func(_ string, strips int64, stripBytes int) (store.Device, error) {
		return store.NewMemDevice(strips, stripBytes)
	}
	n.newBlob = func(string) (store.Blob, error) { return store.NewMemBlob(), nil }
	return n
}

// stateFile is a directory node's one state file.
const stateFile = "node.json"

// NewDirNode builds (or reopens) a directory-backed storage node: each
// device is an image file <name>.img, each blob a flat file <name>.blob,
// and the state file records the rest, so a restart reopens everything
// as it was, fence included.
func NewDirNode(id, dir string) (*Node, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	// An older node kept its fence and blob generations in a second file,
	// *.state, beside node.json. Reading node.json alone would drop the
	// fence and let a deposed coordinator write again.
	if old, _ := filepath.Glob(filepath.Join(dir, "*.state")); len(old) > 0 {
		return nil, fmt.Errorf("netdev: %s holds the fence of an older node format; this node keeps it in %s and will not start without it", old[0], stateFile)
	}
	n := newNode(id, dir)
	n.newDev = func(name string, strips int64, stripBytes int) (store.Device, error) {
		return store.NewFileDevice(n.path(name, ".img"), strips, stripBytes)
	}
	n.newBlob = func(name string) (store.Blob, error) {
		return store.CreateFileBlob(n.path(name, ".blob"))
	}
	if err := n.loadState(); err != nil {
		n.Close()
		return nil, err
	}
	return n, nil
}

func (n *Node) path(name, ext string) string { return filepath.Join(n.dir, name+ext) }

// nodeState is what a directory node keeps in its state file: every
// device's geometry, every blob with the generation an op stamped on
// it (a blob at 0 is not listed in Gens), and the fence. A node that never
// saw a fenced or gen-stamped op writes only devices and blobs — the
// whole node.json of an older node that never held a lease, which
// therefore loads as it is.
type nodeState struct {
	Devices map[string]DeviceStat `json:"devices"`
	Blobs   []string              `json:"blobs"`
	Gens    map[string]uint64     `json:"gens,omitempty"`
	Epoch   uint64                `json:"epoch,omitempty"`
	Holder  string                `json:"holder,omitempty"`
}

// decodeState parses a state file and refuses one the node could not
// have written: a name that is not one path segment, a blob listed twice,
// or a generation of a blob it does not list.
func decodeState(raw []byte) (nodeState, error) {
	var st nodeState
	if err := json.Unmarshal(raw, &st); err != nil {
		return st, err
	}
	for name := range st.Devices {
		if !validName(name) {
			return st, fmt.Errorf("bad device name %q", name)
		}
	}
	listed := make(map[string]bool, len(st.Blobs))
	for _, name := range st.Blobs {
		if !validName(name) || listed[name] {
			return st, fmt.Errorf("bad or repeated blob name %q", name)
		}
		listed[name] = true
	}
	for name := range st.Gens {
		if !listed[name] {
			return st, fmt.Errorf("generation of unlisted blob %q", name)
		}
	}
	return st, nil
}

// state is what saveState writes, with n.metaMu held.
func (n *Node) state() nodeState {
	st := nodeState{Devices: n.geo, Blobs: make([]string, 0, len(n.blobs)), Epoch: n.epoch, Holder: n.holder}
	for name, b := range n.blobs {
		st.Blobs = append(st.Blobs, name)
		if b.gen != 0 {
			if st.Gens == nil {
				st.Gens = map[string]uint64{}
			}
			st.Gens[name] = b.gen
		}
	}
	sort.Strings(st.Blobs)
	return st
}

func (n *Node) loadState() error {
	path := n.path(stateFile, "")
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	st, err := decodeState(raw)
	if err != nil {
		return fmt.Errorf("netdev: node state %s: %w", path, err)
	}
	for name, g := range st.Devices {
		dev, err := store.OpenFileDevice(n.path(name, ".img"), g.Strips, g.StripBytes)
		if err != nil {
			return fmt.Errorf("netdev: reopen device %s: %w", name, err)
		}
		n.devs[name], n.geo[name] = dev, g
	}
	for _, name := range st.Blobs {
		b, err := store.OpenFileBlob(n.path(name, ".blob"))
		if err != nil {
			return fmt.Errorf("netdev: reopen blob %s: %w", name, err)
		}
		n.blobs[name] = &nodeBlob{Blob: b, gen: st.Gens[name]}
	}
	n.epoch, n.holder = st.Epoch, st.Holder
	return nil
}

// saveState persists the state file atomically, with n.metaMu held: a torn
// file would leave the node unable to start, and a lost one would drop its
// fence.
func (n *Node) saveState() error {
	if n.dir == "" {
		return nil
	}
	raw, err := json.MarshalIndent(n.state(), "", "  ")
	if err != nil {
		return err
	}
	return store.AtomicWriteFile(n.path(stateFile, ""), raw, 0o644)
}

// Close ends every stream, waits for their handlers, then closes every
// device and blob the node serves.
func (n *Node) Close() error {
	n.endStreams(nil)
	n.streams.wg.Wait()
	n.lockAll()
	defer n.unlockAll()
	var first error
	for _, d := range n.devs {
		if err := d.Close(); err != nil && first == nil {
			first = err
		}
	}
	for _, b := range n.blobs {
		if err := b.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// AddDevice registers an existing device under name (test hook: lets a
// FaultDevice-wrapped device stand behind the network plane).
func (n *Node) AddDevice(name string, dev store.Device) {
	n.lockAll()
	defer n.unlockAll()
	n.devs[name] = dev
	n.geo[name] = DeviceStat{Strips: dev.Strips(), StripBytes: dev.StripBytes()}
}

// lockAll takes both of the node's locks, in their one order, for a change
// to the device table.
func (n *Node) lockAll() {
	n.mu.Lock()
	n.metaMu.Lock()
}

func (n *Node) unlockAll() {
	n.metaMu.Unlock()
	n.mu.Unlock()
}

// Handler returns the node's HTTP surface, mounted under /node/v1/: every
// call a coordinator makes is a message on an upgraded stream (stream.go),
// and the inventory is also a request of its own, for operators.
func (n *Node) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /node/v1/stat", n.handleStat)
	mux.HandleFunc("POST "+stripsPath, n.handleStrips)
	return mux
}

// fail writes err as the coded response its catalogue row prescribes.
func fail(w http.ResponseWriter, err error) {
	Catalogue.Encode(err).Write(w, err)
}

// handleStat serves the inventory as the stat message carries it: NodeStat's
// JSON.
func (n *Node) handleStat(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(n.stat())
}

// stat is the node's inventory.
func (n *Node) stat() NodeStat {
	n.metaMu.Lock()
	defer n.metaMu.Unlock()
	st := NodeStat{
		Node:     n.id,
		Devices:  make(map[string]DeviceStat, len(n.geo)),
		Blobs:    make(map[string]BlobStat, len(n.blobs)),
		Epoch:    n.epoch,
		Holder:   n.holder,
		RenewSeq: n.renewSeq,
	}
	for name, g := range n.geo {
		st.Devices[name] = g
	}
	for name, b := range n.blobs {
		st.Blobs[name] = b.stat()
	}
	return st
}

func (b *nodeBlob) stat() BlobStat {
	size, err := b.Size()
	if err != nil {
		size = -1
	}
	return BlobStat{Size: size, Gen: b.gen}
}

// checkDevice refuses a device geometry the node could not serve: one
// whose byte size overflows, or whose strip does not fit a batch message
// alone — every strip of it would fail on the wire, so the format fails
// instead.
func checkDevice(name string, g DeviceStat) error {
	if _, err := store.DeviceBytes(g.Strips, g.StripBytes); err != nil {
		return err
	}
	if most := batchStripMax(name); g.StripBytes > most {
		return fmt.Errorf("%w: %d-byte strips of device %s; a batch message carries strips of at most %d bytes",
			store.ErrBadGeometry, g.StripBytes, name, most)
	}
	return nil
}

// sumsMaxStrips caps the strips of one checksum op. What a strip costs there
// is one read through the node's single strip buffer and four bytes of
// answer, whatever its size, so the bound is a count: far above any
// geometry's strips per cycle, small enough that one op cannot hold the
// stream for long.
const sumsMaxStrips = 1 << 16

// batchDevice resolves a batch item's device.
func (n *Node) batchDevice(name string) (store.Device, error) {
	n.mu.RLock()
	dev, ok := n.devs[name]
	n.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: device %s", ErrNodeNotFound, name)
	}
	return dev, nil
}

// verdict records err as a response item's catalogue code and text.
func (it *batchItem) verdict(err error) {
	it.Code, it.Msg, it.Payload = Catalogue.Encode(err).Code, err.Error(), nil
}

// readStrips answers a read message: every item answered in place with its
// strip, or with the catalogue code a single read would have failed with —
// one missing device or bad index fails that item alone. A message whose
// answer would exceed the cap is refused item by item.
func (n *Node) readStrips(items []batchItem) []byte {
	devs, widest, size := make([]store.Device, len(items)), 0, batchHeaderLen+batchTrailer
	for i := range items {
		it := &items[i]
		it.Code, it.Msg = "", ""
		var err error
		if devs[i], err = n.batchDevice(it.Name); err != nil {
			it.verdict(err)
		} else {
			widest = max(widest, devs[i].StripBytes())
			size += devs[i].StripBytes()
		}
		size += it.wireSize()
	}
	if size > batchMaxBytes {
		refuse(items, overCap(int64(size)))
		return encodeBatch(kindReadResp, fence{}, items, nil)
	}
	// Lay the answer out as if every read will succeed and read each strip
	// into its place; only when one fails is the message built again around
	// the verdicts, from the strips already read.
	blank := getMsg(widest)
	defer putMsg(blank)
	for i, dev := range devs {
		if dev != nil {
			items[i].Payload = blank[:dev.StripBytes()]
		}
	}
	var errs []error
	body := encodeBatch(kindReadResp, fence{}, items, func(i int, p []byte) {
		if err := devs[i].ReadStrip(items[i].Strip, p); err != nil {
			if errs == nil {
				errs = make([]error, len(items))
			}
			errs[i] = err
		}
	})
	if errs != nil {
		for i, err := range errs {
			if err != nil {
				items[i].verdict(err)
			}
		}
		first := body
		body = encodeBatch(kindReadResp, fence{}, items, nil)
		putMsg(first)
	}
	return body
}

// refuse fails every item of a request with err.
func refuse(items []batchItem, err error) {
	for i := range items {
		items[i].verdict(err)
	}
}

// overCap is the refusal of a request whose answer of size bytes would exceed
// the message cap.
func overCap(size int64) error {
	return fmt.Errorf("%w: an answer of %d bytes exceeds the %d-byte message cap", store.ErrBadGeometry, size, batchMaxBytes)
}

// writeStrips answers a write message, whose checksum has verified before
// the first strip touches media, so a torn message places nothing. A write
// fenced below the node's promise is refused item by item. The items are
// written in order; one that fails does not stop the ones after it — the
// commit of a parity closure is best-effort across the whole closure
// (store.Array) — and carries its own code back.
func (n *Node) writeStrips(f fence, items []batchItem) []byte {
	refused := n.admit(f)
	for i := range items {
		it := &items[i]
		err := refused
		if err == nil {
			var dev store.Device
			dev, err = n.batchDevice(it.Name)
			switch {
			case err != nil:
			case it.Payload == nil || len(it.Payload) != dev.StripBytes():
				err = fmt.Errorf("%w: %d payload bytes, strip is %d", store.ErrShortBuffer, len(it.Payload), dev.StripBytes())
			default:
				err = dev.WriteStrip(it.Strip, it.Payload)
			}
		}
		it.Code, it.Msg, it.Payload = "", "", nil
		if err != nil {
			it.verdict(err)
		}
	}
	return encodeBatch(kindWriteResp, fence{}, items, nil)
}

// serveItems answers a message of device, blob or node ops. Each item is
// checked whole before it acts (checkItem) — an item that does not check
// changes nothing, the fence included — then done behind the message's fence,
// and answered in place: with what it read, or with the catalogue code of its
// failure. One item's failure does not stop the items after it. A message
// whose answer would exceed the cap is refused item by item, and so is a
// ping or an inventory read of more than one item: each item's answer would
// carry the same bytes again.
func (n *Node) serveItems(kind byte, f fence, items []batchItem) []byte {
	if (kind == kindPing || kind == kindStat) && len(items) > 1 {
		refuse(items, fmt.Errorf("%w: a ping or an inventory read of %d items", store.ErrBadGeometry, len(items)))
		return encodeBatch(kind+1, fence{}, items, nil)
	}
	size := int64(batchHeaderLen + batchTrailer)
	for i := range items {
		it := &items[i]
		it.Code, it.Msg = "", ""
		size += int64(batchItemMin + len(it.Name))
		switch kind {
		case kindBlobRead:
			size += min(max(it.Size, 0), batchMaxBytes)
		case kindDevSums:
			size += 4 * min(max(it.Size, 0), batchMaxBytes)
		}
	}
	if size > batchMaxBytes {
		refuse(items, overCap(size))
		return encodeBatch(kind+1, fence{}, items, nil)
	}
	for i := range items {
		it := &items[i]
		err := checkItem(kind, f, it)
		if err == nil {
			err = n.do(kind, f, it)
		}
		if !hasPayload(kind + 1) {
			it.Payload = nil
		}
		if err != nil {
			it.verdict(err)
		}
	}
	return encodeBatch(kind+1, fence{}, items, nil)
}

// checkItem refuses an op no node could do: a generation without the epoch
// every metadata write carries (DESIGN.md §14), a name that is not one path
// segment where the op may create, a device geometry the node cannot serve,
// a negative blob offset or size, a checksum op past its cap, a lease without
// a holder or an epoch, or with a renewal flag other than 0 or 1. A read past
// the message cap is refused with its whole message (serveItems).
func checkItem(kind byte, f fence, it *batchItem) error {
	creates := kind == kindDevCreate || kind == kindBlobCreate || kind == kindBlobWrite || kind == kindBlobTruncate
	switch {
	case it.Gen != 0 && !f.on:
		return fmt.Errorf("%w: generation %d without an epoch", store.ErrBadGeometry, it.Gen)
	case creates && !validName(it.Name):
		return fmt.Errorf("%w: bad name %q", store.ErrBadGeometry, it.Name)
	}
	switch kind {
	case kindDevCreate:
		return checkDevice(it.Name, DeviceStat{Strips: it.Strip, StripBytes: int(it.Size)})
	case kindDevSums:
		if it.Size > sumsMaxStrips {
			return fmt.Errorf("%w: sums of %d strips exceed the %d-strip cap", store.ErrBadGeometry, it.Size, sumsMaxStrips)
		}
	case kindBlobRead, kindBlobWrite, kindBlobTruncate:
		if it.Strip < 0 || it.Size < 0 {
			return fmt.Errorf("%w: offset %d, size %d", store.ErrNegativeOffset, it.Strip, it.Size)
		}
	case kindLease:
		if it.Name == "" || it.Strip == 0 || uint64(it.Size) > 1 {
			return fmt.Errorf("%w: lease of epoch %d to %q, renewal flag %d", store.ErrBadGeometry, uint64(it.Strip), it.Name, it.Size)
		}
	}
	return nil
}

// do does one checked device, blob or node op. A blob's bytes are read and
// changed under n.metaMu, from the fence check and the generation rule
// (blobFor) to the end of the op; a create or a delete changes the tables
// under both locks, behind the fence (change). A ping takes no lock, so the
// prober's never waits behind a blob's fsync.
func (n *Node) do(kind byte, f fence, it *batchItem) error {
	switch kind {
	case kindPing:
		it.Payload = []byte(n.id)
		return nil
	case kindStat:
		st, err := json.Marshal(n.stat())
		if err == nil && len(st) > batchStripMax(it.Name) {
			err = fmt.Errorf("%w: an inventory of %d bytes does not fit a message", store.ErrBadGeometry, len(st))
		}
		it.Payload = st
		return err
	case kindLease:
		return n.lease(it.Name, uint64(it.Strip), it.Size == 1)
	case kindDevCreate:
		return n.change(f, func() error { return n.createDevice(it.Name, DeviceStat{Strips: it.Strip, StripBytes: int(it.Size)}) })
	case kindDevDelete:
		return n.change(f, func() error { return n.deleteDevice(it.Name) })
	case kindDevSums:
		return n.stripSums(it)
	case kindBlobCreate:
		return n.change(f, func() error { return n.createBlob(it.Name) })
	case kindBlobDelete:
		return n.change(f, func() error { return n.deleteBlob(it.Name) })
	case kindBlobRead:
		return n.readBlob(it)
	case kindBlobStat:
		n.metaMu.Lock()
		defer n.metaMu.Unlock()
		b, ok := n.blobs[it.Name]
		if !ok {
			return fmt.Errorf("%w: blob %s", ErrNodeNotFound, it.Name)
		}
		size, err := b.Size()
		it.Size, it.Gen = size, b.gen
		return err
	case kindBlobWrite:
		return n.blobOp(it.Name, f, it.Gen, true, func(b store.Blob) error {
			_, err := b.WriteAt(it.Payload, it.Strip)
			return err
		})
	case kindBlobSync:
		return n.blobOp(it.Name, f, it.Gen, false, store.Blob.Sync)
	case kindBlobTruncate:
		// A truncation opens a generation: the blob's new size must not be
		// lost with the node's page cache.
		return n.blobOp(it.Name, f, it.Gen, true, func(b store.Blob) error {
			if err := b.Truncate(it.Size); err != nil {
				return err
			}
			return b.Sync()
		})
	}
	return fmt.Errorf("%w: message kind %d", ErrBadFrame, kind)
}

// change runs act, an op that creates or deletes a device or blob, with both
// locks held, behind the fence (a newer epoch is adopted first).
func (n *Node) change(f fence, act func() error) error {
	n.lockAll()
	defer n.unlockAll()
	if err := n.adopt(f); err != nil {
		return err
	}
	return act()
}

// createDevice makes a device, idempotently: one that exists with the
// requested geometry is answered as created — a coordinator retrying a create
// whose ack was lost must not error out — and one of another geometry is
// refused.
func (n *Node) createDevice(name string, g DeviceStat) error {
	if cur, ok := n.geo[name]; ok {
		if cur != g {
			return fmt.Errorf("%w: device %s exists with %dx%d, requested %dx%d",
				store.ErrBadGeometry, name, cur.Strips, cur.StripBytes, g.Strips, g.StripBytes)
		}
		return nil
	}
	dev, err := n.newDev(name, g.Strips, g.StripBytes)
	if err != nil {
		return err
	}
	n.devs[name], n.geo[name] = dev, g
	return n.saveState()
}

// deleteDevice removes a device and its backing file — the source reclaim
// step after a migration flips. Idempotent: deleting an absent device
// succeeds, so a lost ack is safely re-sent.
func (n *Node) deleteDevice(name string) error {
	dev, ok := n.devs[name]
	if !ok {
		return nil
	}
	if err := dev.Close(); err != nil {
		return err
	}
	delete(n.devs, name)
	delete(n.geo, name)
	if n.dir != "" {
		os.Remove(n.path(name, ".img"))
	}
	return n.saveState()
}

// createBlob makes an empty blob at generation 0, idempotently.
func (n *Node) createBlob(name string) error {
	if _, ok := n.blobs[name]; ok {
		return nil
	}
	b, err := n.newBlob(name)
	if err != nil {
		return err
	}
	n.blobs[name] = &nodeBlob{Blob: b}
	return n.saveState()
}

// deleteBlob removes a blob (the migrated disk's stale superblock copy),
// idempotently like deleteDevice.
func (n *Node) deleteBlob(name string) error {
	b, ok := n.blobs[name]
	if !ok {
		return nil
	}
	if err := b.Close(); err != nil {
		return err
	}
	delete(n.blobs, name)
	if n.dir != "" {
		os.Remove(n.path(name, ".blob"))
	}
	return n.saveState()
}

// stripSums answers a checksum op with the CRC-32C of each strip of a range —
// the cheap side channel a resuming migration uses to verify its committed
// prefix without re-reading the data over the wire.
func (n *Node) stripSums(it *batchItem) error {
	dev, err := n.batchDevice(it.Name)
	if err != nil {
		return err
	}
	start, count := it.Strip, it.Size
	if start < 0 || count <= 0 || start+count > dev.Strips() {
		return fmt.Errorf("%w: range [%d,%d) of %d strips", store.ErrStripOutOfRange, start, start+count, dev.Strips())
	}
	buf, sums := make([]byte, dev.StripBytes()), make([]byte, 0, 4*count)
	for i := int64(0); i < count; i++ {
		if err := dev.ReadStrip(start+i, buf); err != nil {
			return err
		}
		sums = binary.BigEndian.AppendUint32(sums, crc32.Checksum(buf, castagnoli))
	}
	it.Payload = sums
	return nil
}

// readBlob answers a read with os.File ReadAt semantics: the available
// prefix, marked EOF when the read ran off the end, and the blob's
// generation.
func (n *Node) readBlob(it *batchItem) error {
	n.metaMu.Lock()
	defer n.metaMu.Unlock()
	b, ok := n.blobs[it.Name]
	if !ok {
		return fmt.Errorf("%w: blob %s", ErrNodeNotFound, it.Name)
	}
	size, err := b.Size()
	if err != nil {
		return err
	}
	buf := make([]byte, max(min(it.Size, size-it.Strip), 0))
	nr, err := b.ReadAt(buf, it.Strip)
	if err != nil && err != io.EOF {
		return err
	}
	it.Payload, it.Gen, it.EOF = buf[:nr], b.gen, int64(nr) < it.Size || err == io.EOF
	return nil
}

// blobFor applies the fence and the generation rule to a mutating op on
// blob name, with n.metaMu held, and returns the blob to act on. The rule
// is the same for every blob:
//
//   - an op stamped below the blob's generation is refused (ErrStaleGen):
//     a newer coordinator has truncated the blob into a new stream;
//   - one stamped above it wipes the blob, then adopts the generation:
//     the node missed the truncation that opened it, and nothing of the
//     destroyed stream may survive into the new one;
//   - a stamped write or truncate (create) makes a missing blob; anything
//     else on a missing blob is ErrNodeNotFound.
//
// So a blob replica at generation G holds only zeros and bytes of the
// generation-G stream, which is what makes frame-level merge recovery
// sound.
func (n *Node) blobFor(name string, f fence, gen uint64, create bool) (store.Blob, error) {
	if err := n.adopt(f); err != nil {
		return nil, err
	}
	b, ok := n.blobs[name]
	switch {
	case !ok && !(create && gen != 0):
		return nil, fmt.Errorf("%w: blob %s", ErrNodeNotFound, name)
	case ok && (gen == 0 || gen == b.gen):
		return b, nil
	case ok && gen < b.gen:
		return nil, fmt.Errorf("%w: blob %s gen %d, node at %d", ErrStaleGen, name, gen, b.gen)
	}
	if !ok {
		blob, err := n.newBlob(name)
		if err != nil {
			return nil, err
		}
		b = &nodeBlob{Blob: blob}
		n.blobs[name] = b
	}
	if err := b.Truncate(0); err != nil {
		return nil, err
	}
	b.gen = gen
	return b, n.saveState()
}

// blobOp runs op on blob name for a mutating op, in one step with its fence
// check and generation rule (blobFor): n.metaMu is held from the check to
// the end of op.
func (n *Node) blobOp(name string, f fence, gen uint64, create bool, op func(store.Blob) error) error {
	n.metaMu.Lock()
	defer n.metaMu.Unlock()
	b, err := n.blobFor(name, f, gen, create)
	if err != nil {
		return err
	}
	return op(b)
}

// validName bounds exported names to one path segment of portable
// characters, so names map safely onto files and URL paths.
func validName(name string) bool {
	if name == "" || len(name) > 128 {
		return false
	}
	for _, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '_', c == '.':
		default:
			return false
		}
	}
	return !strings.HasPrefix(name, ".")
}
