package netdev

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"

	"github.com/oiraid/oiraid/internal/retry"
	"github.com/oiraid/oiraid/internal/store"
)

// Catalogue is the node plane's error table (see retry.Catalogue): the
// handlers encode every failure through it and NodeClient decodes the
// X-Oiraid-Err code back into the same sentinel, so the error taxonomy
// survives the network hop. A sentinel that wraps another precedes it.
var Catalogue = retry.Catalogue{
	// Fencing verdicts on the writer, never retried: the node has promised
	// a newer coordinator epoch, or a newer coordinator has truncated the
	// metadata blob into a new stream (ErrStaleGen wraps ErrStaleEpoch).
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
	// The frame did not survive the wire. The node refuses it — damaged
	// bytes must not reach media — and the client re-sends.
	{Err: ErrBadFrame, Code: "bad-frame", Status: http.StatusBadRequest, Retryable: true},
	// The node's local media is dying. This must NOT look like a network
	// fault: it passes through as a permanent device error so the
	// coordinator's monitor evicts exactly that disk.
	{Err: store.ErrPermanent, Code: "permanent", Status: http.StatusInternalServerError},
	{Err: store.ErrTransient, Code: "transient", Status: http.StatusServiceUnavailable, Retryable: true},
	{Code: "io", Status: http.StatusInternalServerError, Retryable: true},
}

// crcHeader carries the CRC-32C of a blob read/write body; eofHeader
// marks a blob read that ran off the end of the blob (os.File ReadAt
// semantics: prefix + EOF).
const (
	crcHeader = "X-Oiraid-Crc"
	eofHeader = "X-Oiraid-Eof"
)

// ErrNodeNotFound reports a device or blob name the node does not serve.
var ErrNodeNotFound = errors.New("netdev: no such device or blob on node")

// DeviceStat is one exported device's geometry, as served by /stat.
type DeviceStat struct {
	Strips     int64 `json:"strips"`
	StripBytes int   `json:"strip_bytes"`
}

// NodeStat is the storage node's inventory, served by GET /node/v1/stat.
type NodeStat struct {
	Node    string                `json:"node"`
	Devices map[string]DeviceStat `json:"devices"`
	Blobs   map[string]int64      `json:"blobs"`
}

// Node exports a set of named strip devices and metadata blobs over
// HTTP. It is the server half of the network plane: a coordinator's
// NetDevice/NetBlob clients drive it. The zero tricks rule applies —
// every handler validates before touching media, and strip payloads are
// refused unless their frame checksum verifies, so a torn request can
// never place damaged bytes on a disk.
type Node struct {
	id  string
	dir string // non-empty for directory-backed nodes

	mu    sync.RWMutex
	devs  map[string]store.Device
	geo   map[string]DeviceStat
	blobs map[string]store.Blob

	newDev  func(name string, strips int64, stripBytes int) (store.Device, error)
	newBlob func(name string) (store.Blob, error)

	// Replicated-metadata surface: the fencing promise (epoch + holder),
	// the lease-renewal liveness counter, and the generation-tracked
	// metadata blobs a coordinator quorum-replicates its manifest and
	// journal regions into. Guarded by metaMu (not mu: data-plane fence
	// checks must not contend with inventory scans).
	metaMu    sync.Mutex
	epoch     uint64
	holder    string
	renewSeq  uint64
	metaGens  map[string]uint64
	metaBlobs map[string]store.Blob
}

// NewMemNode builds a memory-backed storage node (tests, benchmarks).
// A device created through the API lives until it is deleted or the node
// is closed: Close releases every device's bytes, so it models losing the
// node's media. Serving the same open Node again behind a new listener
// models a node restart that keeps them.
func NewMemNode(id string) *Node {
	n := &Node{
		id:        id,
		devs:      map[string]store.Device{},
		geo:       map[string]DeviceStat{},
		blobs:     map[string]store.Blob{},
		metaGens:  map[string]uint64{},
		metaBlobs: map[string]store.Blob{},
	}
	n.newDev = func(_ string, strips int64, stripBytes int) (store.Device, error) {
		return store.NewMemDevice(strips, stripBytes)
	}
	n.newBlob = func(string) (store.Blob, error) { return store.NewMemBlob(), nil }
	return n
}

// NewDirNode builds (or reopens) a directory-backed storage node: each
// device is an image file, each blob a flat file, and a node.json
// manifest records device geometry so a restart reopens everything
// as-is.
func NewDirNode(id, dir string) (*Node, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	n := &Node{
		id:        id,
		dir:       dir,
		devs:      map[string]store.Device{},
		geo:       map[string]DeviceStat{},
		blobs:     map[string]store.Blob{},
		metaGens:  map[string]uint64{},
		metaBlobs: map[string]store.Blob{},
	}
	n.newDev = func(name string, strips int64, stripBytes int) (store.Device, error) {
		return store.NewFileDevice(filepath.Join(dir, name+".img"), strips, stripBytes)
	}
	n.newBlob = func(name string) (store.Blob, error) {
		return store.CreateFileBlob(filepath.Join(dir, name+".blob"))
	}
	if err := n.loadManifest(); err != nil {
		return nil, err
	}
	if err := n.loadMetaState(); err != nil {
		return nil, err
	}
	return n, nil
}

// nodeManifest is the persisted inventory of a directory-backed node.
type nodeManifest struct {
	Devices map[string]DeviceStat `json:"devices"`
	Blobs   []string              `json:"blobs"`
}

func (n *Node) manifestPath() string { return filepath.Join(n.dir, "node.json") }

func (n *Node) loadManifest() error {
	raw, err := os.ReadFile(n.manifestPath())
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	var m nodeManifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return fmt.Errorf("netdev: node manifest %s: %w", n.manifestPath(), err)
	}
	for name, g := range m.Devices {
		dev, err := store.OpenFileDevice(filepath.Join(n.dir, name+".img"), g.Strips, g.StripBytes)
		if err != nil {
			return fmt.Errorf("netdev: reopen device %s: %w", name, err)
		}
		n.devs[name] = dev
		n.geo[name] = g
	}
	for _, name := range m.Blobs {
		b, err := store.OpenFileBlob(filepath.Join(n.dir, name+".blob"))
		if err != nil {
			return fmt.Errorf("netdev: reopen blob %s: %w", name, err)
		}
		n.blobs[name] = b
	}
	return nil
}

// saveManifest persists the inventory atomically (write + rename +
// directory sync), called with n.mu held.
func (n *Node) saveManifest() error {
	if n.dir == "" {
		return nil
	}
	m := nodeManifest{Devices: n.geo, Blobs: make([]string, 0, len(n.blobs))}
	for name := range n.blobs {
		m.Blobs = append(m.Blobs, name)
	}
	raw, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	tmp := n.manifestPath() + ".tmp"
	if err := os.WriteFile(tmp, raw, 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, n.manifestPath()); err != nil {
		return err
	}
	return store.SyncDir(n.dir)
}

// Close closes every device and blob the node serves.
func (n *Node) Close() error {
	n.mu.Lock()
	defer n.mu.Unlock()
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
	n.metaMu.Lock()
	for _, b := range n.metaBlobs {
		if err := b.Close(); err != nil && first == nil {
			first = err
		}
	}
	n.metaMu.Unlock()
	return first
}

// AddDevice registers an existing device under name (test hook: lets a
// FaultDevice-wrapped device stand behind the network plane).
func (n *Node) AddDevice(name string, dev store.Device) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.devs[name] = dev
	n.geo[name] = DeviceStat{Strips: dev.Strips(), StripBytes: dev.StripBytes()}
}

// device resolves the request's {dev} segment, answering 404 itself when
// the node does not serve it.
func (n *Node) device(w http.ResponseWriter, r *http.Request) (store.Device, bool) {
	n.mu.RLock()
	d, ok := n.devs[r.PathValue("dev")]
	n.mu.RUnlock()
	if !ok {
		fail(w, fmt.Errorf("%w: device %s", ErrNodeNotFound, r.PathValue("dev")))
	}
	return d, ok
}

// blob is device for the {name} segment of the blob routes.
func (n *Node) blob(w http.ResponseWriter, r *http.Request) (store.Blob, bool) {
	n.mu.RLock()
	b, ok := n.blobs[r.PathValue("name")]
	n.mu.RUnlock()
	if !ok {
		fail(w, fmt.Errorf("%w: blob %s", ErrNodeNotFound, r.PathValue("name")))
	}
	return b, ok
}

// Handler returns the node's HTTP surface, mounted under /node/v1/.
func (n *Node) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /node/v1/ping", n.handlePing)
	mux.HandleFunc("GET /node/v1/stat", n.handleStat)
	mux.HandleFunc("POST /node/v1/devices/{dev}", n.handleCreateDevice)
	mux.HandleFunc("DELETE /node/v1/devices/{dev}", n.handleDeleteDevice)
	mux.HandleFunc("GET /node/v1/devices/{dev}/strips/{idx}", n.handleReadStrip)
	mux.HandleFunc("PUT /node/v1/devices/{dev}/strips/{idx}", n.handleWriteStrip)
	mux.HandleFunc("GET /node/v1/devices/{dev}/sums", n.handleStripSums)
	mux.HandleFunc("POST /node/v1/strips/read", n.handleReadStrips)
	mux.HandleFunc("POST /node/v1/strips/write", n.handleWriteStrips)
	mux.HandleFunc("POST /node/v1/blobs/{name}", n.handleCreateBlob)
	mux.HandleFunc("DELETE /node/v1/blobs/{name}", n.handleDeleteBlob)
	mux.HandleFunc("GET /node/v1/blobs/{name}", n.handleReadBlob)
	mux.HandleFunc("PUT /node/v1/blobs/{name}", n.handleWriteBlob)
	mux.HandleFunc("GET /node/v1/blobs/{name}/stat", n.handleStatBlob)
	mux.HandleFunc("POST /node/v1/blobs/{name}/sync", n.handleSyncBlob)
	mux.HandleFunc("POST /node/v1/blobs/{name}/truncate", n.handleTruncateBlob)
	mux.HandleFunc("GET /node/v1/meta/state", n.handleMetaState)
	mux.HandleFunc("POST /node/v1/meta/lease", n.handleMetaLease)
	mux.HandleFunc("GET /node/v1/meta/blobs/{name}", n.handleMetaRead)
	mux.HandleFunc("PUT /node/v1/meta/blobs/{name}", n.handleMetaWrite)
	mux.HandleFunc("POST /node/v1/meta/blobs/{name}/sync", n.handleMetaSync)
	mux.HandleFunc("POST /node/v1/meta/blobs/{name}/truncate", n.handleMetaTruncate)
	return mux
}

// fail writes err as the coded response its catalogue row prescribes.
func fail(w http.ResponseWriter, err error) {
	Catalogue.Encode(err).Write(w, err)
}

// failAs answers with class's catalogue row but err's own text (an
// unparsable request is an ErrBadGeometry without being worded as one).
func failAs(w http.ResponseWriter, class, err error) {
	Catalogue.Encode(class).Write(w, err)
}

func (n *Node) handlePing(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, map[string]string{"node": n.id})
}

func (n *Node) handleStat(w http.ResponseWriter, r *http.Request) {
	n.mu.RLock()
	st := NodeStat{Node: n.id, Devices: map[string]DeviceStat{}, Blobs: map[string]int64{}}
	for name, g := range n.geo {
		st.Devices[name] = g
	}
	blobs := make(map[string]store.Blob, len(n.blobs))
	for name, b := range n.blobs {
		blobs[name] = b
	}
	n.mu.RUnlock()
	for name, b := range blobs {
		size, err := b.Size()
		if err != nil {
			size = -1
		}
		st.Blobs[name] = size
	}
	writeJSON(w, st)
}

// createDeviceReq is the body of POST /node/v1/devices/{dev}.
type createDeviceReq struct {
	Strips     int64 `json:"strips"`
	StripBytes int   `json:"strip_bytes"`
}

func (n *Node) handleCreateDevice(w http.ResponseWriter, r *http.Request) {
	if !n.fenceOK(w, r) {
		return
	}
	name := r.PathValue("dev")
	if !validName(name) {
		failAs(w, store.ErrBadGeometry, fmt.Errorf("netdev: bad device name %q", name))
		return
	}
	var req createDeviceReq
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<16)).Decode(&req); err != nil {
		failAs(w, store.ErrBadGeometry, err)
		return
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if g, ok := n.geo[name]; ok {
		// Idempotent when the geometry matches: a coordinator retrying a
		// create (its ack was lost) must not error out.
		if g.Strips == req.Strips && g.StripBytes == req.StripBytes {
			writeJSON(w, g)
			return
		}
		row := Catalogue.Encode(store.ErrBadGeometry)
		row.Status = http.StatusConflict
		row.Write(w, fmt.Errorf("netdev: device %s exists with %dx%d, requested %dx%d",
			name, g.Strips, g.StripBytes, req.Strips, req.StripBytes))
		return
	}
	dev, err := n.newDev(name, req.Strips, req.StripBytes)
	if err != nil {
		fail(w, err)
		return
	}
	n.devs[name] = dev
	n.geo[name] = DeviceStat{Strips: req.Strips, StripBytes: req.StripBytes}
	if err := n.saveManifest(); err != nil {
		fail(w, err)
		return
	}
	writeJSON(w, n.geo[name])
}

func (n *Node) handleReadStrip(w http.ResponseWriter, r *http.Request) {
	dev, ok := n.device(w, r)
	if !ok {
		return
	}
	idx, err := strconv.ParseInt(r.PathValue("idx"), 10, 64)
	if err != nil {
		failAs(w, store.ErrBadGeometry, err)
		return
	}
	frame := make([]byte, FrameHeaderLen+dev.StripBytes())
	if err := dev.ReadStrip(idx, frame[FrameHeaderLen:]); err != nil {
		fail(w, err)
		return
	}
	sealFrame(frame, OpRead, idx)
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(frame)))
	w.Write(frame)
}

func (n *Node) handleWriteStrip(w http.ResponseWriter, r *http.Request) {
	if !n.fenceOK(w, r) {
		return
	}
	dev, ok := n.device(w, r)
	if !ok {
		return
	}
	idx, err := strconv.ParseInt(r.PathValue("idx"), 10, 64)
	if err != nil {
		failAs(w, store.ErrBadGeometry, err)
		return
	}
	body, err := readSized(r.Body, r.ContentLength, FrameHeaderLen+dev.StripBytes())
	if err != nil {
		fail(w, err)
		return
	}
	fr, err := DecodeFrame(body, dev.StripBytes())
	if err != nil {
		// The frame did not survive the wire (or the sender is broken
		// in a way the checksum catches). Refuse: damaged bytes must not
		// reach media. The client treats bad-frame as transient and
		// re-sends.
		fail(w, err)
		return
	}
	if fr.Op != OpWrite {
		fail(w, fmt.Errorf("%w: op %d on write", ErrBadFrame, fr.Op))
		return
	}
	if fr.Strip != idx {
		// URL and frame disagree about the target strip: a routing bug
		// or a mixed-up retry. Refusing keeps a misdirected write from
		// silently landing on the wrong strip.
		fail(w, fmt.Errorf("%w: frame strip %d, url strip %d", ErrBadFrame, fr.Strip, idx))
		return
	}
	if len(fr.Payload) != dev.StripBytes() {
		fail(w, fmt.Errorf("%w: %d payload bytes, strip is %d", store.ErrShortBuffer, len(fr.Payload), dev.StripBytes()))
		return
	}
	if err := dev.WriteStrip(idx, fr.Payload); err != nil {
		fail(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// sumsMaxStrips caps the strips of one checksum request. What a strip costs
// there is one read through the handler's single strip buffer and a dozen
// bytes of response, whatever its size, so the bound is a count: far above
// any geometry's strips per cycle, small enough that one request cannot hold
// the handler for long.
const sumsMaxStrips = 1 << 16

// readCapped reads the body of a bulk request (a strip batch) into
// one buffer sized from its Content-Length. A body over max is the sender's
// bug, not the wire's, and is refused as such — on its declared length before
// anything is allocated, or, when the length is undeclared, once it has run
// past the bound.
func readCapped(r *http.Request, max int) ([]byte, error) {
	if r.ContentLength <= int64(max) {
		body, err := readSized(r.Body, r.ContentLength, max)
		if err != nil || len(body) <= max {
			return body, err
		}
	}
	return nil, fmt.Errorf("%w: request body exceeds the %d-byte cap", store.ErrBadGeometry, max)
}

// readBatch reads and decodes a batch request of the given kind, answering
// the failure itself: a message that did not survive the wire is refused
// whole — retryably — before anything it names is touched.
func readBatch(w http.ResponseWriter, r *http.Request, kind byte) ([]batchItem, bool) {
	body, err := readCapped(r, batchMaxBytes)
	var items []batchItem
	if err == nil {
		items, err = decodeBatch(body, kind, batchMaxBytes)
	}
	if err != nil {
		fail(w, err)
	}
	return items, err == nil
}

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

// writeBatch answers with a batch message.
func writeBatch(w http.ResponseWriter, body []byte) {
	w.Header().Set("Content-Type", octetStream)
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.Write(body)
}

// handleReadStrips serves a batch of strip reads, of any of the node's
// devices, in one response: every item answered in place with the strip in a
// frame of its own, or with the catalogue code a single read would have
// failed with — one missing device or bad index fails that item alone.
func (n *Node) handleReadStrips(w http.ResponseWriter, r *http.Request) {
	items, ok := readBatch(w, r, kindReadReq)
	if !ok {
		return
	}
	devs, widest, size := make([]store.Device, len(items)), 0, batchHeaderLen+batchTrailer
	for i := range items {
		it := &items[i]
		it.Code, it.Msg = "", ""
		var err error
		if devs[i], err = n.batchDevice(it.Dev); err != nil {
			it.verdict(err)
		} else {
			widest = max(widest, devs[i].StripBytes())
			size += FrameHeaderLen + devs[i].StripBytes()
		}
		size += it.wireSize()
	}
	if size > batchMaxBytes {
		fail(w, fmt.Errorf("%w: a response of %d bytes exceeds the %d-byte batch cap", store.ErrBadGeometry, size, batchMaxBytes))
		return
	}
	// Lay the response out as if every read will succeed and read each strip
	// into its frame; only when one fails is the message built again around
	// the verdicts, from the strips already read.
	blank := make([]byte, widest)
	for i, dev := range devs {
		if dev != nil {
			items[i].Payload = blank[:dev.StripBytes()]
		}
	}
	var errs []error
	body := encodeBatch(kindReadResp, items, func(i int, p []byte) {
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
		body = encodeBatch(kindReadResp, items, nil)
	}
	writeBatch(w, body)
}

// handleWriteStrips lands a batch of strip writes in one request. Fenced
// like a single write, and every frame's checksum has verified before the
// first strip touches media, so a torn message places nothing. The items
// are written in order; one that fails does not stop the ones after it —
// the commit of a parity closure is best-effort across the whole closure
// (store.Array) — and carries its own code back.
func (n *Node) handleWriteStrips(w http.ResponseWriter, r *http.Request) {
	if !n.fenceOK(w, r) {
		return
	}
	items, ok := readBatch(w, r, kindWriteReq)
	if !ok {
		return
	}
	for i := range items {
		it := &items[i]
		dev, err := n.batchDevice(it.Dev)
		switch {
		case err != nil:
		case it.Payload == nil || len(it.Payload) != dev.StripBytes():
			err = fmt.Errorf("%w: %d payload bytes, strip is %d", store.ErrShortBuffer, len(it.Payload), dev.StripBytes())
		default:
			err = dev.WriteStrip(it.Strip, it.Payload)
		}
		it.Code, it.Msg, it.Payload = "", "", nil
		if err != nil {
			it.verdict(err)
		}
	}
	writeBatch(w, encodeBatch(kindWriteResp, items, nil))
}

// handleStripSums serves per-strip CRC-32C checksums for a range — the
// cheap side channel a resuming migration uses to verify its committed
// prefix without re-reading the data over the wire.
func (n *Node) handleStripSums(w http.ResponseWriter, r *http.Request) {
	dev, ok := n.device(w, r)
	if !ok {
		return
	}
	start, err1 := strconv.ParseInt(r.URL.Query().Get("start"), 10, 64)
	count, err2 := strconv.Atoi(r.URL.Query().Get("count"))
	if err1 != nil || err2 != nil {
		failAs(w, store.ErrBadGeometry, fmt.Errorf("netdev: bad sums query"))
		return
	}
	if start < 0 || count <= 0 || start+int64(count) > dev.Strips() {
		fail(w, fmt.Errorf("%w: range [%d,%d) of %d strips", store.ErrStripOutOfRange, start, start+int64(count), dev.Strips()))
		return
	}
	if count > sumsMaxStrips {
		fail(w, fmt.Errorf("%w: sums of %d strips exceed the %d-strip cap", store.ErrBadGeometry, count, sumsMaxStrips))
		return
	}
	buf := make([]byte, dev.StripBytes())
	sums := make([]string, count)
	for i := 0; i < count; i++ {
		if err := dev.ReadStrip(start+int64(i), buf); err != nil {
			fail(w, err)
			return
		}
		sums[i] = blobCRC(buf)
	}
	writeJSON(w, map[string][]string{"sums": sums})
}

// handleDeleteDevice removes a device and its backing file — the source
// reclaim step after a migration flips. Fenced (a deposed coordinator
// must not reclaim anything) and idempotent: deleting an absent device
// succeeds, so a lost ack is safely re-sent.
func (n *Node) handleDeleteDevice(w http.ResponseWriter, r *http.Request) {
	if !n.fenceOK(w, r) {
		return
	}
	name := r.PathValue("dev")
	n.mu.Lock()
	defer n.mu.Unlock()
	dev, ok := n.devs[name]
	if !ok {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	if err := dev.Close(); err != nil {
		fail(w, err)
		return
	}
	delete(n.devs, name)
	delete(n.geo, name)
	if n.dir != "" {
		os.Remove(filepath.Join(n.dir, name+".img"))
	}
	if err := n.saveManifest(); err != nil {
		fail(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleDeleteBlob removes a blob (the migrated disk's stale superblock
// copy). Fenced and idempotent like device deletion.
func (n *Node) handleDeleteBlob(w http.ResponseWriter, r *http.Request) {
	if !n.fenceOK(w, r) {
		return
	}
	name := r.PathValue("name")
	n.mu.Lock()
	defer n.mu.Unlock()
	b, ok := n.blobs[name]
	if !ok {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	if err := b.Close(); err != nil {
		fail(w, err)
		return
	}
	delete(n.blobs, name)
	if n.dir != "" {
		os.Remove(filepath.Join(n.dir, name+".blob"))
	}
	if err := n.saveManifest(); err != nil {
		fail(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (n *Node) handleCreateBlob(w http.ResponseWriter, r *http.Request) {
	if !n.fenceOK(w, r) {
		return
	}
	name := r.PathValue("name")
	if !validName(name) {
		failAs(w, store.ErrBadGeometry, fmt.Errorf("netdev: bad blob name %q", name))
		return
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.blobs[name]; ok {
		w.WriteHeader(http.StatusNoContent) // idempotent
		return
	}
	b, err := n.newBlob(name)
	if err != nil {
		fail(w, err)
		return
	}
	n.blobs[name] = b
	if err := n.saveManifest(); err != nil {
		fail(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (n *Node) handleReadBlob(w http.ResponseWriter, r *http.Request) {
	b, ok := n.blob(w, r)
	if !ok {
		return
	}
	serveBlobRead(w, r, b, "blob")
}

// serveBlobRead answers a ?off=&len= read of b (a plain or a metadata
// blob) with os.File ReadAt semantics: the available prefix, checksummed,
// plus the EOF marker when the read ran off the end.
func serveBlobRead(w http.ResponseWriter, r *http.Request, b store.Blob, what string) {
	off, err := strconv.ParseInt(r.URL.Query().Get("off"), 10, 64)
	if err != nil {
		failAs(w, store.ErrBadGeometry, err)
		return
	}
	length, err := strconv.Atoi(r.URL.Query().Get("len"))
	if err != nil || length < 0 || length > 64<<20 {
		failAs(w, store.ErrBadGeometry, fmt.Errorf("netdev: bad %s read length", what))
		return
	}
	buf := make([]byte, length)
	nr, rerr := b.ReadAt(buf, off)
	if rerr != nil && rerr != io.EOF {
		fail(w, rerr)
		return
	}
	buf = buf[:nr]
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set(crcHeader, blobCRC(buf))
	if rerr == io.EOF {
		w.Header().Set(eofHeader, "1")
	}
	w.Header().Set("Content-Length", strconv.Itoa(len(buf)))
	w.Write(buf)
}

func (n *Node) handleWriteBlob(w http.ResponseWriter, r *http.Request) {
	if !n.fenceOK(w, r) {
		return
	}
	b, ok := n.blob(w, r)
	if !ok {
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
	// Metadata bytes get the same no-damaged-bytes-on-media guarantee as
	// strip frames: the declared checksum must match what arrived.
	if want := r.Header.Get(crcHeader); want != "" && want != blobCRC(body) {
		fail(w, fmt.Errorf("%w: blob body crc %s, header says %s", ErrBadFrame, blobCRC(body), want))
		return
	}
	nw, werr := b.WriteAt(body, off)
	if werr != nil {
		fail(w, werr)
		return
	}
	writeJSON(w, map[string]int{"written": nw})
}

func (n *Node) handleStatBlob(w http.ResponseWriter, r *http.Request) {
	b, ok := n.blob(w, r)
	if !ok {
		return
	}
	size, err := b.Size()
	if err != nil {
		fail(w, err)
		return
	}
	writeJSON(w, map[string]int64{"size": size})
}

func (n *Node) handleSyncBlob(w http.ResponseWriter, r *http.Request) {
	if !n.fenceOK(w, r) {
		return
	}
	b, ok := n.blob(w, r)
	if !ok {
		return
	}
	if err := b.Sync(); err != nil {
		fail(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (n *Node) handleTruncateBlob(w http.ResponseWriter, r *http.Request) {
	if !n.fenceOK(w, r) {
		return
	}
	b, ok := n.blob(w, r)
	if !ok {
		return
	}
	size, err := strconv.ParseInt(r.URL.Query().Get("size"), 10, 64)
	if err != nil {
		failAs(w, store.ErrBadGeometry, err)
		return
	}
	if err := b.Truncate(size); err != nil {
		fail(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
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
