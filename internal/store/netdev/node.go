package netdev

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"sort"
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
// semantics: prefix + EOF); genHeader carries the blob's generation on a
// read.
const (
	crcHeader = "X-Oiraid-Crc"
	eofHeader = "X-Oiraid-Eof"
	genHeader = "X-Oiraid-Gen"
)

// blobMaxBytes caps the body of one blob read or write.
const blobMaxBytes = 64 << 20

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

// NodeStat is the storage node's inventory, served by GET /node/v1/stat:
// its devices, its blobs, and its fence — the epoch it has promised, to
// whom, and the lease-renewal counter a standby watches.
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
// clients drive it. The zero tricks rule applies — every handler parses
// and checks its whole request before it touches the fence or media, and
// strip payloads are refused unless their frame checksum verifies, so a
// torn request can never place damaged bytes on a disk.
type Node struct {
	id  string
	dir string // non-empty for directory-backed nodes

	// mu guards the device table. Strip requests hold it shared only to
	// look a device up, so a strip read never waits on the fence or on a
	// blob's fsync; a fenced strip write takes metaMu for its check alone.
	mu   sync.RWMutex
	devs map[string]store.Device
	geo  map[string]DeviceStat

	// metaMu guards the blob table and the fence. A blob request holds it
	// from its fence check to the end of its operation, so no lease grant
	// or generation bump lands in between. A change to the device table
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

	streams nodeStreams // the open strip streams (stream.go)
}

// nodeBlob is a blob of the node's table with its generation: 0 until a
// gen-stamped request stamps one (see blobFor).
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
// device's geometry, every blob with the generation a request stamped on
// it (a blob at 0 is not listed in Gens), and the fence. A node that never
// saw a fenced or gen-stamped request writes only devices and blobs — the
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

// Close ends every strip stream, waits for their handlers, then closes every
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

// Handler returns the node's HTTP surface, mounted under /node/v1/.
func (n *Node) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /node/v1/ping", n.handlePing)
	mux.HandleFunc("GET /node/v1/stat", n.handleStat)
	mux.HandleFunc("POST /node/v1/devices/{dev}", n.handleCreateDevice)
	mux.HandleFunc("DELETE /node/v1/devices/{dev}", n.handleDeleteDevice)
	mux.HandleFunc("GET /node/v1/devices/{dev}/sums", n.handleStripSums)
	mux.HandleFunc("POST "+stripsPath, n.handleStrips)
	mux.HandleFunc("POST /node/v1/blobs/{name}", n.handleCreateBlob)
	mux.HandleFunc("DELETE /node/v1/blobs/{name}", n.handleDeleteBlob)
	mux.HandleFunc("GET /node/v1/blobs/{name}", n.handleReadBlob)
	mux.HandleFunc("PUT /node/v1/blobs/{name}", n.handleWriteBlob)
	mux.HandleFunc("GET /node/v1/blobs/{name}/stat", n.handleStatBlob)
	mux.HandleFunc("POST /node/v1/blobs/{name}/sync", n.handleSyncBlob)
	mux.HandleFunc("POST /node/v1/blobs/{name}/truncate", n.handleTruncateBlob)
	mux.HandleFunc("POST /node/v1/meta/lease", n.handleMetaLease)
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

// query reads what a request carries besides its body: names in the
// path, numbers in the query string. A handler reads all of its route's,
// then checks err once, before anything acts — a request that does not
// parse changes nothing, the fence included.
type query struct {
	r   *http.Request
	v   url.Values // parsed on first use: a strip read has no query string
	err error
}

func newQuery(r *http.Request) *query { return &query{r: r} }

func (q *query) get(key string) string {
	if q.v == nil {
		q.v = q.r.URL.Query()
	}
	return q.v.Get(key)
}

func (q *query) fail(err error) {
	if q.err == nil {
		q.err = err
	}
}

// name reads the path segment seg as the name of a device or blob to
// create: one path segment of portable characters.
func (q *query) name(seg string) string {
	name := q.r.PathValue(seg)
	if !validName(name) {
		q.fail(fmt.Errorf("%w: bad %s name %q", store.ErrBadGeometry, seg, name))
	}
	return name
}

// count reads a required offset, length or size: a number, not negative.
func (q *query) count(key string) int64 {
	s := q.get(key)
	v, err := strconv.ParseInt(s, 10, 64)
	switch {
	case err != nil:
		q.fail(fmt.Errorf("%w: bad %s %q", store.ErrBadGeometry, key, s))
	case v < 0:
		q.fail(fmt.Errorf("%w: %s %d", store.ErrNegativeOffset, key, v))
	}
	return v
}

// stamp reads an optional epoch or generation; ok reports whether the
// request carries one.
func (q *query) stamp(key string) (v uint64, ok bool) {
	s := q.get(key)
	if s == "" {
		return 0, false
	}
	v, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		q.fail(fmt.Errorf("%w: bad %s %q", store.ErrBadGeometry, key, s))
	}
	return v, true
}

// stamps are what a mutating request may carry in its query: the fencing
// epoch of the coordinator that sent it, and a blob generation.
type stamps struct {
	epoch, gen      uint64
	fenced, stamped bool
}

// stamps reads a mutating request's epoch and generation. A generation
// without an epoch is refused: every metadata write carries its writer's
// epoch (DESIGN.md §14).
func (q *query) stamps() stamps {
	var s stamps
	s.epoch, s.fenced = q.stamp("epoch")
	s.gen, s.stamped = q.stamp("gen")
	if s.stamped && !s.fenced {
		q.fail(fmt.Errorf("%w: generation %d without an epoch", store.ErrBadGeometry, s.gen))
	}
	return s
}

func (n *Node) handlePing(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, map[string]string{"node": n.id})
}

func (n *Node) handleStat(w http.ResponseWriter, r *http.Request) {
	n.metaMu.Lock()
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
	n.metaMu.Unlock()
	writeJSON(w, st)
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

func (n *Node) handleCreateDevice(w http.ResponseWriter, r *http.Request) {
	q := newQuery(r)
	name, s := q.name("dev"), q.stamps()
	var g DeviceStat
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<16)).Decode(&g); err != nil {
		q.fail(fmt.Errorf("%w: %v", store.ErrBadGeometry, err))
	} else if err := checkDevice(name, g); err != nil {
		q.fail(err)
	}
	n.change(w, q, s, func() error {
		// A device that exists with the requested geometry is answered as
		// created: a coordinator retrying a create whose ack was lost must
		// not error out.
		if cur, ok := n.geo[name]; ok && cur != g {
			row := Catalogue.Encode(store.ErrBadGeometry)
			row.Status = http.StatusConflict
			row.Write(w, fmt.Errorf("netdev: device %s exists with %dx%d, requested %dx%d",
				name, cur.Strips, cur.StripBytes, g.Strips, g.StripBytes))
			return nil
		} else if !ok {
			dev, err := n.newDev(name, g.Strips, g.StripBytes)
			if err != nil {
				return err
			}
			n.devs[name], n.geo[name] = dev, g
			if err := n.saveState(); err != nil {
				return err
			}
		}
		writeJSON(w, g)
		return nil
	})
}

// change serves a request that creates or deletes a device or blob: once
// the whole request has parsed, act runs with both locks held, behind the
// fence (a newer epoch is adopted first). change answers a failure; act
// answers its success itself.
func (n *Node) change(w http.ResponseWriter, q *query, s stamps, act func() error) {
	err := q.err
	if err == nil {
		n.lockAll()
		if err = n.adopt(s); err == nil {
			err = act()
		}
		n.unlockAll()
	}
	if err != nil {
		fail(w, err)
	}
}

// sumsMaxStrips caps the strips of one checksum request. What a strip costs
// there is one read through the handler's single strip buffer and a dozen
// bytes of response, whatever its size, so the bound is a count: far above
// any geometry's strips per cycle, small enough that one request cannot hold
// the handler for long.
const sumsMaxStrips = 1 << 16

// readCapped reads the body of a blob write into one buffer sized from its
// Content-Length. A body over max is the
// sender's bug, not the wire's, and is refused as such — on its declared
// length before anything is allocated, or, when the length is undeclared,
// once it has run past the bound.
func readCapped(r *http.Request, max int) ([]byte, error) {
	if r.ContentLength <= int64(max) {
		body, err := readSized(r.Body, r.ContentLength, max)
		if err != nil || len(body) <= max {
			return body, err
		}
	}
	return nil, fmt.Errorf("%w: request body exceeds the %d-byte cap", store.ErrBadGeometry, max)
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

// readStrips answers a read message: every item answered in place with the
// strip in a frame of its own, or with the catalogue code a single read would
// have failed with — one missing device or bad index fails that item alone.
// A message whose answer would exceed the cap is refused item by item.
func (n *Node) readStrips(items []batchItem) []byte {
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
		err := fmt.Errorf("%w: an answer of %d bytes exceeds the %d-byte message cap", store.ErrBadGeometry, size, batchMaxBytes)
		for i := range items {
			items[i].verdict(err)
		}
		return encodeBatch(kindReadResp, fence{}, items, nil)
	}
	// Lay the answer out as if every read will succeed and read each strip
	// into its frame; only when one fails is the message built again around
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

// writeStrips answers a write message, whose every frame's checksum has
// verified before the first strip touches media, so a torn message places
// nothing. A write fenced below the node's promise is refused item by item.
// The items are written in order; one that fails does not stop the ones
// after it — the commit of a parity closure is best-effort across the whole
// closure (store.Array) — and carries its own code back.
func (n *Node) writeStrips(f fence, items []batchItem) []byte {
	refused := n.admit(stamps{epoch: f.epoch, fenced: f.on})
	for i := range items {
		it := &items[i]
		err := refused
		if err == nil {
			var dev store.Device
			dev, err = n.batchDevice(it.Dev)
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
	q := newQuery(r)
	name, s := r.PathValue("dev"), q.stamps()
	n.change(w, q, s, func() error {
		if dev, ok := n.devs[name]; ok {
			if err := dev.Close(); err != nil {
				return err
			}
			delete(n.devs, name)
			delete(n.geo, name)
			if n.dir != "" {
				os.Remove(n.path(name, ".img"))
			}
			if err := n.saveState(); err != nil {
				return err
			}
		}
		w.WriteHeader(http.StatusNoContent)
		return nil
	})
}

// handleDeleteBlob removes a blob (the migrated disk's stale superblock
// copy). Fenced and idempotent like device deletion.
func (n *Node) handleDeleteBlob(w http.ResponseWriter, r *http.Request) {
	q := newQuery(r)
	name, s := r.PathValue("name"), q.stamps()
	n.change(w, q, s, func() error {
		if b, ok := n.blobs[name]; ok {
			if err := b.Close(); err != nil {
				return err
			}
			delete(n.blobs, name)
			if n.dir != "" {
				os.Remove(n.path(name, ".blob"))
			}
			if err := n.saveState(); err != nil {
				return err
			}
		}
		w.WriteHeader(http.StatusNoContent)
		return nil
	})
}

// handleCreateBlob makes an empty blob at generation 0, idempotently.
func (n *Node) handleCreateBlob(w http.ResponseWriter, r *http.Request) {
	q := newQuery(r)
	name, s := q.name("name"), q.stamps()
	n.change(w, q, s, func() error {
		if _, ok := n.blobs[name]; !ok {
			b, err := n.newBlob(name)
			if err != nil {
				return err
			}
			n.blobs[name] = &nodeBlob{Blob: b}
			if err := n.saveState(); err != nil {
				return err
			}
		}
		w.WriteHeader(http.StatusNoContent)
		return nil
	})
}

// blobFor applies the fence and the generation rule to a mutating request
// on blob name, with n.metaMu held, and returns the blob to act on. The
// rule is the same for every blob:
//
//   - a request stamped below the blob's generation is refused
//     (ErrStaleGen): a newer coordinator has truncated the blob into a new
//     stream;
//   - one stamped above it wipes the blob, then adopts the generation:
//     the node missed the truncation that opened it, and nothing of the
//     destroyed stream may survive into the new one;
//   - a stamped write or truncate (create) makes a missing blob; anything
//     else on a missing blob is a 404.
//
// So a blob replica at generation G holds only zeros and bytes of the
// generation-G stream, which is what makes frame-level merge recovery
// sound.
func (n *Node) blobFor(name string, s stamps, create bool) (store.Blob, error) {
	if err := n.adopt(s); err != nil {
		return nil, err
	}
	b, ok := n.blobs[name]
	switch {
	case !ok && !(create && s.stamped):
		return nil, fmt.Errorf("%w: blob %s", ErrNodeNotFound, name)
	case ok && (!s.stamped || s.gen == b.gen):
		return b, nil
	case ok && s.gen < b.gen:
		return nil, fmt.Errorf("%w: blob %s gen %d, node at %d", ErrStaleGen, name, s.gen, b.gen)
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
	b.gen = s.gen
	return b, n.saveState()
}

// blobOp runs op on blob name for a mutating request, in one step with
// the request's fence check and generation rule (blobFor): n.metaMu is
// held from the check to the end of op.
func (n *Node) blobOp(name string, s stamps, create bool, op func(store.Blob) error) error {
	n.metaMu.Lock()
	defer n.metaMu.Unlock()
	b, err := n.blobFor(name, s, create)
	if err != nil {
		return err
	}
	return op(b)
}

// handleReadBlob answers a ?off=&len= read with os.File ReadAt semantics:
// the available prefix, checksummed, plus the EOF marker when the read ran
// off the end, and the blob's generation.
func (n *Node) handleReadBlob(w http.ResponseWriter, r *http.Request) {
	q := newQuery(r)
	off, length := q.count("off"), q.count("len")
	if length > blobMaxBytes {
		q.fail(fmt.Errorf("%w: a read of %d bytes exceeds the %d-byte cap", store.ErrBadGeometry, length, blobMaxBytes))
	}
	if q.err != nil {
		fail(w, q.err)
		return
	}
	name, buf := r.PathValue("name"), make([]byte, length)
	n.metaMu.Lock()
	b, ok := n.blobs[name]
	if !ok {
		n.metaMu.Unlock()
		fail(w, fmt.Errorf("%w: blob %s", ErrNodeNotFound, name))
		return
	}
	gen := b.gen
	nr, rerr := b.ReadAt(buf, off)
	n.metaMu.Unlock()
	if rerr != nil && rerr != io.EOF {
		fail(w, rerr)
		return
	}
	buf = buf[:nr]
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set(crcHeader, blobCRC(buf))
	w.Header().Set(genHeader, strconv.FormatUint(gen, 10))
	if rerr == io.EOF {
		w.Header().Set(eofHeader, "1")
	}
	w.Header().Set("Content-Length", strconv.Itoa(len(buf)))
	w.Write(buf)
}

func (n *Node) handleWriteBlob(w http.ResponseWriter, r *http.Request) {
	q := newQuery(r)
	name, s, off := q.name("name"), q.stamps(), q.count("off")
	if q.err != nil {
		fail(w, q.err)
		return
	}
	body, err := readCapped(r, blobMaxBytes)
	if err != nil {
		fail(w, err)
		return
	}
	// Blob bytes get the same no-damaged-bytes-on-media guarantee as
	// strip frames: the declared checksum must match what arrived.
	if want := r.Header.Get(crcHeader); want != "" && want != blobCRC(body) {
		fail(w, fmt.Errorf("%w: blob body crc %s, header says %s", ErrBadFrame, blobCRC(body), want))
		return
	}
	var nw int
	err = n.blobOp(name, s, true, func(b store.Blob) (err error) {
		nw, err = b.WriteAt(body, off)
		return err
	})
	if err != nil {
		fail(w, err)
		return
	}
	writeJSON(w, map[string]int{"written": nw})
}

func (n *Node) handleStatBlob(w http.ResponseWriter, r *http.Request) {
	n.metaMu.Lock()
	b, ok := n.blobs[r.PathValue("name")]
	var st BlobStat
	if ok {
		st = b.stat()
	}
	n.metaMu.Unlock()
	if !ok {
		fail(w, fmt.Errorf("%w: blob %s", ErrNodeNotFound, r.PathValue("name")))
		return
	}
	writeJSON(w, st)
}

func (n *Node) handleSyncBlob(w http.ResponseWriter, r *http.Request) {
	q := newQuery(r)
	s := q.stamps()
	if q.err != nil {
		fail(w, q.err)
		return
	}
	if err := n.blobOp(r.PathValue("name"), s, false, store.Blob.Sync); err != nil {
		fail(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleTruncateBlob resizes a blob and syncs it before it answers: a
// truncation opens a generation, and the blob's new size must not be lost
// with the node's page cache.
func (n *Node) handleTruncateBlob(w http.ResponseWriter, r *http.Request) {
	q := newQuery(r)
	name, s, size := q.name("name"), q.stamps(), q.count("size")
	if q.err != nil {
		fail(w, q.err)
		return
	}
	err := n.blobOp(name, s, true, func(b store.Blob) error {
		if err := b.Truncate(size); err != nil {
			return err
		}
		return b.Sync()
	})
	if err != nil {
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
