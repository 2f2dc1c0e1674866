package netdev

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// op sends it as a message of kind of its own on the stream and returns the
// answered item.
func (s *rawStream) op(kind byte, f fence, it batchItem) batchItem {
	s.t.Helper()
	body, err := s.exchange(encodeBatch(kind, f, []batchItem{it}, nil))
	if err != nil {
		s.t.Fatalf("kind %d %s: the node ended the stream: %v", kind, it.Name, err)
	}
	got, _, err := decodeBatch(body, kind+1)
	if err != nil || len(got) != 1 {
		s.t.Fatalf("kind %d %s: answer %+v, %v", kind, it.Name, got, err)
	}
	return got[0]
}

// TestNodeRejectsMalformedRequests sends a memory node and a directory node,
// on a raw stream, device, blob and lease ops whose names, numbers or
// geometries the node must refuse. Each op must be refused alone with its
// code — bad-geometry, or negative-offset for a negative offset or size — and
// none may create a device or a blob, stamp a generation, or move the fence
// or the renewal counter, though most carry an epoch above it: an op is
// checked in full before it acts. A ping, an inventory read or a lease that
// carries a payload does not decode, and ends its stream (bad-frame).
func TestNodeRejectsMalformedRequests(t *testing.T) {
	newDir := func() *Node {
		n, err := NewDirNode("alpha", t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	for kind, n := range map[string]*Node{"mem": NewMemNode("alpha"), "dir": newDir()} {
		t.Run(kind, func(t *testing.T) {
			defer n.Close()
			srv := httptest.NewServer(n.Handler())
			defer srv.Close()
			rejectsMalformedRequests(t, n, srv.URL)
		})
	}
}

type rawOp struct {
	kind byte
	f    fence
	it   batchItem
}

func rejectsMalformedRequests(t *testing.T, n *Node, base string) {
	s := openRawStream(t, base)
	two, five := fence{epoch: 2, on: true}, fence{epoch: 5, on: true}
	for _, op := range []rawOp{
		{kindLease, fence{}, batchItem{Name: "coord-a", Strip: 2}},
		{kindDevCreate, two, batchItem{Name: "d0", Strip: 4, Size: 512}},
		{kindBlobCreate, two, batchItem{Name: "b0"}},
		{kindBlobWrite, two, batchItem{Name: "m0", Gen: 1, Payload: []byte("x")}},
	} {
		if got := s.op(op.kind, op.f, op.it); got.Code != "" {
			t.Fatalf("kind %d %s: %s %s", op.kind, op.it.Name, got.Code, got.Msg)
		}
	}
	stat0 := n.stat()

	x := []byte("x")
	for code, ops := range map[string][]rawOp{
		"bad-geometry": {
			// Names, where an op may create.
			{kindDevCreate, five, batchItem{Name: "bad*name", Strip: 4, Size: 512}},
			{kindBlobCreate, five, batchItem{Name: "bad*name"}},
			{kindBlobWrite, five, batchItem{Name: "bad*name", Gen: 3, Payload: x}},
			{kindBlobTruncate, five, batchItem{Name: "bad*name", Gen: 3}},
			{kindBlobCreate, five, batchItem{Name: ".hidden"}},
			// A generation without the epoch every metadata write carries.
			{kindBlobWrite, fence{}, batchItem{Name: "m0", Gen: 4, Payload: x}},
			{kindBlobWrite, fence{}, batchItem{Name: "m9", Gen: 4, Payload: x}},
			{kindBlobSync, fence{}, batchItem{Name: "m0", Gen: 4}},
			{kindBlobTruncate, fence{}, batchItem{Name: "m0", Gen: 4}},
			// Geometries the store or the wire cannot hold: 2⁶¹+1 strips of
			// 8 bytes overflow, and a 4 MiB strip does not fit a batch alone.
			{kindDevCreate, five, batchItem{Name: "d1", Strip: 1<<61 + 1, Size: 8}},
			{kindDevCreate, five, batchItem{Name: "d1", Strip: 4, Size: 4 << 20}},
			{kindDevCreate, five, batchItem{Name: "d1", Strip: 0, Size: 512}},
			{kindDevCreate, five, batchItem{Name: "d1", Strip: -4, Size: 512}},
			// A device of another geometry than the one that exists, at
			// the node's epoch: a conflict, not a malformed op, so it is
			// refused behind the fence.
			{kindDevCreate, two, batchItem{Name: "d0", Strip: 8, Size: 512}},
			// Reads past their caps.
			{kindBlobRead, fence{}, batchItem{Name: "b0", Size: batchMaxBytes}},
			{kindDevSums, fence{}, batchItem{Name: "d0", Size: sumsMaxStrips + 1}},
			// Leases without a holder or an epoch, acquired above the
			// promise or renewed at it, and a renewal flag that is
			// neither 0 nor 1.
			{kindLease, fence{}, batchItem{Name: "", Strip: 9}},
			{kindLease, fence{}, batchItem{Name: "", Strip: 2, Size: 1}},
			{kindLease, fence{}, batchItem{Name: "coord-b", Strip: 0}},
			{kindLease, fence{}, batchItem{Name: "coord-b", Strip: 0, Size: 1}},
			{kindLease, fence{}, batchItem{Name: "coord-a", Strip: 2, Size: 2}},
		},
		"negative-offset": {
			{kindBlobWrite, five, batchItem{Name: "m0", Strip: -1, Gen: 3, Payload: x}},
			{kindBlobWrite, five, batchItem{Name: "m9", Strip: -1, Gen: 3, Payload: x}},
			{kindBlobWrite, fence{}, batchItem{Name: "b0", Strip: -1, Payload: x}},
			{kindBlobRead, fence{}, batchItem{Name: "b0", Strip: -1, Size: 1}},
			{kindBlobRead, fence{}, batchItem{Name: "b0", Size: -1}},
			{kindBlobTruncate, fence{}, batchItem{Name: "b0", Size: -1}},
			{kindBlobTruncate, five, batchItem{Name: "m0", Size: -1, Gen: 3}},
		},
	} {
		for _, op := range ops {
			if got := s.op(op.kind, op.f, op.it); got.Code != code {
				t.Errorf("kind %d %+v: %q (%s), want %s", op.kind, op.it, got.Code, got.Msg, code)
			}
		}
	}
	// A ping or an inventory read of two items is refused item by item.
	for _, kind := range []byte{kindPing, kindStat} {
		body, err := s.exchange(encodeBatch(kind, fence{}, []batchItem{{}, {}}, nil))
		if err != nil {
			t.Fatalf("kind %d of two items: the node ended the stream: %v", kind, err)
		}
		got, _, err := decodeBatch(body, kind+1)
		if err != nil || len(got) != 2 || got[0].Code != "bad-geometry" || got[1].Code != "bad-geometry" || got[0].Payload != nil {
			t.Errorf("kind %d of two items: %+v, %v; want both bad-geometry, no payload", kind, got, err)
		}
	}
	for _, op := range []rawOp{
		{kindPing, fence{}, batchItem{Payload: x}},
		{kindStat, fence{}, batchItem{Payload: x}},
		{kindLease, fence{}, batchItem{Name: "coord-b", Strip: 9, Payload: x}},
	} {
		msg := encodeBatch(op.kind, op.f, []batchItem{op.it}, nil)
		if _, _, err := decodeBatch(msg, op.kind); !errors.Is(err, ErrBadFrame) || Catalogue.Encode(err).Code != "bad-frame" {
			t.Errorf("kind %d with a payload decoded: %v, want ErrBadFrame", op.kind, err)
		}
		if answer, err := openRawStream(t, base).exchange(msg); err == nil {
			t.Errorf("kind %d with a payload: answered %d bytes, want the stream ended", op.kind, len(answer))
		}
	}

	if st := n.stat(); !reflect.DeepEqual(st, stat0) {
		t.Fatalf("malformed requests changed the node:\n%+v\n-> %+v", stat0, st)
	}
}

// serve runs items as one message of kind through the node, as its stream
// would, and returns the answered items.
func serve(t *testing.T, n *Node, kind byte, items ...batchItem) []batchItem {
	t.Helper()
	got, _, err := decodeBatch(n.answer(encodeBatch(kind, fence{}, items, nil)), kind+1)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// TestNodeDeviceDeleteAndRecreate runs checksum ops against deletes of the
// device they read (under -race: the op reads the device's size after
// releasing the node's lock), then checks that a device created again with
// the same geometry serves zeros, not the deleted device's bytes.
func TestNodeDeviceDeleteAndRecreate(t *testing.T) {
	n := NewMemNode("alpha")
	const stripBytes = 512
	d0 := batchItem{Name: "d0", Strip: 4, Size: stripBytes}
	create := func() {
		t.Helper()
		if got := serve(t, n, kindDevCreate, d0); got[0].Code != "" {
			t.Fatalf("create: %s %s", got[0].Code, got[0].Msg)
		}
	}
	create()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			serve(t, n, kindDevSums, batchItem{Name: "d0", Size: 4})
		}
	}()
	for i := 0; i < 50; i++ {
		serve(t, n, kindDevDelete, batchItem{Name: "d0"})
		create()
	}
	<-done

	if err := n.devs["d0"].WriteStrip(1, bytes.Repeat([]byte{0xff}, stripBytes)); err != nil {
		t.Fatal(err)
	}
	if got := serve(t, n, kindDevDelete, batchItem{Name: "d0"}); got[0].Code != "" {
		t.Fatalf("delete: %s %s", got[0].Code, got[0].Msg)
	}
	create()
	answer := serve(t, n, kindReadReq, batchItem{Name: "d0", Strip: 1})
	if answer[0].Code != "" {
		t.Fatalf("read strip: %+v", answer)
	}
	if !bytes.Equal(answer[0].Payload, make([]byte, stripBytes)) {
		t.Fatal("a recreated device serves the deleted device's bytes")
	}
}

// TestNodeServesTwoRoutes: a node's HTTP surface is its inventory and the
// stream's Upgrade. GET /node/v1/stat answers the JSON the stat message
// carries, with the fields it has always had; the ping and lease routes,
// and the device and blob routes before them, are gone.
func TestNodeServesTwoRoutes(t *testing.T) {
	_, srv := startNode(t, "alpha")
	c := NewNodeClient(srv.URL, fastOpts())
	defer c.Close()
	if _, err := c.CreateDevice("d0", 4, 512); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateBlob("b0"); err != nil {
		t.Fatal(err)
	}
	if err := c.AcquireLease(3, "coord-a"); err != nil {
		t.Fatal(err)
	}
	msg, err := c.Stat()
	if err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(srv.URL + "/node/v1/stat")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /node/v1/stat: %d, %v", resp.StatusCode, err)
	}
	var fields map[string]json.RawMessage
	var st NodeStat
	if err := json.Unmarshal(body, &fields); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range fields {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if want := []string{"blobs", "devices", "epoch", "holder", "node", "renew_seq"}; !reflect.DeepEqual(keys, want) {
		t.Errorf("GET /node/v1/stat fields %v, want %v", keys, want)
	}
	if !reflect.DeepEqual(st, msg) {
		t.Errorf("GET /node/v1/stat %+v, the stat message %+v", st, msg)
	}

	for _, rq := range []struct{ method, path string }{
		{"GET", "/node/v1/ping"},
		{"POST", "/node/v1/meta/lease"},
		{"GET", "/node/v1/devices/d0/strips/0"},
		{"GET", "/node/v1/blobs/b0"},
	} {
		req, _ := http.NewRequest(rq.method, srv.URL+rq.path, strings.NewReader(`{"epoch":9,"holder":"coord-b"}`))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound && resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("%s %s: %d, want 404 or 405", rq.method, rq.path, resp.StatusCode)
		}
	}
	if after, err := c.Stat(); err != nil || after.Epoch != 3 || after.Holder != "coord-a" {
		t.Errorf("after the old lease route: %+v, %v; want epoch 3 held by coord-a", after, err)
	}
}
