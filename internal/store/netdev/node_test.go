package netdev

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"github.com/oiraid/oiraid/internal/retry"
)

// op sends it as a message of kind of its own on the stream and returns the
// answered item.
func (s *rawStream) op(kind byte, f fence, it batchItem) batchItem {
	s.t.Helper()
	body, err := s.exchange(encodeBatch(kind, f, []batchItem{it}, nil))
	if err != nil {
		s.t.Fatalf("kind %d %s: the node ended the stream: %v", kind, it.Name, err)
	}
	got, _, err := decodeBatch(body, kind+1, -1)
	if err != nil || len(got) != 1 {
		s.t.Fatalf("kind %d %s: answer %+v, %v", kind, it.Name, got, err)
	}
	return got[0]
}

// TestNodeRejectsMalformedRequests sends a memory node and a directory node,
// on a raw stream, device and blob ops whose names, numbers, frames or
// geometries the node must refuse, and the lease route a body that does not
// parse. Each op must be refused alone with its code — bad-geometry,
// negative-offset for a negative offset or size, short-buffer for a blob
// write without its frame — and none may create a device or a blob, stamp a
// generation, or move the fence, though most carry an epoch above it: an op
// is checked in full before it acts.
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
			rejectsMalformedRequests(t, n, openRawStream(t, srv.URL))
		})
	}
}

type rawOp struct {
	kind byte
	f    fence
	it   batchItem
}

func rejectsMalformedRequests(t *testing.T, n *Node, s *rawStream) {
	two, five := fence{epoch: 2, on: true}, fence{epoch: 5, on: true}
	for _, op := range []rawOp{
		{kindDevCreate, two, batchItem{Name: "d0", Strip: 4, Size: 512}},
		{kindBlobCreate, two, batchItem{Name: "b0"}},
		{kindBlobWrite, two, batchItem{Name: "m0", Gen: 1, Payload: []byte("x")}},
	} {
		if got := s.op(op.kind, op.f, op.it); got.Code != "" {
			t.Fatalf("kind %d %s: %s %s", op.kind, op.it.Name, got.Code, got.Msg)
		}
	}
	h := n.Handler()
	stat := func() NodeStat {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/node/v1/stat", nil))
		var st NodeStat
		if err := json.NewDecoder(rec.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return st
	}
	stat0 := stat()

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
		"short-buffer": {
			{kindBlobWrite, five, batchItem{Name: "m0", Gen: 3}},
		},
	} {
		for _, op := range ops {
			if got := s.op(op.kind, op.f, op.it); got.Code != code {
				t.Errorf("kind %d %+v: %q (%s), want %s", op.kind, op.it, got.Code, got.Msg, code)
			}
		}
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/node/v1/meta/lease", strings.NewReader("not json")))
	if rec.Code != http.StatusBadRequest || rec.Header().Get(retry.Header) != "bad-geometry" {
		t.Errorf("a lease that does not parse: %d %q, want 400 bad-geometry", rec.Code, rec.Header().Get(retry.Header))
	}

	if st := stat(); !reflect.DeepEqual(st, stat0) {
		t.Fatalf("malformed requests changed the node:\n%+v\n-> %+v", stat0, st)
	}
}

// serve runs items as one message of kind through the node, as its stream
// would, and returns the answered items.
func serve(t *testing.T, n *Node, kind byte, items ...batchItem) []batchItem {
	t.Helper()
	got, _, err := decodeBatch(n.answer(encodeBatch(kind, fence{}, items, nil)), kind+1, -1)
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
