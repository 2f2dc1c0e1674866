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

// TestNodeRejectsMalformedRequests sends a memory node and a directory
// node raw requests whose names, numbers, bodies or geometries the node
// must refuse. Each must answer 400 with its code — bad-geometry, or
// negative-offset for a negative offset or size on either kind of node —
// and none may create a device or a blob, stamp a generation, or move the
// fence, though many carry an epoch above it: a request is checked in full
// before it acts.
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
			rejectsMalformedRequests(t, n)
		})
	}
}

func rejectsMalformedRequests(t *testing.T, n *Node) {
	h := n.Handler()
	do := func(method, target, body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, target, strings.NewReader(body)))
		return rec
	}
	for _, req := range []struct{ method, target, body string }{
		{"POST", "/node/v1/devices/d0?epoch=2", `{"strips":4,"strip_bytes":512}`},
		{"POST", "/node/v1/blobs/b0?epoch=2", ""},
		{"PUT", "/node/v1/blobs/m0?epoch=2&gen=1&off=0", "x"},
	} {
		if rec := do(req.method, req.target, req.body); rec.Code/100 != 2 {
			t.Fatalf("%s %s: %d %s", req.method, req.target, rec.Code, rec.Body)
		}
	}
	stat := func() NodeStat {
		var st NodeStat
		if err := json.NewDecoder(do("GET", "/node/v1/stat", "").Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return st
	}
	stat0 := stat()

	for code, reqs := range map[string][]struct{ method, target, body string }{
		"bad-geometry": {
			// Names.
			{"POST", "/node/v1/devices/bad*name", `{"strips":4,"strip_bytes":512}`},
			{"POST", "/node/v1/blobs/bad*name?epoch=5", ""},
			{"PUT", "/node/v1/blobs/bad*name?epoch=5&gen=3&off=0", "x"},
			{"POST", "/node/v1/blobs/bad*name/truncate?epoch=5&gen=3&size=0", ""},
			// Numbers.
			{"POST", "/node/v1/devices/d1?epoch=-1", `{"strips":4,"strip_bytes":512}`},
			{"GET", "/node/v1/blobs/b0?off=x&len=1", ""},
			{"GET", "/node/v1/blobs/b0?off=0&len=x", ""},
			{"GET", "/node/v1/blobs/b0?off=0&len=67108865", ""},
			{"PUT", "/node/v1/blobs/b0?off=x", "x"},
			{"POST", "/node/v1/blobs/b0/truncate?size=x", ""},
			{"PUT", "/node/v1/blobs/m0?epoch=x&gen=4&off=0", "x"},
			{"PUT", "/node/v1/blobs/m0?epoch=5&gen=x&off=0", "x"},
			{"PUT", "/node/v1/blobs/m0?epoch=5&gen=4&off=x", "x"},
			{"POST", "/node/v1/blobs/m0/sync?epoch=5&gen=x", ""},
			{"POST", "/node/v1/blobs/m0/truncate?epoch=5&gen=4&size=x", ""},
			// A generation without the epoch every metadata write carries.
			{"PUT", "/node/v1/blobs/m0?gen=4&off=0", "x"},
			{"PUT", "/node/v1/blobs/m9?gen=4&off=0", "x"},
			{"POST", "/node/v1/blobs/m0/sync?gen=4", ""},
			{"POST", "/node/v1/blobs/m0/truncate?gen=4&size=0", ""},
			// Geometries the store or the wire cannot hold: 2⁶¹+1 strips of
			// 8 bytes overflow, and a 4 MiB strip does not fit a batch alone.
			{"POST", "/node/v1/devices/d1?epoch=5", `{"strips":2305843009213693953,"strip_bytes":8}`},
			{"POST", "/node/v1/devices/d1?epoch=5", `{"strips":4,"strip_bytes":4194304}`},
			{"POST", "/node/v1/devices/d1?epoch=5", `{"strips":0,"strip_bytes":512}`},
			// Queries and bodies.
			{"GET", "/node/v1/devices/d0/sums?start=x&count=1", ""},
			{"GET", "/node/v1/devices/d0/sums?start=0", ""},
			{"POST", "/node/v1/devices/d1?epoch=5", "{"},
			{"POST", "/node/v1/meta/lease", "not json"},
		},
		"negative-offset": {
			{"PUT", "/node/v1/blobs/m0?epoch=5&gen=3&off=-1", "x"},
			{"PUT", "/node/v1/blobs/m9?epoch=5&gen=3&off=-1", "x"},
			{"PUT", "/node/v1/blobs/b0?off=-1", "x"},
			{"GET", "/node/v1/blobs/b0?off=-1&len=1", ""},
			{"GET", "/node/v1/blobs/b0?off=0&len=-1", ""},
			{"POST", "/node/v1/blobs/b0/truncate?size=-1", ""},
			{"POST", "/node/v1/blobs/m0/truncate?epoch=5&gen=3&size=-1", ""},
		},
	} {
		for _, req := range reqs {
			rec := do(req.method, req.target, req.body)
			if rec.Code != http.StatusBadRequest || rec.Header().Get(retry.Header) != code {
				t.Errorf("%s %s: %d %q (%s), want 400 %s",
					req.method, req.target, rec.Code, rec.Header().Get(retry.Header), strings.TrimSpace(rec.Body.String()), code)
			}
		}
	}

	if st := stat(); !reflect.DeepEqual(st, stat0) {
		t.Fatalf("malformed requests changed the node:\n%+v\n-> %+v", stat0, st)
	}
}

// TestNodeDeviceDeleteAndRecreate runs the checksum route against deletes of
// the device it reads (under -race: the route reads the device's size after
// releasing the node's lock), then checks that a device created again with
// the same geometry serves zeros, not the deleted device's bytes.
func TestNodeDeviceDeleteAndRecreate(t *testing.T) {
	n := NewMemNode("alpha")
	h := n.Handler()
	do := func(method, target, body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, target, strings.NewReader(body)))
		return rec
	}
	const stripBytes = 512
	create := func() {
		t.Helper()
		if rec := do("POST", "/node/v1/devices/d0", `{"strips":4,"strip_bytes":512}`); rec.Code != http.StatusOK {
			t.Fatalf("create: %d %s", rec.Code, rec.Body)
		}
	}
	create()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			do("GET", "/node/v1/devices/d0/sums?start=0&count=4", "")
		}
	}()
	for i := 0; i < 50; i++ {
		do("DELETE", "/node/v1/devices/d0", "")
		create()
	}
	<-done

	if err := n.devs["d0"].WriteStrip(1, bytes.Repeat([]byte{0xff}, stripBytes)); err != nil {
		t.Fatal(err)
	}
	if rec := do("DELETE", "/node/v1/devices/d0", ""); rec.Code != http.StatusNoContent {
		t.Fatalf("delete: %d %s", rec.Code, rec.Body)
	}
	create()
	answer, _, err := decodeBatch(n.readStrips([]batchItem{{Dev: "d0", Strip: 1}}), kindReadResp, stripBytes)
	if err != nil || answer[0].Code != "" {
		t.Fatalf("read strip: %+v %v", answer, err)
	}
	if !bytes.Equal(answer[0].Payload, make([]byte, stripBytes)) {
		t.Fatal("a recreated device serves the deleted device's bytes")
	}
}
