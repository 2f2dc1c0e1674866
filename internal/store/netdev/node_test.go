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
	"github.com/oiraid/oiraid/internal/store"
)

// TestNodeRejectsMalformedRequests sends the node raw requests whose
// names, numbers or bodies do not parse. Each must answer 400 with the
// bad-geometry code, and none may create a device, a blob, a metadata
// blob or move the fence.
func TestNodeRejectsMalformedRequests(t *testing.T) {
	n := NewMemNode("alpha")
	h := n.Handler()
	do := func(method, target, body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, target, strings.NewReader(body)))
		return rec
	}
	dev, err := store.NewMemDevice(4, 512)
	if err != nil {
		t.Fatal(err)
	}
	n.AddDevice("d0", dev)
	if rec := do("POST", "/node/v1/blobs/b0", ""); rec.Code != http.StatusNoContent {
		t.Fatalf("create blob: %d %s", rec.Code, rec.Body)
	}
	state := func() (NodeStat, MetaState) {
		var st NodeStat
		if err := json.NewDecoder(do("GET", "/node/v1/stat", "").Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		var ms MetaState
		if err := json.NewDecoder(do("GET", "/node/v1/meta/state", "").Body).Decode(&ms); err != nil {
			t.Fatal(err)
		}
		return st, ms
	}
	stat0, meta0 := state()

	for _, req := range []struct{ method, target, body string }{
		// Names.
		{"POST", "/node/v1/devices/bad*name", `{"strips":4,"strip_bytes":512}`},
		{"POST", "/node/v1/blobs/bad*name", ""},
		{"PUT", "/node/v1/meta/blobs/bad*name?epoch=1&gen=1&off=0", "x"},
		{"POST", "/node/v1/meta/blobs/bad*name/truncate?epoch=1&gen=1&size=0", ""},
		// Numbers.
		{"GET", "/node/v1/devices/d0/strips/x", ""},
		{"PUT", "/node/v1/devices/d0/strips/x", ""},
		{"PUT", "/node/v1/devices/d0/strips/0?epoch=x", ""},
		{"POST", "/node/v1/devices/d1?epoch=-1", `{"strips":4,"strip_bytes":512}`},
		{"GET", "/node/v1/blobs/b0?off=x&len=1", ""},
		{"GET", "/node/v1/blobs/b0?off=0&len=x", ""},
		{"PUT", "/node/v1/blobs/b0?off=x", "x"},
		{"POST", "/node/v1/blobs/b0/truncate?size=x", ""},
		{"PUT", "/node/v1/meta/blobs/m0?epoch=x&gen=1&off=0", "x"},
		{"PUT", "/node/v1/meta/blobs/m0?epoch=1&gen=x&off=0", "x"},
		{"PUT", "/node/v1/meta/blobs/m0?epoch=1&gen=1&off=x", "x"},
		{"POST", "/node/v1/meta/blobs/m0/sync?epoch=1&gen=x", ""},
		{"POST", "/node/v1/meta/blobs/m0/truncate?epoch=1&gen=1&size=x", ""},
		// Queries and bodies.
		{"GET", "/node/v1/devices/d0/sums?start=x&count=1", ""},
		{"GET", "/node/v1/devices/d0/sums?start=0", ""},
		{"POST", "/node/v1/devices/d1", "{"},
		{"POST", "/node/v1/meta/lease", "not json"},
	} {
		rec := do(req.method, req.target, req.body)
		if rec.Code != http.StatusBadRequest || rec.Header().Get(retry.Header) != "bad-geometry" {
			t.Errorf("%s %s: %d %q (%s), want 400 bad-geometry",
				req.method, req.target, rec.Code, rec.Header().Get(retry.Header), strings.TrimSpace(rec.Body.String()))
		}
	}

	if stat, meta := state(); !reflect.DeepEqual(stat, stat0) || !reflect.DeepEqual(meta, meta0) {
		t.Fatalf("malformed requests changed the node:\nstat %+v -> %+v\nmeta %+v -> %+v", stat0, stat, meta0, meta)
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
	rec := do("GET", "/node/v1/devices/d0/strips/1", "")
	fr, err := DecodeFrame(rec.Body.Bytes(), stripBytes)
	if err != nil {
		t.Fatalf("read strip: %d %v", rec.Code, err)
	}
	if !bytes.Equal(fr.Payload, make([]byte, stripBytes)) {
		t.Fatal("a recreated device serves the deleted device's bytes")
	}
}
