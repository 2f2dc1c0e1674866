package netdev

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"github.com/oiraid/oiraid/internal/store"
)

// FuzzBatchDecode drives the node wire's codec with arbitrary bytes: whatever
// arrives — truncated, oversized, bit-flipped, or hostile — the decoder must
// either reject it or return items that re-encode to exactly the bytes that
// came in, under every kind (no mutation survives decode silently). This is
// the same media-facing-decoder discipline as FuzzSuperblockDecode and
// FuzzJournalReplay, pointed at the network.
func FuzzBatchDecode(f *testing.F) {
	items := []batchItem{
		{Name: "disk00", Strip: 7, Payload: []byte("some strip payload")},
		{Name: "disk03", Strip: 1 << 40, Code: "not-found", Msg: "netdev: no such device or blob on node"},
		{Name: "d", Strip: 0, Payload: []byte{}},
	}
	good := encodeBatch(kindReadResp, fence{}, items, nil)
	f.Add(good, byte(kindReadResp))
	f.Add(encodeBatch(kindWriteReq, fence{epoch: 9, on: true}, items, nil), byte(kindWriteReq))
	f.Add(encodeBatch(kindReadReq, fence{}, []batchItem{{Name: "disk00", Strip: 3}, {Name: "disk01", Strip: 4}}, nil), byte(kindReadReq))
	f.Add(encodeBatch(kindWriteResp, fence{}, nil, nil), byte(kindWriteResp))
	f.Add([]byte{}, byte(kindReadReq))
	f.Add([]byte("oSTB"), byte(kindReadReq))
	f.Add(good[:len(good)-1], byte(kindReadResp))
	f.Add(good[:batchHeaderLen], byte(kindReadResp))
	f.Add(append(bytes.Clone(good), 0x00), byte(kindReadResp))
	huge := bytes.Clone(good)
	huge[20], huge[21] = 0xFF, 0xFF // an item count no message could hold
	f.Add(huge, byte(kindReadResp))
	// The device and blob kinds: numbers, generations at 0, 1 and 2⁶³, an
	// EOF mark, a verdict.
	blob := []batchItem{
		{Name: "manifest", Strip: 4096, Gen: 1, Payload: []byte("a journal record")},
		{Name: "sb00", Strip: 0, Size: 512, Gen: 1 << 63, EOF: true, Payload: []byte{}},
		{Name: "m9", Code: "stale-gen", Msg: "netdev: blob superseded by a newer generation"},
	}
	f.Add(encodeBatch(kindBlobWrite, fence{epoch: 3, on: true}, blob, nil), byte(kindBlobWrite))
	f.Add(encodeBatch(kindBlobRead+1, fence{}, blob, nil), byte(kindBlobRead+1))
	f.Add(encodeBatch(kindBlobStat+1, fence{}, []batchItem{{Name: "sb00", Size: 1 << 40, Gen: 2}}, nil), byte(kindBlobStat+1))
	f.Add(encodeBatch(kindDevCreate, fence{epoch: 1, on: true}, []batchItem{{Name: "disk00", Strip: 36, Size: 4096}}, nil), byte(kindDevCreate))
	f.Add(encodeBatch(kindDevSums+1, fence{}, []batchItem{{Name: "disk00", Strip: 0, Size: 2, Payload: make([]byte, 8)}}, nil), byte(kindDevSums+1))
	// An empty blob write, a read answer that carries a verdict, and a
	// payload on a kind that carries none.
	f.Add(encodeBatch(kindBlobWrite, fence{epoch: 3, on: true}, []batchItem{{Name: "m0", Strip: 64, Gen: 1}}, nil), byte(kindBlobWrite))
	f.Add(encodeBatch(kindReadResp, fence{}, []batchItem{{Name: "disk00", Strip: 1, Code: "io", Msg: "read strip 1: input/output error"}}, nil), byte(kindReadResp))
	f.Add(encodeBatch(kindBlobStat, fence{}, []batchItem{{Name: "m0", Payload: []byte("x")}}, nil), byte(kindBlobStat))

	f.Fuzz(func(t *testing.T, data []byte, kind byte) {
		got, fc, err := decodeBatch(data, kind)
		if err != nil {
			return
		}
		for i, it := range got {
			if it.Payload != nil && (len(it.Payload) == 0 || !hasPayload(kind)) {
				t.Fatalf("item %d: decoder accepted %d payload bytes on kind %d", i, len(it.Payload), kind)
			}
		}
		if out := encodeBatch(kind, fc, got, nil); !bytes.Equal(out, data) {
			t.Fatalf("accepted batch does not round-trip: in %d bytes, out %d bytes", len(data), len(out))
		}
	})
}

// FuzzNodeState drives a directory node's state file with arbitrary bytes:
// whatever node.json holds either loads or is refused with an error, never
// a panic, and a state that loads saves and reloads unchanged — a node
// never writes a state file it would refuse at its next start.
func FuzzNodeState(f *testing.F) {
	f.Add([]byte(`{"devices":{"disk00":{"strips":8,"strip_bytes":512}},"blobs":["sb00"]}`))
	f.Add([]byte(`{"devices":{},"blobs":["sb00","manifest","meta0"],"gens":{"manifest":4,"meta0":2},"epoch":7,"holder":"coord-a"}`))
	f.Add([]byte(`{"blobs":["a","a"]}`))
	f.Add([]byte(`{"blobs":["../a"]}`))
	f.Add([]byte(`{"devices":{"a/b":{"strips":1,"strip_bytes":1}}}`))
	f.Add([]byte(`{"gens":{"a":1}}`))
	f.Add([]byte(`{"epoch":-1}`))
	f.Add([]byte(`null`))
	f.Add([]byte{})

	// loaded is the node a state file loads into, its media left out.
	loaded := func(st nodeState) *Node {
		n := newNode("n0", "")
		for name, g := range st.Devices {
			n.geo[name] = g
		}
		for _, name := range st.Blobs {
			n.blobs[name] = &nodeBlob{Blob: store.NewMemBlob(), gen: st.Gens[name]}
		}
		n.epoch, n.holder = st.Epoch, st.Holder
		return n
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		st, err := decodeState(raw)
		if err != nil {
			return
		}
		saved := loaded(st).state()
		out, err := json.Marshal(saved)
		if err != nil {
			t.Fatalf("a loaded state does not save: %v", err)
		}
		again, err := decodeState(out)
		if err != nil {
			t.Fatalf("a saved state does not reload: %v\n%s", err, out)
		}
		if resaved := loaded(again).state(); !reflect.DeepEqual(resaved, saved) {
			t.Fatalf("state changed across a save and a reload:\n%+v\n%+v", saved, resaved)
		}
	})
}
