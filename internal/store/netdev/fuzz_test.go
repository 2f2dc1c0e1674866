package netdev

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"github.com/oiraid/oiraid/internal/store"
)

// FuzzFrameDecode drives the strip-transport codec with arbitrary
// bytes: whatever arrives — truncated, oversized, bit-flipped, or
// hostile — the decoder must either reject it or return a frame that
// re-encodes to the identical wire bytes (no mutation survives decode
// silently). This is the same media-facing-decoder discipline as
// FuzzSuperblockDecode and FuzzJournalReplay, pointed at the network.
func FuzzFrameDecode(f *testing.F) {
	f.Add(EncodeFrame(OpRead, 0, nil), 4096)
	f.Add(EncodeFrame(OpWrite, 7, []byte("some strip payload")), 4096)
	f.Add(EncodeFrame(OpRead, 1<<40, make([]byte, 512)), 512)
	f.Add([]byte{}, 0)
	f.Add([]byte("oSTP"), 16)
	f.Add(bytes.Repeat([]byte{0xFF}, FrameHeaderLen), 64)
	// Truncated and padded variants of a valid frame.
	good := EncodeFrame(OpWrite, 3, bytes.Repeat([]byte{0xAB}, 128))
	f.Add(good[:FrameHeaderLen], 128)
	f.Add(good[:len(good)-1], 128)
	f.Add(append(append([]byte(nil), good...), 0x00), 128)

	f.Fuzz(func(t *testing.T, data []byte, maxPayload int) {
		if maxPayload < -1 || maxPayload > 1<<20 {
			maxPayload = 1 << 20
		}
		fr, err := DecodeFrame(data, maxPayload)
		if err != nil {
			return
		}
		// Accepted: the frame must re-encode to exactly the input bytes.
		out := EncodeFrame(fr.Op, fr.Strip, fr.Payload)
		// The op byte and reserved fields round-trip by construction, so
		// any divergence means the decoder accepted a malformed frame.
		if !bytes.Equal(out, data) {
			t.Fatalf("accepted frame does not round-trip: in %d bytes, out %d bytes", len(data), len(out))
		}
		if maxPayload >= 0 && len(fr.Payload) > maxPayload {
			t.Fatalf("decoder accepted %d payload bytes past bound %d", len(fr.Payload), maxPayload)
		}
	})
}

// FuzzBatchDecode is FuzzFrameDecode for the batch codec: a message the
// decoder accepts re-encodes to exactly the bytes that came in, under every
// kind, and no accepted frame exceeds the payload bound.
func FuzzBatchDecode(f *testing.F) {
	items := []batchItem{
		{Dev: "disk00", Strip: 7, Payload: []byte("some strip payload")},
		{Dev: "disk03", Strip: 1 << 40, Code: "not-found", Msg: "netdev: no such device or blob on node"},
		{Dev: "d", Strip: 0, Payload: []byte{}},
	}
	good := encodeBatch(kindReadResp, fence{}, items, nil)
	f.Add(good, byte(kindReadResp), 64)
	f.Add(encodeBatch(kindWriteReq, fence{epoch: 9, on: true}, items, nil), byte(kindWriteReq), 64)
	f.Add(encodeBatch(kindReadReq, fence{}, []batchItem{{Dev: "disk00", Strip: 3}, {Dev: "disk01", Strip: 4}}, nil), byte(kindReadReq), 0)
	f.Add(encodeBatch(kindWriteResp, fence{}, nil, nil), byte(kindWriteResp), 0)
	f.Add([]byte{}, byte(kindReadReq), 0)
	f.Add([]byte("oSTB"), byte(kindReadReq), 16)
	f.Add(good[:len(good)-1], byte(kindReadResp), 64)
	f.Add(good[:batchHeaderLen], byte(kindReadResp), 64)
	f.Add(append(bytes.Clone(good), 0x00), byte(kindReadResp), 64)
	huge := bytes.Clone(good)
	huge[20], huge[21] = 0xFF, 0xFF // an item count no message could hold
	f.Add(huge, byte(kindReadResp), 64)

	f.Fuzz(func(t *testing.T, data []byte, kind byte, maxPayload int) {
		if maxPayload < -1 || maxPayload > 1<<20 {
			maxPayload = 1 << 20
		}
		got, fc, err := decodeBatch(data, kind, maxPayload)
		if err != nil {
			return
		}
		for i, it := range got {
			if maxPayload >= 0 && len(it.Payload) > maxPayload {
				t.Fatalf("item %d: decoder accepted %d payload bytes past bound %d", i, len(it.Payload), maxPayload)
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
