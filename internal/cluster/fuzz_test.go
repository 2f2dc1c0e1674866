package cluster

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzManifestDecode hammers ParseManifest with arbitrary bytes in place
// of the manifest record's payload in the metadata journal. The journal's
// frame CRC keeps torn payloads out, so what reaches the decoder is a
// payload some coordinator committed — but it must never panic on any
// input, and anything it accepts must satisfy the invariants Open relies
// on (non-empty node/disk sets, positive geometry, placements on known
// nodes) and survive a marshal → parse round trip unchanged.
func FuzzManifestDecode(f *testing.F) {
	// A real record payload as the coverage seed, plus malformed shapes.
	good := Manifest{
		Nodes: []NodeSpec{{ID: "alpha", URL: "http://h1:7980"}, {ID: "beta", URL: "http://h2:7980"}, {ID: "gamma", URL: "http://h3:7980"}},
		Disks: []Placement{
			{Node: "alpha", Device: "disk00", Super: "sb00"},
			{Node: "beta", Device: "disk01", Super: "sb01"},
			{Node: "gamma", Device: "disk02", Super: "sb02"},
		},
		Cycles:     4,
		StripBytes: 4096,
	}
	raw, err := json.Marshal(good) // the record payload Cluster.commit writes
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw)
	f.Add(raw[:len(raw)/2])                                                // cut short
	f.Add(append(raw, make([]byte, 64)...))                                // trailing bytes
	f.Add(make([]byte, 256))                                               // all zeros
	f.Add([]byte(`{"nodes":[],"disks":[]}`))                               // structurally empty
	f.Add([]byte(`{"nodes":[{"id":"a","url":"u"},{"id":"a","url":"u"}]}`)) // dup node
	f.Add([]byte(`{"cycles":-1}`))
	f.Add([]byte(``))

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ParseManifest(data)
		if err != nil {
			return
		}
		// Accepted → the invariants recovery depends on must hold.
		if len(m.Nodes) == 0 || len(m.Disks) == 0 {
			t.Fatalf("accepted manifest with empty nodes/disks: %+v", m)
		}
		if m.Cycles <= 0 || m.StripBytes <= 0 {
			t.Fatalf("accepted non-positive geometry: %+v", m)
		}
		ids := map[string]bool{}
		for _, n := range m.Nodes {
			if n.ID == "" || ids[n.ID] {
				t.Fatalf("accepted empty/duplicate node ID: %+v", m.Nodes)
			}
			ids[n.ID] = true
		}
		for _, p := range m.Disks {
			if !ids[p.Node] || p.Device == "" || p.Super == "" {
				t.Fatalf("accepted dangling placement %+v", p)
			}
		}
		// Round trip: the record a coordinator commits next must parse
		// back to the same manifest, or the next open sees a different
		// cluster than the one that was acked.
		re, err := json.Marshal(m)
		if err != nil {
			t.Fatalf("re-marshal: %v", err)
		}
		m2, err := ParseManifest(re)
		if err != nil {
			t.Fatalf("round trip rejected: %v\n%s", err, re)
		}
		re2, err := json.Marshal(m2)
		if err != nil {
			t.Fatalf("second marshal: %v", err)
		}
		if !bytes.Equal(re, re2) {
			t.Fatalf("round trip diverged:\n%s\n%s", re, re2)
		}
	})
}
