package netdev

import (
	"bytes"
	"encoding/binary"
	"net/http/httptest"
	"testing"
)

type zeroReader struct{}

func (zeroReader) Read(p []byte) (int, error) {
	clear(p)
	return len(p), nil
}

// TestWriteStripBodySizing drives the node's strip route with single-strip
// write messages whose header declares a length other than the one they have:
// one byte short (the node reads what was declared, and the rest fails the
// checksums) and one byte long (the stream ends before the message does).
// Neither lands; the same message declared right does.
func TestWriteStripBodySizing(t *testing.T) {
	_, srv := startNode(t, "n0")
	c := NewNodeClient(srv.URL, fastOpts())
	defer c.Close()
	dev, err := c.CreateDevice("d0", 4, 512)
	if err != nil {
		t.Fatal(err)
	}
	want := bytes.Repeat([]byte{0x3C}, 512)
	msg := encodeBatch(kindWriteReq, fence{}, []batchItem{{Name: "d0", Strip: 1, Payload: want}}, nil)
	declared := func(n int) []byte {
		b := bytes.Clone(msg)
		binary.BigEndian.PutUint32(b[8:12], uint32(n))
		return b
	}
	if answer, err := openRawStream(t, srv.URL).exchange(declared(len(msg) - 1)); err == nil {
		t.Errorf("message declared one byte short: answered %d bytes, want the stream ended", len(answer))
	}
	s := openRawStream(t, srv.URL)
	if _, err := s.conn.Write(declared(len(msg) + 1)); err != nil {
		t.Fatal(err)
	}
	s.conn.CloseWrite()
	if answer, err := s.answer(); err == nil {
		t.Errorf("message declared one byte long: answered %d bytes, want the stream ended", len(answer))
	}
	got := make([]byte, 512)
	if err := dev.ReadStrip(1, got); err != nil || !bytes.Equal(got, make([]byte, 512)) {
		t.Fatalf("a refused write reached the strip: err %v", err)
	}
	if _, err := openRawStream(t, srv.URL).exchange(msg); err != nil {
		t.Fatalf("the message declared right: %v", err)
	}
	if err := dev.ReadStrip(1, got); err != nil || !bytes.Equal(got, want) {
		t.Errorf("strip after the message declared right: err %v", err)
	}
}

// BenchmarkNetDeviceStrip is one strip message against an in-process node
// over a loopback stream: the wire's share of a cluster read or write.
func BenchmarkNetDeviceStrip(b *testing.B) {
	srv := httptest.NewServer(NewMemNode("n0").Handler())
	defer srv.Close()
	c := NewNodeClient(srv.URL, Options{})
	defer c.Close()
	dev, err := c.CreateDevice("d0", 64, 4096)
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 4096)
	for _, op := range []struct {
		name string
		do   func(int64, []byte) error
	}{{"read", dev.ReadStrip}, {"write", dev.WriteStrip}} {
		b.Run(op.name, func(b *testing.B) {
			b.SetBytes(int64(len(buf)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := op.do(int64(i%64), buf); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
