package netdev

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
)

// untouched fails the test if anything reads from it: a body refused on its
// declared length must be refused before it is read, let alone allocated.
type untouched struct{ t *testing.T }

func (u untouched) Read([]byte) (int, error) {
	u.t.Error("a refused body was read")
	return 0, io.EOF
}

// TestReadSized: one buffer of the declared length, the declared length held
// to the bound before it is trusted, and the body held to the declaration.
func TestReadSized(t *testing.T) {
	payload := bytes.Repeat([]byte{0xA5}, 100)
	// A declaration no machine can honour: allocating it would kill the test.
	if _, err := readSized(untouched{t}, 1<<50, 100); !errors.Is(err, ErrBadFrame) {
		t.Errorf("declared length past the bound: %v, want ErrBadFrame", err)
	}
	if _, err := readSized(untouched{t}, 101, 100); !errors.Is(err, ErrBadFrame) {
		t.Errorf("declared length one past the bound: %v, want ErrBadFrame", err)
	}
	if b, err := readSized(bytes.NewReader(payload), 100, 100); err != nil || !bytes.Equal(b, payload) || cap(b) != 100 {
		t.Errorf("exact body: %d bytes (cap %d), err %v", len(b), cap(b), err)
	}
	if _, err := readSized(bytes.NewReader(payload[:99]), 100, 100); !errors.Is(err, ErrBadFrame) {
		t.Errorf("body shorter than declared: %v, want ErrBadFrame", err)
	}
	if _, err := readSized(bytes.NewReader(payload), 99, 100); !errors.Is(err, ErrBadFrame) {
		t.Errorf("body longer than declared: %v, want ErrBadFrame", err)
	}
	if b, err := readSized(bytes.NewReader(nil), 0, 100); err != nil || len(b) != 0 {
		t.Errorf("empty body: %d bytes, err %v", len(b), err)
	}
	// Length unknown: read to the end, but never past the bound plus the
	// one byte that lets the caller see it was exceeded.
	if b, err := readSized(bytes.NewReader(payload), -1, 100); err != nil || !bytes.Equal(b, payload) {
		t.Errorf("unknown length inside the bound: %d bytes, err %v", len(b), err)
	}
	endless := io.MultiReader(bytes.NewReader(payload), zeroReader{})
	if b, err := readSized(endless, -1, 100); err != nil || len(b) != 101 {
		t.Errorf("unknown length past the bound: %d bytes, err %v; want 101 for the caller to refuse", len(b), err)
	}
}

type zeroReader struct{}

func (zeroReader) Read(p []byte) (int, error) {
	clear(p)
	return len(p), nil
}

// TestReadBodyRefusesOversizedResponse: a response declaring more than the
// caller will take is refused on the declaration.
func TestReadBodyRefusesOversizedResponse(t *testing.T) {
	resp := &http.Response{ContentLength: 1 << 50, Body: io.NopCloser(untouched{t}), Header: http.Header{}}
	if _, err := readBody(resp, FrameHeaderLen+512); !errors.Is(err, ErrBadFrame) {
		t.Errorf("oversized response: %v, want ErrBadFrame", err)
	}
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
	msg := encodeBatch(kindWriteReq, fence{}, []batchItem{{Dev: "d0", Strip: 1, Payload: want}}, nil)
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
