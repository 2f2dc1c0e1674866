package netdev

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/oiraid/oiraid/internal/retry"
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

// TestWriteStripBodySizing drives the node's strip-write handler with the
// bodies a client never sends: chunked ones (length unknown), and declared
// ones that are too long.
func TestWriteStripBodySizing(t *testing.T) {
	_, srv := startNode(t, "n0")
	c := NewNodeClient(srv.URL, fastOpts())
	defer c.Close()
	dev, err := c.CreateDevice("d0", 4, 512)
	if err != nil {
		t.Fatal(err)
	}
	put := func(body io.Reader) (status int, code string) {
		t.Helper()
		req, err := http.NewRequest(http.MethodPut, dev.stripURL(1), body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, resp.Header.Get(retry.Header)
	}
	want := bytes.Repeat([]byte{0x3C}, 512)
	frame := EncodeFrame(OpWrite, 1, want)

	// io.MultiReader hides the length from net/http, so the body goes out
	// chunked and the handler sees ContentLength -1.
	if status, code := put(io.MultiReader(bytes.NewReader(frame))); status != http.StatusNoContent {
		t.Fatalf("chunked strip write: status %d (%s)", status, code)
	}
	got := make([]byte, 512)
	if err := dev.ReadStrip(1, got); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("strip after a chunked write: err %v", err)
	}
	if status, code := put(io.MultiReader(bytes.NewReader(frame), bytes.NewReader(make([]byte, 1<<20)))); status != http.StatusBadRequest || code != "bad-frame" {
		t.Errorf("chunked body past the bound: status %d code %q, want 400 bad-frame", status, code)
	}
	if status, code := put(bytes.NewReader(append(frame[:len(frame):len(frame)], 0))); status != http.StatusBadRequest || code != "bad-frame" {
		t.Errorf("declared body one past the bound: status %d code %q, want 400 bad-frame", status, code)
	}
	if err := dev.ReadStrip(1, got); err != nil || !bytes.Equal(got, want) {
		t.Errorf("a refused write reached the strip: err %v", err)
	}
}

// BenchmarkNetDeviceStrip is one strip RPC against an in-process node over
// loopback HTTP: the wire's share of a cluster read or write.
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
