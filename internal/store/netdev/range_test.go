package netdev

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/oiraid/oiraid/internal/retry"
	"github.com/oiraid/oiraid/internal/store"
)

// readStrips reads count strips of dev from start, one request each.
func readStrips(t *testing.T, dev *NetDevice, start int64, count int) []byte {
	t.Helper()
	out := make([]byte, count*dev.StripBytes())
	for i := 0; i < count; i++ {
		if err := dev.ReadStrip(start+int64(i), out[i*dev.StripBytes():(i+1)*dev.StripBytes()]); err != nil {
			t.Fatalf("read strip %d: %v", start+int64(i), err)
		}
	}
	return out
}

// TestNetDeviceRangeRoundTrip covers the bulk-migration surface: a ranged
// write moves whole cycles in one request and the checksums match the
// per-strip contents.
func TestNetDeviceRangeRoundTrip(t *testing.T) {
	_, srv := startNode(t, "n0")
	c := NewNodeClient(srv.URL, fastOpts())
	defer c.Close()

	const strips, stripBytes = 8, 128
	dev, err := c.CreateDevice("d0", strips, stripBytes)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	bulk := make([]byte, 4*stripBytes)
	for i := range bulk {
		bulk[i] = byte(i * 7)
	}
	if err := dev.WriteStripRange(2, bulk); err != nil {
		t.Fatalf("write range: %v", err)
	}
	// Bulk write is idempotent — a migration retry must be harmless.
	if err := dev.WriteStripRange(2, bulk); err != nil {
		t.Fatalf("re-write range: %v", err)
	}

	// Per-strip reads see the same bytes the bulk write landed.
	if !bytes.Equal(readStrips(t, dev, 2, 4), bulk) {
		t.Fatal("strips differ from bulk write")
	}

	// StripSums is the resume verifier: one checksum per strip, equal to
	// the CRC of the strip's bytes.
	sums, err := dev.StripSums(2, 4)
	if err != nil {
		t.Fatalf("sums: %v", err)
	}
	if len(sums) != 4 {
		t.Fatalf("got %d sums, want 4", len(sums))
	}
	for i, sum := range sums {
		if want := StripCRC(bulk[i*stripBytes : (i+1)*stripBytes]); sum != want {
			t.Fatalf("sum %d = %q, want %q", i, sum, want)
		}
	}

	// Sentinel taxonomy on the ranged surface.
	if err := dev.WriteStripRange(6, bulk); !errors.Is(err, store.ErrStripOutOfRange) {
		t.Fatalf("overrun write: %v", err)
	}
	if err := dev.WriteStripRange(0, bulk[:stripBytes+1]); !errors.Is(err, store.ErrShortBuffer) {
		t.Fatalf("ragged write: %v", err)
	}
}

// TestNetDeviceRangeFencing pins the epoch discipline on the migration
// surface: mutations from a stale epoch die ErrStaleEpoch, reads and
// checksums stay unfenced, classic (un-fenced) clients are untouched.
func TestNetDeviceRangeFencing(t *testing.T) {
	_, srv := startNode(t, "n0")

	// The current coordinator: epoch 5, holds the lease.
	cur := NewNodeClient(srv.URL, fastOpts())
	defer cur.Close()
	curFence := &FenceToken{}
	curFence.Advance(5)
	cur.SetFence(curFence)
	if err := cur.AcquireLease(5, "coord-b"); err != nil {
		t.Fatalf("acquire lease: %v", err)
	}

	const strips, stripBytes = 8, 128
	dev, err := cur.CreateDevice("d0", strips, stripBytes)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if _, err := cur.CreateBlob("sb0"); err != nil {
		t.Fatalf("create blob: %v", err)
	}
	bulk := make([]byte, 2*stripBytes)
	for i := range bulk {
		bulk[i] = byte(i)
	}
	if err := dev.WriteStripRange(0, bulk); err != nil {
		t.Fatalf("fenced write at current epoch: %v", err)
	}

	// The deposed coordinator: epoch 4. Every mutation must bounce.
	stale := NewNodeClient(srv.URL, fastOpts())
	defer stale.Close()
	staleFence := &FenceToken{}
	staleFence.Advance(4)
	stale.SetFence(staleFence)
	sdev := stale.Device("d0", strips, stripBytes)
	if err := sdev.WriteStripRange(0, bulk); !errors.Is(err, store.ErrStaleEpoch) {
		t.Fatalf("stale bulk write: %v, want ErrStaleEpoch", err)
	}
	if err := sdev.WriteStrip(0, bulk[:stripBytes]); !errors.Is(err, store.ErrStaleEpoch) {
		t.Fatalf("stale strip write: %v, want ErrStaleEpoch", err)
	}
	if err := stale.DeleteDevice("d0"); !errors.Is(err, store.ErrStaleEpoch) {
		t.Fatalf("stale device delete: %v, want ErrStaleEpoch", err)
	}
	if err := stale.DeleteBlob("sb0"); !errors.Is(err, store.ErrStaleEpoch) {
		t.Fatalf("stale blob delete: %v, want ErrStaleEpoch", err)
	}
	// Reads and sums are unfenced: a deposed coordinator may still look.
	if !bytes.Equal(readStrips(t, sdev, 0, 2), bulk) {
		t.Fatal("stale read differs")
	}
	if _, err := sdev.StripSums(0, 2); err != nil {
		t.Fatalf("stale sums: %v", err)
	}
	// The stale mutations never landed.
	if !bytes.Equal(readStrips(t, dev, 0, 2), bulk) {
		t.Fatal("content changed by stale attempts")
	}

	// Classic mode: a client with no fence at all is always allowed.
	classic := NewNodeClient(srv.URL, fastOpts())
	defer classic.Close()
	cdev := classic.Device("d0", strips, stripBytes)
	if err := cdev.WriteStripRange(0, bulk); err != nil {
		t.Fatalf("unfenced write: %v", err)
	}

	// Reclaim from the live epoch: idempotent, and the media is gone.
	if err := cur.DeleteDevice("d0"); err != nil {
		t.Fatalf("delete: %v", err)
	}
	if err := cur.DeleteDevice("d0"); err != nil {
		t.Fatalf("re-delete: %v", err)
	}
	if err := cur.DeleteBlob("sb0"); err != nil {
		t.Fatalf("delete blob: %v", err)
	}
	if _, err := cur.OpenDevice("d0"); !errors.Is(err, ErrNodeNotFound) {
		t.Fatalf("open after delete: %v", err)
	}
}

// TestWriteRangeBodySizing: the range handler reads its body into one buffer
// sized from the declared length, and a body over the cap — declared, or
// chunked and running past it — is refused as over the bound before any strip
// is touched, not as a strip-size mismatch.
func TestWriteRangeBodySizing(t *testing.T) {
	n, srv := startNode(t, "n0")
	c := NewNodeClient(srv.URL, fastOpts())
	defer c.Close()
	const stripBytes = 1 << 16
	dev, err := c.CreateDevice("d0", 4, stripBytes)
	if err != nil {
		t.Fatal(err)
	}
	put := func(length int64, body io.Reader) (status int, code string) {
		t.Helper()
		req := httptest.NewRequest(http.MethodPut, dev.rangeURL("start=0"), body)
		req.ContentLength = length
		rec := httptest.NewRecorder()
		n.Handler().ServeHTTP(rec, req)
		return rec.Code, rec.Header().Get(retry.Header)
	}
	want := bytes.Repeat([]byte{0x7E}, 2*stripBytes)
	if status, code := put(-1, bytes.NewReader(want)); status != http.StatusNoContent {
		t.Fatalf("chunked range write: status %d (%s)", status, code)
	}
	if got := readStrips(t, dev, 0, 2); !bytes.Equal(got, want) {
		t.Fatal("strips after a chunked range write differ")
	}
	// A declared length no machine can honour: refused unread.
	if status, code := put(1<<50, untouched{t}); status != http.StatusBadRequest || code != "bad-geometry" {
		t.Errorf("declared length past the cap: status %d code %q, want 400 bad-geometry", status, code)
	}
	if status, code := put(rangeMaxBytes+1, untouched{t}); status != http.StatusBadRequest || code != "bad-geometry" {
		t.Errorf("declared length one past the cap: status %d code %q, want 400 bad-geometry", status, code)
	}
	// Length unknown and endless: read up to the cap and no further.
	endless := &countingReader{r: zeroReader{}}
	if status, code := put(-1, endless); status != http.StatusBadRequest || code != "bad-geometry" {
		t.Errorf("chunked body past the cap: status %d code %q, want 400 bad-geometry", status, code)
	}
	if endless.n > rangeMaxBytes+1 {
		t.Errorf("an endless body was read for %d bytes, the cap is %d", endless.n, rangeMaxBytes)
	}
	// A body shorter than it declares is a damaged transfer.
	if status, code := put(int64(len(want)), bytes.NewReader(want[:len(want)-1])); status != http.StatusBadRequest || code != "bad-frame" {
		t.Errorf("body shorter than declared: status %d code %q, want 400 bad-frame", status, code)
	}
	if got := readStrips(t, dev, 0, 2); !bytes.Equal(got, want) {
		t.Error("a refused range write reached the strips")
	}
}

type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}
