package netdev

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"testing"

	"github.com/oiraid/oiraid/internal/store"
)

// crcOf is the checksum StripSums reports for a strip of content p.
func crcOf(p []byte) string { return fmt.Sprintf("%08x", crc32.Checksum(p, castagnoli)) }

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

// writeRun writes len(p)/StripBytes consecutive strips of dev from start as
// one batch — a migration's bulk write — and returns the first op's error.
func writeRun(dev *NetDevice, start int64, p []byte) error {
	sb := dev.StripBytes()
	ops := make([]store.StripOp, len(p)/sb)
	for i := range ops {
		ops[i] = store.StripOp{Dev: dev, Idx: start + int64(i), Buf: p[i*sb : (i+1)*sb]}
	}
	dev.WriteStrips(ops)
	for i := range ops {
		if ops[i].Err != nil {
			return ops[i].Err
		}
	}
	return nil
}

// TestNetDeviceRangeRoundTrip covers the bulk-migration surface: a batch
// write moves a run of strips in one request and the range checksums match
// the per-strip contents.
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
	if err := writeRun(dev, 2, bulk); err != nil {
		t.Fatalf("write run: %v", err)
	}
	// Bulk write is idempotent — a migration retry must be harmless.
	if err := writeRun(dev, 2, bulk); err != nil {
		t.Fatalf("re-write run: %v", err)
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
		if want := crcOf(bulk[i*stripBytes : (i+1)*stripBytes]); sum != want {
			t.Fatalf("sum %d = %q, want %q", i, sum, want)
		}
	}

	// Sentinel taxonomy on the ranged surface.
	if err := writeRun(dev, 6, bulk); !errors.Is(err, store.ErrStripOutOfRange) {
		t.Fatalf("overrun write: %v", err)
	}
	if _, err := dev.StripSums(6, 4); !errors.Is(err, store.ErrStripOutOfRange) {
		t.Fatalf("overrun sums: %v", err)
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
	if err := writeRun(dev, 0, bulk); err != nil {
		t.Fatalf("fenced write at current epoch: %v", err)
	}

	// The deposed coordinator: epoch 4. Every mutation must bounce.
	stale := NewNodeClient(srv.URL, fastOpts())
	defer stale.Close()
	staleFence := &FenceToken{}
	staleFence.Advance(4)
	stale.SetFence(staleFence)
	sdev := stale.Device("d0", strips, stripBytes)
	if err := writeRun(sdev, 0, bulk); !errors.Is(err, store.ErrStaleEpoch) {
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
	if err := writeRun(cdev, 0, bulk); err != nil {
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
	if err := dev.ReadStrip(0, make([]byte, stripBytes)); !errors.Is(err, ErrNodeNotFound) {
		t.Fatalf("read after delete: %v", err)
	}
}

// hollowDevice has a geometry and no media: every strip reads as zeros.
type hollowDevice struct {
	strips     int64
	stripBytes int
}

func (d hollowDevice) Strips() int64   { return d.strips }
func (d hollowDevice) StripBytes() int { return d.stripBytes }
func (d hollowDevice) Close() error    { return nil }
func (d hollowDevice) ReadStrip(_ int64, p []byte) error {
	clear(p)
	return nil
}
func (d hollowDevice) WriteStrip(int64, []byte) error { return store.ErrReadOnly }

// TestStripSumsBoundedByCount: a checksum request is bounded by how many
// strips it names, not by their bytes — the handler reads through one strip
// buffer and answers one CRC per strip — so a resuming migration can verify a
// cycle of large strips; past the count cap it is refused before a strip is
// read.
func TestStripSumsBoundedByCount(t *testing.T) {
	n, srv := startNode(t, "n0")
	c := NewNodeClient(srv.URL, fastOpts())
	defer c.Close()
	n.AddDevice("big", hollowDevice{strips: 64, stripBytes: 1 << 20})
	n.AddDevice("many", hollowDevice{strips: sumsMaxStrips + 1, stripBytes: 16})

	// 36 strips of 1 MiB: more bytes than any one message may carry.
	sums, err := c.Device("big", 64, 1<<20).StripSums(0, 36)
	if err != nil {
		t.Fatalf("sums over 36 MiB of strips: %v", err)
	}
	for i, sum := range sums {
		if want := crcOf(make([]byte, 1<<20)); sum != want {
			t.Fatalf("sum %d = %q, want %q", i, sum, want)
		}
	}
	many := c.Device("many", sumsMaxStrips+1, 16)
	if _, err := many.StripSums(0, sumsMaxStrips); err != nil {
		t.Fatalf("sums of %d strips, the cap: %v", sumsMaxStrips, err)
	}
	if _, err := many.StripSums(0, sumsMaxStrips+1); !errors.Is(err, store.ErrBadGeometry) {
		t.Fatalf("sums of one strip past the cap: %v, want ErrBadGeometry", err)
	}
}
