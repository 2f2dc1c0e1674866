package store

import (
	"errors"
	"fmt"
	"hash/crc32"
	"sync"
	"sync/atomic"
	"time"
)

// ErrCorrupt reports a strip whose content failed checksum verification —
// a latent sector error. The array's read path treats such strips as
// erased and reconstructs them from parity (read repair).
var ErrCorrupt = errors.New("store: strip checksum mismatch")

// castagnoli is the CRC-32C table used for strip checksums (the
// polynomial storage systems conventionally use).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ChecksumStats counts a ChecksummedDevice's verification outcomes.
type ChecksumStats struct {
	// Verified counts reads checked against a known checksum.
	Verified int64
	// Corrupt counts reads that failed verification (latent sector
	// errors surfaced as ErrCorrupt).
	Corrupt int64
}

// ChecksummedDevice wraps a Device with per-strip CRC-32C verification:
// every write records the strip's checksum, every read verifies it and
// returns ErrCorrupt on mismatch. It turns silent media corruption into
// detectable erasures, which the array's parity then heals.
//
// Durability depends on construction. NewChecksummedDevice keeps sums
// only in memory (after a restart, strips are re-trusted until
// rewritten). NewDurableChecksummedDevice additionally streams every new
// checksum into a ChecksumSink — the metadata journal — and starts from
// the sums the journal replayed, so corruption that happened while the
// array was down is detected on first read after a remount.
type ChecksummedDevice struct {
	inner Device
	disk  int
	sink  ChecksumSink

	mu   sync.RWMutex
	sums map[int64]uint32

	verified, corrupt atomic.Int64
}

var _ StripLayer = (*ChecksummedDevice)(nil)

// NewChecksummedDevice wraps dev with volatile (in-memory) checksums.
func NewChecksummedDevice(dev Device) *ChecksummedDevice {
	return &ChecksummedDevice{inner: dev, disk: -1, sums: make(map[int64]uint32)}
}

// NewDurableChecksummedDevice wraps dev with journal-backed checksums:
// sums seeds the map (typically MetaJournal.Sums(disk) at mount; nil for
// a fresh array) and every write's checksum is recorded to sink before
// the write returns.
func NewDurableChecksummedDevice(dev Device, disk int, sums map[int64]uint32, sink ChecksumSink) *ChecksummedDevice {
	if sums == nil {
		sums = make(map[int64]uint32)
	}
	return &ChecksummedDevice{inner: dev, disk: disk, sink: sink, sums: sums}
}

// Strips implements Device.
func (c *ChecksummedDevice) Strips() int64 { return c.inner.Strips() }

// StripBytes implements Device.
func (c *ChecksummedDevice) StripBytes() int { return c.inner.StripBytes() }

// ReadStrip implements Device, verifying the checksum when one is known.
func (c *ChecksummedDevice) ReadStrip(idx int64, p []byte) error {
	return c.AfterRead(idx, p, 0, c.inner.ReadStrip(idx, p))
}

// AfterRead implements StripLayer: the verification of a strip the inner
// device read into p.
func (c *ChecksummedDevice) AfterRead(idx int64, p []byte, _ time.Duration, err error) error {
	if err != nil {
		return err
	}
	c.mu.RLock()
	want, known := c.sums[idx]
	c.mu.RUnlock()
	if !known {
		return nil
	}
	c.verified.Add(1)
	if crc32.Checksum(p, castagnoli) != want {
		c.corrupt.Add(1)
		return fmt.Errorf("%w: strip %d", ErrCorrupt, idx)
	}
	return nil
}

// ReadStripRaw reads strip idx without checksum verification — the fsck
// parity walk uses it so a checksum mismatch (reported separately) does
// not mask the parity check.
func (c *ChecksummedDevice) ReadStripRaw(idx int64, p []byte) error {
	return c.inner.ReadStrip(idx, p)
}

// WriteStrip implements Device, recording the new checksum (durably when
// journal-backed).
func (c *ChecksummedDevice) WriteStrip(idx int64, p []byte) error {
	return c.AfterWrite(idx, p, 0, c.inner.WriteStrip(idx, p))
}

// AfterWrite implements StripLayer: the record of the checksum of a strip
// the inner device stored.
func (c *ChecksummedDevice) AfterWrite(idx int64, p []byte, _ time.Duration, err error) error {
	if err != nil {
		return err
	}
	sum := crc32.Checksum(p, castagnoli)
	c.mu.Lock()
	c.sums[idx] = sum
	c.mu.Unlock()
	if c.sink != nil {
		return c.sink.RecordSum(c.disk, idx, sum)
	}
	return nil
}

// Stats returns a snapshot of the verification counters.
func (c *ChecksummedDevice) Stats() ChecksumStats {
	return ChecksumStats{Verified: c.verified.Load(), Corrupt: c.corrupt.Load()}
}

// Close implements Device.
func (c *ChecksummedDevice) Close() error { return c.inner.Close() }

// Inner exposes the wrapped device (tests corrupt it behind the wrapper's
// back to exercise the detection path).
func (c *ChecksummedDevice) Inner() Device { return c.inner }

// Under implements StripLayer.
func (c *ChecksummedDevice) Under() Device { return c.inner }
