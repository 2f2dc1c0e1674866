package store

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sync"
)

// ErrCrashed reports an operation issued at or after a simulated power
// failure: the CrashController has cut persistence and every further
// device or blob operation fails until the harness builds survivors and
// remounts.
var ErrCrashed = errors.New("store: simulated power failure")

// CrashController coordinates a simulated power failure across every
// CrashDevice and CrashBlob of an array: after Arm(n), exactly n further
// persisting operations complete in full; the next one is torn at a
// seeded byte boundary and everything after it fails with ErrCrashed.
// Counting operations globally lets a test sweep the cut point across an
// entire workload — every device write, journal append flush, and
// superblock commit is a distinct crash point.
type CrashController struct {
	mu      sync.Mutex
	rng     *rand.Rand
	armed   bool
	left    int64 // fully persisting operations remaining before the cut
	writes  int64 // total persisting operations admitted (for sweep sizing)
	crashed bool
}

// NewCrashController returns a disarmed controller (all operations
// persist) with the given tear seed.
func NewCrashController(seed int64) *CrashController {
	return &CrashController{rng: rand.New(rand.NewSource(seed))}
}

// Arm schedules the power failure: n more persisting operations complete,
// then the next is torn. Arm(-1) disarms. Arming resets a previous crash.
func (c *CrashController) Arm(n int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.armed = n >= 0
	c.left = n
	c.crashed = false
}

// Crashed reports whether the cut has happened.
func (c *CrashController) Crashed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.crashed
}

// Writes returns the number of persisting operations admitted so far; a
// disarmed dry run of a workload uses it to size the crash-point sweep.
func (c *CrashController) Writes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.writes
}

// admit gates one persisting operation carrying n bytes. Before the cut
// it persists fully (persist == n, err == nil). The operation at the cut
// is torn: a seeded prefix of 0..n bytes persists and ErrCrashed is
// returned. After the cut nothing persists.
func (c *CrashController) admit(n int) (persist int, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.crashed {
		return 0, ErrCrashed
	}
	c.writes++
	if c.armed {
		if c.left <= 0 {
			c.crashed = true
			if n > 0 {
				persist = c.rng.Intn(n + 1)
			}
			return persist, ErrCrashed
		}
		c.left--
	}
	return n, nil
}

// CrashDevice is an in-memory strip Device with power-fail semantics: it
// models a disk whose write cache is disabled, so every completed
// WriteStrip is durable, the write at the cut point persists only a torn
// prefix, and everything after the cut fails with ErrCrashed. Survivor
// re-materialises the durable state for remounting.
type CrashDevice struct {
	ctl        *CrashController
	mu         sync.Mutex
	data       []byte
	persisted  stripSet // strips some write persisted bytes of
	stripBytes int
}

var _ Device = (*CrashDevice)(nil)

// NewCrashDevice allocates a crash-faulted device of strips × stripBytes
// attached to ctl.
func NewCrashDevice(ctl *CrashController, strips int64, stripBytes int) (*CrashDevice, error) {
	if strips <= 0 || stripBytes <= 0 {
		return nil, fmt.Errorf("%w: %d×%d", ErrBadGeometry, strips, stripBytes)
	}
	return &CrashDevice{
		ctl:        ctl,
		data:       make([]byte, strips*int64(stripBytes)),
		persisted:  newStripSet(strips),
		stripBytes: stripBytes,
	}, nil
}

// Strips implements Device.
func (d *CrashDevice) Strips() int64 { return int64(len(d.data) / d.stripBytes) }

// StripBytes implements Device.
func (d *CrashDevice) StripBytes() int { return d.stripBytes }

func (d *CrashDevice) check(idx int64, p []byte) error {
	if idx < 0 || idx >= d.Strips() {
		return fmt.Errorf("%w: %d of %d", ErrStripOutOfRange, idx, d.Strips())
	}
	if len(p) != d.stripBytes {
		return fmt.Errorf("%w: buffer %d bytes, strip is %d", ErrShortBuffer, len(p), d.stripBytes)
	}
	return nil
}

// ReadStrip implements Device.
func (d *CrashDevice) ReadStrip(idx int64, p []byte) error {
	if err := d.check(idx, p); err != nil {
		return err
	}
	if d.ctl.Crashed() {
		return ErrCrashed
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	copy(p, d.data[idx*int64(d.stripBytes):])
	return nil
}

// WriteStrip implements Device.
func (d *CrashDevice) WriteStrip(idx int64, p []byte) error {
	if err := d.check(idx, p); err != nil {
		return err
	}
	persist, err := d.ctl.admit(len(p))
	if persist > 0 {
		d.mu.Lock()
		copy(d.data[idx*int64(d.stripBytes):idx*int64(d.stripBytes)+int64(persist)], p[:persist])
		d.persisted.add(idx)
		d.mu.Unlock()
	}
	return err
}

// Close implements Device.
func (d *CrashDevice) Close() error { return nil }

// Survivor returns a fresh MemDevice holding exactly the durable state —
// what a remount after the power failure would find on the platter. Only
// the strips some write reached are written to it; the rest read zero, as
// they did here.
func (d *CrashDevice) Survivor() (*MemDevice, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	m, err := NewMemDevice(d.Strips(), d.stripBytes)
	if err != nil {
		return nil, err
	}
	for idx := int64(0); idx < d.Strips(); idx++ {
		if !d.persisted.has(idx) {
			continue
		}
		off := idx * int64(d.stripBytes)
		if err := m.WriteStrip(idx, d.data[off:off+int64(d.stripBytes)]); err != nil {
			m.Close()
			return nil, err
		}
	}
	return m, nil
}

// crashOp is one volatile mutation queued in a CrashBlob between Sync
// calls; truncations queue alongside writes so they replay in order.
type crashOp struct {
	off      int64
	data     []byte
	size     int64
	truncate bool
}

// CrashBlob is a Blob with page-cache power-fail semantics: WriteAt and
// Truncate mutate only a volatile image (and count as crash points), and
// Sync flushes the queued mutations to the durable image in order — torn
// at a seeded byte boundary if the cut lands on it. A crash therefore
// loses every write since the last Sync, the worst case the filesystem
// permits, which makes a missing fsync a deterministic test failure
// rather than a latent bug. Survivor re-materialises the durable image.
type CrashBlob struct {
	ctl      *CrashController
	mu       sync.Mutex
	volatile []byte
	durable  []byte
	pending  []crashOp
}

var _ Blob = (*CrashBlob)(nil)

// NewCrashBlob returns an empty crash-faulted blob attached to ctl.
func NewCrashBlob(ctl *CrashController) *CrashBlob {
	return &CrashBlob{ctl: ctl}
}

// ReadAt implements Blob, serving the volatile image (the page cache).
func (b *CrashBlob) ReadAt(p []byte, off int64) (int, error) {
	if b.ctl.Crashed() {
		return 0, ErrCrashed
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if off < 0 {
		return 0, fmt.Errorf("%w: %d", ErrNegativeOffset, off)
	}
	if off >= int64(len(b.volatile)) {
		return 0, io.EOF
	}
	n := copy(p, b.volatile[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// WriteAt implements Blob: volatile until the next Sync. The operation
// still counts as a crash point (persisting zero bytes when cut, exactly
// like a power failure before the flush).
func (b *CrashBlob) WriteAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("%w: %d", ErrNegativeOffset, off)
	}
	if _, err := b.ctl.admit(0); err != nil {
		return 0, err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if end := off + int64(len(p)); end > int64(len(b.volatile)) {
		b.volatile = resizeBytes(b.volatile, end)
	}
	copy(b.volatile[off:], p)
	b.pending = append(b.pending, crashOp{off: off, data: append([]byte(nil), p...)})
	return len(p), nil
}

// Truncate implements Blob; like WriteAt it is volatile until Sync.
func (b *CrashBlob) Truncate(size int64) error {
	if size < 0 {
		return fmt.Errorf("%w: %d", ErrNegativeOffset, size)
	}
	if _, err := b.ctl.admit(0); err != nil {
		return err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.volatile = resizeBytes(b.volatile, size)
	b.pending = append(b.pending, crashOp{size: size, truncate: true})
	return nil
}

// Sync implements Blob, flushing the queued mutations to the durable
// image in order. A cut mid-flush persists a prefix of the queued bytes:
// whole operations up to the tear, then a torn prefix of the next.
func (b *CrashBlob) Sync() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	total := 0
	for _, op := range b.pending {
		total += len(op.data)
	}
	persist, err := b.ctl.admit(total)
	budget := persist
	for _, op := range b.pending {
		if err != nil && budget <= 0 {
			break
		}
		if op.truncate {
			// Truncation carries no bytes; it persists if the flush
			// reached it.
			b.durable = resizeBytes(b.durable, op.size)
			continue
		}
		n := len(op.data)
		if err != nil && n > budget {
			n = budget // torn flush: only a prefix of this op persists
		}
		if end := op.off + int64(n); end > int64(len(b.durable)) {
			b.durable = resizeBytes(b.durable, end)
		}
		copy(b.durable[op.off:], op.data[:n])
		budget -= n
	}
	if err != nil {
		return err
	}
	b.pending = b.pending[:0]
	return nil
}

// Size implements Blob.
func (b *CrashBlob) Size() (int64, error) {
	if b.ctl.Crashed() {
		return 0, ErrCrashed
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return int64(len(b.volatile)), nil
}

// Close implements Blob.
func (b *CrashBlob) Close() error { return nil }

// Survivor returns a MemBlob holding the durable image only: every write
// since the last completed Sync is gone, exactly as after a power cut.
func (b *CrashBlob) Survivor() *MemBlob {
	b.mu.Lock()
	defer b.mu.Unlock()
	return NewMemBlobBytes(b.durable)
}
