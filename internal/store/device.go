// Package store is the byte-accurate data plane: a real array that lays
// user data out under any layout.Scheme (OI-RAID or a baseline), encodes
// parity with package erasure, serves degraded reads through live
// reconstruction, and rebuilds failed disks onto replacement devices.
//
// It is the proof that the geometry in packages layout and core is not
// just analysis: the same stripe graph drives actual bytes, and the
// integration tests kill up to three disks, rebuild, and compare content
// hashes.
package store

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"runtime"
	"sync"
)

// Device is a strip-granularity block device.
//
// ReadStrip and WriteStrip must not retain p after they return, and
// WriteStrip must not modify it: the array hands them pooled scratch buffers
// and callers' own slices, both of which are reused the moment the call is
// over. An implementation that queues, retries in the background or forwards
// asynchronously copies p first.
type Device interface {
	// Strips returns the device size in strips.
	Strips() int64
	// StripBytes returns the strip size.
	StripBytes() int
	// ReadStrip fills p (length StripBytes) with strip idx.
	ReadStrip(idx int64, p []byte) error
	// WriteStrip stores p (length StripBytes) as strip idx.
	WriteStrip(idx int64, p []byte) error
	// Close releases resources.
	Close() error
}

// MemDevice is an in-memory Device. Its bytes are a region outside the Go
// heap (mapRegion), so the collector neither counts them nor doubles them.
// Every access to the region holds mu: the deferred unlock keeps m
// reachable, so the finalizer cannot release the region mid-copy.
//
// The device is sparse, like a sparse file: written marks the strips it has
// stored, and a strip outside it reads zero without touching the region. A
// region comes back from the free list holding its last device's bytes, so
// WriteStrip, which overwrites a whole strip, is the one writer of region
// bytes: a new device costs its bitmap, not a clear of its region. A strip
// of zeros written where the device never wrote stays outside written, so a
// rebuild or a copy that reconstructs never-written strips touches no pages.
type MemDevice struct {
	mu         sync.RWMutex
	reg        *region // nil once closed
	written    stripSet
	strips     int64
	stripBytes int
}

// stripSet is a bitmap of strip indexes.
type stripSet []uint64

func newStripSet(strips int64) stripSet { return make(stripSet, (strips+63)/64) }

func (s stripSet) has(i int64) bool { return s[i/64]&(1<<(i%64)) != 0 }

func (s stripSet) add(i int64) { s[i/64] |= 1 << (i % 64) }

var _ Device = (*MemDevice)(nil)

// NewMemDevice allocates a memory-backed device of strips × stripBytes.
// It reads all zeros. Close releases its region at once; a device that is
// dropped without Close releases it when the collector finds it unreachable.
func NewMemDevice(strips int64, stripBytes int) (*MemDevice, error) {
	size, err := DeviceBytes(strips, stripBytes)
	if err != nil {
		return nil, err
	}
	reg, err := takeRegion(int(size))
	if err != nil {
		return nil, fmt.Errorf("store: map device: %w", err)
	}
	m := &MemDevice{reg: reg, written: newStripSet(strips), strips: strips, stripBytes: stripBytes}
	runtime.SetFinalizer(m, (*MemDevice).Close)
	return m, nil
}

// region is the bytes of one MemDevice, kept for the next device of the
// same size once that one is released.
type region struct {
	b    []byte
	next *region // in regions.free
	at   uint64  // regions.cycle at release
}

// regions is the free list of released regions, newest first. Releasing
// allocates nothing (a finalizer may run inside an allocation-counting
// test), and a region no device takes within two collections is unmapped,
// so nothing is kept without bound.
var regions struct {
	sync.Mutex
	free  *region
	cycle uint64 // collections seen by onGC
}

// takeRegion returns a released region of n bytes, holding whatever its
// last device wrote, or maps a new one.
func takeRegion(n int) (*region, error) {
	regions.Lock()
	for p := &regions.free; *p != nil; p = &(*p).next {
		if r := *p; len(r.b) == n {
			*p, r.next = r.next, nil
			regions.Unlock()
			return r, nil
		}
	}
	regions.Unlock()
	b, err := mapRegion(n)
	if err != nil {
		return nil, err
	}
	return &region{b: b}, nil
}

func (r *region) release() {
	regions.Lock()
	r.at, r.next, regions.free = regions.cycle, regions.free, r
	regions.Unlock()
}

// gcTick's finalizer runs once per collection and re-arms itself.
type gcTick struct{ _ *byte }

func init() { runtime.SetFinalizer(&gcTick{}, onGC) }

// onGC unmaps the regions released two or more collections ago. The list
// is ordered by release, so they are its tail.
func onGC(t *gcTick) {
	regions.Lock()
	regions.cycle++
	p := &regions.free
	for *p != nil && regions.cycle-(*p).at < 2 {
		p = &(*p).next
	}
	stale := *p
	*p = nil
	regions.Unlock()
	for ; stale != nil; stale = stale.next {
		unmapRegion(stale.b)
	}
	runtime.SetFinalizer(t, onGC)
}

// Strips implements Device.
func (m *MemDevice) Strips() int64 { return m.strips }

// StripBytes implements Device.
func (m *MemDevice) StripBytes() int { return m.stripBytes }

// ReadStrip implements Device.
func (m *MemDevice) ReadStrip(idx int64, p []byte) error {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.reg == nil {
		return ErrClosed
	}
	if err := m.check(idx, p); err != nil {
		return err
	}
	if m.written.has(idx) {
		copy(p, m.reg.b[idx*int64(m.stripBytes):])
	} else {
		clear(p)
	}
	return nil
}

// WriteStrip implements Device.
func (m *MemDevice) WriteStrip(idx int64, p []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.reg == nil {
		return ErrClosed
	}
	if err := m.check(idx, p); err != nil {
		return err
	}
	if !m.written.has(idx) {
		if allZero(p) {
			return nil // it reads zero already: its pages stay untouched
		}
		m.written.add(idx)
	}
	copy(m.reg.b[idx*int64(m.stripBytes):], p)
	return nil
}

// allZero reports whether p holds only zero bytes. It reads p four words
// at a time (4× the speed of one) and returns at the first of them that is
// not zero, so a strip of data costs a few loads.
func allZero(p []byte) bool {
	le := binary.LittleEndian
	for ; len(p) >= 32; p = p[32:] {
		if le.Uint64(p)|le.Uint64(p[8:])|le.Uint64(p[16:])|le.Uint64(p[24:]) != 0 {
			return false
		}
	}
	for _, b := range p {
		if b != 0 {
			return false
		}
	}
	return true
}

func (m *MemDevice) check(idx int64, p []byte) error {
	if idx < 0 || idx >= m.strips {
		return fmt.Errorf("%w: %d of %d", ErrStripOutOfRange, idx, m.strips)
	}
	if len(p) != m.stripBytes {
		return fmt.Errorf("%w: buffer %d bytes, strip is %d", ErrShortBuffer, len(p), m.stripBytes)
	}
	return nil
}

// Close implements Device: it releases the region for the next device of
// its size. Closing twice is harmless.
func (m *MemDevice) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.reg != nil {
		m.reg.release()
		m.reg = nil
	}
	return nil
}

// FileDevice is a file-backed Device.
type FileDevice struct {
	mu         sync.Mutex
	f          *os.File
	strips     int64
	stripBytes int
}

var _ Device = (*FileDevice)(nil)

// DeviceBytes is the byte size of a device of strips × stripBytes. A
// geometry that is empty, or whose size does not fit an int64, is refused
// with ErrBadGeometry: its offsets would wrap.
func DeviceBytes(strips int64, stripBytes int) (int64, error) {
	if strips <= 0 || stripBytes <= 0 || strips > math.MaxInt64/int64(stripBytes) {
		return 0, fmt.Errorf("%w: %d×%d", ErrBadGeometry, strips, stripBytes)
	}
	return strips * int64(stripBytes), nil
}

// NewFileDevice creates (truncating) a file-backed device at path.
func NewFileDevice(path string, strips int64, stripBytes int) (*FileDevice, error) {
	size, err := DeviceBytes(strips, stripBytes)
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: create device: %w", err)
	}
	if err := f.Truncate(size); err != nil {
		f.Close()
		return nil, fmt.Errorf("store: size device: %w", err)
	}
	return &FileDevice{f: f, strips: strips, stripBytes: stripBytes}, nil
}

// OpenFileDevice opens an existing device image, verifying its size
// matches the geometry.
func OpenFileDevice(path string, strips int64, stripBytes int) (*FileDevice, error) {
	size, err := DeviceBytes(strips, stripBytes)
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, fmt.Errorf("store: open device: %w", err)
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if info.Size() != size {
		f.Close()
		return nil, fmt.Errorf("store: device %s is %d bytes, want %d", path, info.Size(), size)
	}
	return &FileDevice{f: f, strips: strips, stripBytes: stripBytes}, nil
}

// Strips implements Device.
func (d *FileDevice) Strips() int64 { return d.strips }

// StripBytes implements Device.
func (d *FileDevice) StripBytes() int { return d.stripBytes }

// ReadStrip implements Device.
func (d *FileDevice) ReadStrip(idx int64, p []byte) error {
	if err := d.check(idx, p); err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.f == nil {
		return ErrClosed
	}
	_, err := d.f.ReadAt(p, idx*int64(d.stripBytes))
	return err
}

// WriteStrip implements Device.
func (d *FileDevice) WriteStrip(idx int64, p []byte) error {
	if err := d.check(idx, p); err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.f == nil {
		return ErrClosed
	}
	_, err := d.f.WriteAt(p, idx*int64(d.stripBytes))
	return err
}

func (d *FileDevice) check(idx int64, p []byte) error {
	if idx < 0 || idx >= d.strips {
		return fmt.Errorf("%w: %d of %d", ErrStripOutOfRange, idx, d.strips)
	}
	if len(p) != d.stripBytes {
		return fmt.Errorf("%w: buffer %d bytes, strip is %d", ErrShortBuffer, len(p), d.stripBytes)
	}
	return nil
}

// Close implements Device.
func (d *FileDevice) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.f == nil {
		return nil
	}
	err := d.f.Close()
	d.f = nil
	return err
}
