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
	"fmt"
	"os"
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

// MemDevice is an in-memory Device.
type MemDevice struct {
	mu         sync.RWMutex
	data       []byte
	stripBytes int
	closed     bool
}

var _ Device = (*MemDevice)(nil)

// NewMemDevice allocates a memory-backed device of strips × stripBytes.
func NewMemDevice(strips int64, stripBytes int) (*MemDevice, error) {
	if strips <= 0 || stripBytes <= 0 {
		return nil, fmt.Errorf("%w: %d×%d", ErrBadGeometry, strips, stripBytes)
	}
	return &MemDevice{
		data:       make([]byte, strips*int64(stripBytes)),
		stripBytes: stripBytes,
	}, nil
}

// Strips implements Device.
func (m *MemDevice) Strips() int64 { return int64(len(m.data) / m.stripBytes) }

// StripBytes implements Device.
func (m *MemDevice) StripBytes() int { return m.stripBytes }

// ReadStrip implements Device.
func (m *MemDevice) ReadStrip(idx int64, p []byte) error {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.closed {
		return ErrClosed
	}
	if err := m.check(idx, p); err != nil {
		return err
	}
	copy(p, m.data[idx*int64(m.stripBytes):])
	return nil
}

// WriteStrip implements Device.
func (m *MemDevice) WriteStrip(idx int64, p []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	if err := m.check(idx, p); err != nil {
		return err
	}
	copy(m.data[idx*int64(m.stripBytes):], p)
	return nil
}

func (m *MemDevice) check(idx int64, p []byte) error {
	if idx < 0 || idx >= m.Strips() {
		return fmt.Errorf("%w: %d of %d", ErrStripOutOfRange, idx, m.Strips())
	}
	if len(p) != m.stripBytes {
		return fmt.Errorf("%w: buffer %d bytes, strip is %d", ErrShortBuffer, len(p), m.stripBytes)
	}
	return nil
}

// Close implements Device.
func (m *MemDevice) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	m.data = nil
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

// NewFileDevice creates (truncating) a file-backed device at path.
func NewFileDevice(path string, strips int64, stripBytes int) (*FileDevice, error) {
	if strips <= 0 || stripBytes <= 0 {
		return nil, fmt.Errorf("%w: %d×%d", ErrBadGeometry, strips, stripBytes)
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: create device: %w", err)
	}
	if err := f.Truncate(strips * int64(stripBytes)); err != nil {
		f.Close()
		return nil, fmt.Errorf("store: size device: %w", err)
	}
	return &FileDevice{f: f, strips: strips, stripBytes: stripBytes}, nil
}

// OpenFileDevice opens an existing device image, verifying its size
// matches the geometry.
func OpenFileDevice(path string, strips int64, stripBytes int) (*FileDevice, error) {
	if strips <= 0 || stripBytes <= 0 {
		return nil, fmt.Errorf("%w: %d×%d", ErrBadGeometry, strips, stripBytes)
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
	if want := strips * int64(stripBytes); info.Size() != want {
		f.Close()
		return nil, fmt.Errorf("store: device %s is %d bytes, want %d", path, info.Size(), want)
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
