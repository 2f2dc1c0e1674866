package store

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// Blob is the flat byte store the durable metadata plane (superblocks,
// metadata journal) is written to. Unlike Device it is byte-granular and
// exposes Sync, the barrier that separates "written" from "durable":
// nothing a Blob implementation accepts through WriteAt is guaranteed to
// survive a power failure until Sync returns. CrashBlob models exactly
// that contract for the power-fail test harness.
//
// WriteAt must not retain p after it returns, nor ever write to it: the
// metadata journal hands it a frame that a pending redo record goes on
// reading. MemBlob and CrashBlob copy, FileBlob is a pwrite, the cluster's
// quorum blob waits for every replica; see openFrame for the one reader
// that can outlive the call.
type Blob interface {
	io.ReaderAt
	io.WriterAt
	// Sync makes every previously accepted write durable.
	Sync() error
	// Size returns the current length in bytes.
	Size() (int64, error)
	// Truncate resizes the blob.
	Truncate(size int64) error
	// Close releases resources without an implicit Sync.
	Close() error
}

// FileBlob is a file-backed Blob; Sync is fsync.
type FileBlob struct {
	mu sync.Mutex
	f  *os.File
}

var _ Blob = (*FileBlob)(nil)

// CreateFileBlob opens (or creates) a file blob at path. When the file is
// newly created the containing directory is synced, so the directory
// entry itself survives a crash.
func CreateFileBlob(path string) (*FileBlob, error) {
	_, statErr := os.Stat(path)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: blob %s: %w", path, err)
	}
	if os.IsNotExist(statErr) {
		if err := SyncDir(filepath.Dir(path)); err != nil {
			f.Close()
			return nil, err
		}
	}
	return &FileBlob{f: f}, nil
}

// OpenFileBlob opens an existing file blob at path.
func OpenFileBlob(path string) (*FileBlob, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, fmt.Errorf("store: blob %s: %w", path, err)
	}
	return &FileBlob{f: f}, nil
}

// AtomicWriteFile replaces path with data so that after a crash the file
// holds either the old content or the new, never a torn mix. The full
// sequence matters: write a temp file, fsync the temp file (rename makes
// the *name* point at the inode, not the inode's pages durable), rename
// over path, then fsync the directory so the rename itself survives.
// Skipping the temp-file fsync is the classic bug: the rename can reach
// media before the data does, leaving an empty or garbage file under the
// final name.
func AtomicWriteFile(path string, data []byte, perm os.FileMode) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("store: atomic write %s: %w", path, err)
	}
	tmpName := tmp.Name()
	cleanup := func(err error) error {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("store: atomic write %s: %w", path, err)
	}
	if _, err := tmp.Write(data); err != nil {
		return cleanup(err)
	}
	if err := tmp.Chmod(perm); err != nil {
		return cleanup(err)
	}
	if err := tmp.Sync(); err != nil {
		return cleanup(err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("store: atomic write %s: %w", path, err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("store: atomic write %s: %w", path, err)
	}
	return SyncDir(dir)
}

// SyncDir fsyncs a directory, making recent entry creations and removals
// inside it durable. POSIX requires this extra step after creating a
// file: fsyncing the file alone does not persist its directory entry.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("store: sync dir %s: %w", dir, err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("store: sync dir %s: %w", dir, err)
	}
	return nil
}

// ReadAt implements Blob.
func (b *FileBlob) ReadAt(p []byte, off int64) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.f == nil {
		return 0, ErrClosed
	}
	return b.f.ReadAt(p, off)
}

// WriteAt implements Blob.
func (b *FileBlob) WriteAt(p []byte, off int64) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.f == nil {
		return 0, ErrClosed
	}
	return b.f.WriteAt(p, off)
}

// Sync implements Blob.
func (b *FileBlob) Sync() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.f == nil {
		return ErrClosed
	}
	return b.f.Sync()
}

// Size implements Blob.
func (b *FileBlob) Size() (int64, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.f == nil {
		return 0, ErrClosed
	}
	info, err := b.f.Stat()
	if err != nil {
		return 0, err
	}
	return info.Size(), nil
}

// Truncate implements Blob.
func (b *FileBlob) Truncate(size int64) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.f == nil {
		return ErrClosed
	}
	return b.f.Truncate(size)
}

// Close implements Blob.
func (b *FileBlob) Close() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.f == nil {
		return nil
	}
	err := b.f.Close()
	b.f = nil
	return err
}

// MemBlob is an in-memory Blob for tests and volatile metadata.
type MemBlob struct {
	mu   sync.RWMutex
	data []byte
}

var _ Blob = (*MemBlob)(nil)

// NewMemBlob returns an empty in-memory blob.
func NewMemBlob() *MemBlob { return &MemBlob{} }

// NewMemBlobBytes returns an in-memory blob seeded with data (copied).
func NewMemBlobBytes(data []byte) *MemBlob {
	return &MemBlob{data: append([]byte(nil), data...)}
}

// Bytes returns a copy of the blob's content.
func (b *MemBlob) Bytes() []byte {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return append([]byte(nil), b.data...)
}

// ReadAt implements Blob with os.File semantics: a read crossing the end
// returns the available prefix and io.EOF.
func (b *MemBlob) ReadAt(p []byte, off int64) (int, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	if off < 0 {
		return 0, fmt.Errorf("%w: %d", ErrNegativeOffset, off)
	}
	if off >= int64(len(b.data)) {
		return 0, io.EOF
	}
	n := copy(p, b.data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// WriteAt implements Blob, growing the blob as needed.
func (b *MemBlob) WriteAt(p []byte, off int64) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if off < 0 {
		return 0, fmt.Errorf("%w: %d", ErrNegativeOffset, off)
	}
	if end := off + int64(len(p)); end > int64(len(b.data)) {
		b.data = resizeBytes(b.data, end)
	}
	return copy(b.data[off:], p), nil
}

// Sync implements Blob (a no-op: memory has no volatile cache).
func (b *MemBlob) Sync() error { return nil }

// Size implements Blob.
func (b *MemBlob) Size() (int64, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return int64(len(b.data)), nil
}

// Truncate implements Blob.
func (b *MemBlob) Truncate(size int64) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if size < 0 {
		return fmt.Errorf("%w: %d", ErrNegativeOffset, size)
	}
	b.data = resizeBytes(b.data, size)
	return nil
}

// Close implements Blob.
func (b *MemBlob) Close() error { return nil }

// resizeBytes returns b with length n — the one way an in-memory blob image
// (MemBlob, both images of a CrashBlob) changes size. Shrinking keeps the
// capacity. Growing inside it zeroes the bytes it re-exposes, so a hole
// reads zero as an os.File's does; growing past it is append's amortised
// growth, so a run of appends costs the bytes appended and not the size of
// the blob (the journal appends six frames per strip write to a region
// that reaches a mebibyte between compactions).
func resizeBytes(b []byte, n int64) []byte {
	switch old := int64(len(b)); {
	case n <= old:
		return b[:n]
	case n <= int64(cap(b)):
		b = b[:n]
		clear(b[old:])
		return b
	default:
		return append(b, make([]byte, n-old)...)
	}
}

// readBlobAll reads a blob's entire content into memory.
func readBlobAll(b Blob) ([]byte, error) {
	size, err := b.Size()
	if err != nil {
		return nil, err
	}
	if size == 0 {
		return nil, nil
	}
	buf := make([]byte, size)
	n, err := b.ReadAt(buf, 0)
	if err != nil && err != io.EOF {
		return nil, err
	}
	return buf[:n], nil
}
