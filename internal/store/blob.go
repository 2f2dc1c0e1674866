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

// MemBlob is an in-memory Blob for tests and volatile metadata. Its bytes
// are a run of chunks, memChunk bytes each but the last, which is shorter:
// a blob grows by adding chunks, so a journal region that reaches a
// mebibyte never reallocates and copies what it holds, and its slack is
// about a chunk at most.
type MemBlob struct {
	mu     sync.RWMutex
	chunks [][]byte
}

// memChunk is the size of every MemBlob chunk but the last.
const memChunk = 64 << 10

// memChunks recycles the whole chunks blobs drop, zeroed. A journal region
// a compaction empties is regrown by the next one within a few writes;
// taking its chunks back spares allocating and zeroing that memory anew,
// and what the pool still holds at the second collection after a drop is
// freed, so a dead region holds its memory for no longer.
var memChunks = sync.Pool{New: func() any { return new([memChunk]byte) }}

var _ Blob = (*MemBlob)(nil)

// NewMemBlob returns an empty in-memory blob.
func NewMemBlob() *MemBlob { return &MemBlob{} }

// NewMemBlobBytes returns an in-memory blob seeded with data (copied).
func NewMemBlobBytes(data []byte) *MemBlob {
	b := &MemBlob{}
	b.resize(int64(len(data)))
	for i, c := range b.chunks {
		copy(c, data[i*memChunk:])
	}
	return b
}

// size is the blob's length. Caller holds mu.
func (b *MemBlob) size() int64 {
	if len(b.chunks) == 0 {
		return 0
	}
	return int64(len(b.chunks)-1)*memChunk + int64(len(b.chunks[len(b.chunks)-1]))
}

// resize sets the blob's length to n, each chunk's with resizeBytes. The
// first chunk grows by append, so a small blob stays small; every later one
// is a pool chunk, handed back when the blob drops it. Caller holds mu.
func (b *MemBlob) resize(n int64) {
	last := int((n+memChunk-1)/memChunk) - 1 // -1 when n is 0
	for len(b.chunks) <= last {
		if k := len(b.chunks); k == 0 {
			b.chunks = append(b.chunks, nil)
		} else {
			b.chunks[k-1] = resizeBytes(b.chunks[k-1], memChunk)
			b.chunks = append(b.chunks, memChunks.Get().(*[memChunk]byte)[:0])
		}
	}
	for i := last + 1; i < len(b.chunks); i++ {
		if i > 0 {
			clear(b.chunks[i])
			memChunks.Put((*[memChunk]byte)(b.chunks[i][:memChunk]))
		}
		b.chunks[i] = nil
	}
	if last < 0 {
		b.chunks = nil
		return
	}
	b.chunks = b.chunks[:last+1]
	b.chunks[last] = resizeBytes(b.chunks[last], n-int64(last)*memChunk)
}

// Bytes returns a copy of the blob's content.
func (b *MemBlob) Bytes() []byte {
	b.mu.RLock()
	defer b.mu.RUnlock()
	out := make([]byte, 0, b.size())
	for _, c := range b.chunks {
		out = append(out, c...)
	}
	return out
}

// ReadAt implements Blob with os.File semantics: a read crossing the end
// returns the available prefix and io.EOF.
func (b *MemBlob) ReadAt(p []byte, off int64) (int, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	if off < 0 {
		return 0, fmt.Errorf("%w: %d", ErrNegativeOffset, off)
	}
	size := b.size()
	if off >= size {
		return 0, io.EOF
	}
	n := 0
	for at := off; n < len(p) && at < size; at = off + int64(n) {
		n += copy(p[n:], b.chunks[at/memChunk][at%memChunk:])
	}
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
	if end := off + int64(len(p)); end > b.size() {
		b.resize(end)
	}
	n := 0
	for at := off; n < len(p); at = off + int64(n) {
		n += copy(b.chunks[at/memChunk][at%memChunk:], p[n:])
	}
	return n, nil
}

// Sync implements Blob (a no-op: memory has no volatile cache).
func (b *MemBlob) Sync() error { return nil }

// Size implements Blob.
func (b *MemBlob) Size() (int64, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.size(), nil
}

// Truncate implements Blob.
func (b *MemBlob) Truncate(size int64) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if size < 0 {
		return fmt.Errorf("%w: %d", ErrNegativeOffset, size)
	}
	b.resize(size)
	return nil
}

// Close implements Blob.
func (b *MemBlob) Close() error { return nil }

// resizeBytes returns b with length n — the one way an in-memory blob image
// (a MemBlob chunk, both images of a CrashBlob) changes size. The bytes
// past an image's length are zero — new memory is, and shrinking clears
// what it cuts off — so growing inside the capacity is a reslice that
// re-exposes zeros, and a hole reads zero as an os.File's does. Shrinking
// to zero drops the array, so a truncated journal region holds no memory;
// growing past the capacity is append's amortised growth, so a run of
// appends costs the bytes appended and not the size of the image.
func resizeBytes(b []byte, n int64) []byte {
	switch old := int64(len(b)); {
	case n == 0:
		return nil
	case n <= old:
		clear(b[n:])
		return b[:n]
	case n <= int64(cap(b)):
		return b[:n]
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
