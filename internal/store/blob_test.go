package store

import (
	"bytes"
	"io"
	"math/rand"
	"path/filepath"
	"testing"
)

// TestBlobContract runs one table of size-changing schedules over every Blob
// of the package: what a schedule leaves readable is the same bytes whether
// the image is memory that grows inside retained capacity, a crash blob's
// page cache, what that blob's flush made durable, or a file.
func TestBlobContract(t *testing.T) {
	same := func(b Blob) Blob { return b }
	impls := []struct {
		name string
		open func(t *testing.T) Blob
		// view is what the schedule's result is read through, after a Sync.
		view func(Blob) Blob
	}{
		{"MemBlob", func(*testing.T) Blob { return NewMemBlob() }, same},
		{"CrashBlob/volatile", func(*testing.T) Blob { return NewCrashBlob(NewCrashController(1)) }, same},
		{"CrashBlob/survivor", func(*testing.T) Blob { return NewCrashBlob(NewCrashController(1)) },
			func(b Blob) Blob { return b.(*CrashBlob).Survivor() }},
		{"FileBlob", func(t *testing.T) Blob {
			b, err := CreateFileBlob(filepath.Join(t.TempDir(), "blob"))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { b.Close() })
			return b
		}, same},
	}
	ones := bytes.Repeat([]byte{0xff}, 64)
	zeros := make([]byte, 64)
	type op struct {
		write    []byte // WriteAt(write, at) when non-nil
		at       int64
		truncate int64 // Truncate(truncate) otherwise
	}
	cases := []struct {
		name string
		ops  []op
		want []byte
	}{
		{"write past the end leaves a zero gap",
			[]op{{write: []byte("ab")}, {write: []byte("cd"), at: 10}},
			append(append([]byte("ab"), zeros[:8]...), "cd"...)},
		{"truncate shorter then write beyond reads zero between",
			[]op{{write: ones}, {truncate: 8}, {write: []byte("z"), at: 40}},
			append(append(append([]byte(nil), ones[:8]...), zeros[:32]...), 'z')},
		{"truncate shorter then longer reads zero beyond",
			[]op{{write: ones}, {truncate: 8}, {truncate: 48}},
			append(append([]byte(nil), ones[:8]...), zeros[:40]...)},
		{"truncate to nothing then write at an offset",
			[]op{{write: ones}, {truncate: 0}, {write: []byte("snapshot"), at: 24}},
			append(append([]byte(nil), zeros[:24]...), "snapshot"...)},
	}
	for _, im := range impls {
		for _, tc := range cases {
			t.Run(im.name+"/"+tc.name, func(t *testing.T) {
				b := im.open(t)
				for _, o := range tc.ops {
					var err error
					if o.write != nil {
						_, err = b.WriteAt(o.write, o.at)
					} else {
						err = b.Truncate(o.truncate)
					}
					if err != nil {
						t.Fatal(err)
					}
				}
				if err := b.Sync(); err != nil {
					t.Fatal(err)
				}
				v := im.view(b)
				if size, err := v.Size(); err != nil || size != int64(len(tc.want)) {
					t.Fatalf("size %d, err %v; want %d", size, err, len(tc.want))
				}
				got, err := readBlobAll(v)
				if err != nil || !bytes.Equal(got, tc.want) {
					t.Fatalf("content %x, err %v; want %x", got, err, tc.want)
				}
				// A read crossing the end: the prefix and io.EOF; one at
				// the end: nothing and io.EOF.
				p := make([]byte, 16)
				n, err := v.ReadAt(p, int64(len(tc.want))-4)
				if n != 4 || err != io.EOF || !bytes.Equal(p[:4], tc.want[len(tc.want)-4:]) {
					t.Errorf("read across the end: %d bytes %x, err %v", n, p[:n], err)
				}
				if n, err := v.ReadAt(p, int64(len(tc.want))); n != 0 || err != io.EOF {
					t.Errorf("read at the end: %d bytes, err %v", n, err)
				}
			})
		}
	}
}

// TestMemBlobNeverAliases: neither the slice a MemBlob was seeded from nor
// one Bytes returned shares memory with the blob, before or after it grows.
func TestMemBlobNeverAliases(t *testing.T) {
	src := make([]byte, 4, 256) // room a careless append would grow into
	copy(src, "seed")
	b := NewMemBlobBytes(src)
	if _, err := b.WriteAt([]byte("tail"), 100); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(src[:104][4:], make([]byte, 100)) {
		t.Fatal("blob growth wrote into the seed slice's spare capacity")
	}
	copy(src, "XXXX")
	snap := b.Bytes()
	if string(snap[:4]) != "seed" || string(snap[100:]) != "tail" {
		t.Fatalf("blob content %q follows the caller's slice", snap)
	}
	if _, err := b.WriteAt([]byte("more"), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := b.WriteAt([]byte("grow"), 4096); err != nil {
		t.Fatal(err)
	}
	if string(snap[:4]) != "seed" {
		t.Fatal("a write to the blob changed an earlier Bytes() result")
	}
	copy(snap, "YYYY")
	if got := b.Bytes(); string(got[:4]) != "more" {
		t.Fatalf("a write to a Bytes() result changed the blob: %q", got[:4])
	}
}

// TestMemBlobAppendAllocs: appending to a MemBlob costs the bytes appended —
// ten thousand small appends reallocate a few dozen times, not once each.
func TestMemBlobAppendAllocs(t *testing.T) {
	rec := make([]byte, 64)
	n := testing.AllocsPerRun(1, func() {
		b := NewMemBlob()
		for i := int64(0); i < 10000; i++ {
			if _, err := b.WriteAt(rec, i*64); err != nil {
				t.Fatal(err)
			}
		}
	})
	if n > 64 {
		t.Errorf("10000 64-byte appends: %v allocations, want at most 64", n)
	}
}

// BenchmarkMemBlobAppend appends 64-byte records to a blob already holding
// the given size; the two sizes costing the same is the point.
func BenchmarkMemBlobAppend(b *testing.B) {
	for _, tc := range []struct {
		name string
		size int64
	}{{"64KiB", 64 << 10}, {"1MiB", 1 << 20}} {
		b.Run(tc.name, func(b *testing.B) {
			rec := make([]byte, 64)
			blob := NewMemBlobBytes(make([]byte, tc.size))
			b.SetBytes(int64(len(rec)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Back to the starting size every 1024 records, as a
				// compaction would, so b.N does not set the blob's size.
				if i%1024 == 0 {
					if err := blob.Truncate(tc.size); err != nil {
						b.Fatal(err)
					}
				}
				if _, err := blob.WriteAt(rec, tc.size+int64(i%1024)*64); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestMemBlobChunks: a MemBlob reads as one flat byte run across its chunk
// boundaries. Random writes, reads and truncations — many straddling a
// boundary, some growing by several chunks at once, some shrinking into the
// middle of a chunk — leave the same bytes as a plain slice, with what a
// shrink drops reading zero once regrown; Truncate(0) drops every chunk.
func TestMemBlobChunks(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	b, model := NewMemBlob(), []byte(nil)
	near := func() int64 { // an offset within a few bytes of a chunk boundary
		return int64(rng.Intn(5))*memChunk + int64(rng.Intn(64)) - 32
	}
	for step := 0; step < 2000; step++ {
		at := max(0, near())
		switch rng.Intn(4) {
		case 0, 1:
			p := make([]byte, rng.Intn(3*memChunk/2))
			rng.Read(p)
			if _, err := b.WriteAt(p, at); err != nil {
				t.Fatal(err)
			}
			if end := at + int64(len(p)); end > int64(len(model)) {
				model = append(model, make([]byte, end-int64(len(model)))...)
			}
			copy(model[at:], p)
		case 2:
			if err := b.Truncate(at); err != nil {
				t.Fatal(err)
			}
			if at <= int64(len(model)) {
				model = model[:at]
			} else {
				model = append(model, make([]byte, at-int64(len(model)))...)
			}
		case 3:
			p := make([]byte, 1+rng.Intn(2*memChunk))
			n, err := b.ReadAt(p, at)
			want := []byte(nil)
			if at < int64(len(model)) {
				want = model[at:min(int64(len(model)), at+int64(len(p)))]
			}
			if n != len(want) || !bytes.Equal(p[:n], want) || (n < len(p)) != (err == io.EOF) {
				t.Fatalf("step %d: read of %d at %d: %d bytes, err %v; want %d", step, len(p), at, n, err, len(want))
			}
		}
		if size, _ := b.Size(); size != int64(len(model)) {
			t.Fatalf("step %d: size %d, want %d", step, size, len(model))
		}
	}
	if !bytes.Equal(b.Bytes(), model) {
		t.Fatal("content differs from the model")
	}
	if err := b.Truncate(0); err != nil || len(b.chunks) != 0 || cap(b.chunks) != 0 {
		t.Fatalf("Truncate(0): %v, %d chunks left", err, len(b.chunks))
	}
}
