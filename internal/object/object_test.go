package object

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"strings"
	"testing"

	"github.com/oiraid/oiraid/internal/bibd"
	"github.com/oiraid/oiraid/internal/core"
	"github.com/oiraid/oiraid/internal/engine"
	"github.com/oiraid/oiraid/internal/layout"
	"github.com/oiraid/oiraid/internal/store"
)

const testStrip = 256

func newAnalyzer(t testing.TB, v int) *core.Analyzer {
	t.Helper()
	d, err := bibd.ForArray(v)
	if err != nil {
		t.Fatal(err)
	}
	sch, err := layout.NewOIRAID(d)
	if err != nil {
		t.Fatal(err)
	}
	an, err := core.NewAnalyzer(sch)
	if err != nil {
		t.Fatal(err)
	}
	return an
}

func newTestStore(t testing.TB, cycles int64) (*Store, *engine.Engine) {
	t.Helper()
	arr, err := store.NewMemArray(newAnalyzer(t, 9), cycles, testStrip)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engine.New(arr, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	s, err := New(eng, Options{ChunkBytes: 4 * testStrip})
	if err != nil {
		t.Fatal(err)
	}
	return s, eng
}

func payload(seed int64, n int) []byte {
	p := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(p)
	return p
}

func mustPut(t *testing.T, s *Store, bucket, key string, data []byte) Info {
	t.Helper()
	info, err := s.PutObject(context.Background(), bucket, key, bytes.NewReader(data), int64(len(data)), nil)
	if err != nil {
		t.Fatalf("put %s/%s: %v", bucket, key, err)
	}
	return info
}

func mustGet(t *testing.T, s *Store, bucket, key string) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := s.GetObject(context.Background(), bucket, key, &buf); err != nil {
		t.Fatalf("get %s/%s: %v", bucket, key, err)
	}
	return buf.Bytes()
}

// TestObjectLifecycle: create bucket, PUT objects of assorted sizes
// (empty, sub-strip, strip-aligned, multi-strip), read them back
// bit-identical, stat, delete, and confirm the allocator drains back
// to empty.
func TestObjectLifecycle(t *testing.T) {
	s, _ := newTestStore(t, 2)
	ctx := context.Background()
	if err := s.CreateBucket(ctx, "photos"); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateBucket(ctx, "photos"); !errors.Is(err, ErrBucketExists) {
		t.Fatalf("duplicate bucket: %v", err)
	}
	sizes := []int{0, 1, testStrip - 1, testStrip, testStrip + 1, 5 * testStrip, 5*testStrip + 17}
	for i, n := range sizes {
		key := fmt.Sprintf("img/%03d.bin", i)
		data := payload(int64(i), n)
		info := mustPut(t, s, "photos", key, data)
		if info.Size != int64(n) {
			t.Fatalf("put size %d, want %d", info.Size, n)
		}
		got := mustGet(t, s, "photos", key)
		if !bytes.Equal(got, data) {
			t.Fatalf("object %s: read back %d bytes differ", key, n)
		}
		st, err := s.StatObject(ctx, "photos", key)
		if err != nil || st.ETag != info.ETag || st.Size != int64(n) {
			t.Fatalf("stat %s: %+v, %v", key, st, err)
		}
	}
	if rep := s.Fsck(); !rep.Clean || rep.Objects != len(sizes) {
		t.Fatalf("fsck after puts: %+v", rep)
	}
	if err := s.DeleteBucket(ctx, "photos"); !errors.Is(err, ErrBucketNotEmpty) {
		t.Fatalf("delete non-empty bucket: %v", err)
	}
	for i := range sizes {
		if err := s.DeleteObject(ctx, "photos", fmt.Sprintf("img/%03d.bin", i)); err != nil {
			t.Fatal(err)
		}
	}
	if rep := s.Fsck(); !rep.Clean || rep.Used != 0 {
		t.Fatalf("fsck after deletes: %+v", rep)
	}
	if err := s.DeleteBucket(ctx, "photos"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.StatObject(ctx, "photos", "img/000.bin"); !errors.Is(err, ErrNoSuchBucket) {
		t.Fatalf("stat in deleted bucket: %v", err)
	}
}

// TestObjectOverwrite: an overwrite swaps generations atomically and
// returns the old generation's strips to the pool.
func TestObjectOverwrite(t *testing.T) {
	s, _ := newTestStore(t, 2)
	ctx := context.Background()
	if err := s.CreateBucket(ctx, "b-1"); err != nil {
		t.Fatal(err)
	}
	old := payload(1, 7*testStrip)
	newer := payload(2, 3*testStrip+9)
	first := mustPut(t, s, "b-1", "k", old)
	second := mustPut(t, s, "b-1", "k", newer)
	if !second.Created.Equal(first.Created) {
		t.Error("overwrite did not preserve creation time")
	}
	if got := mustGet(t, s, "b-1", "k"); !bytes.Equal(got, newer) {
		t.Fatal("overwritten object returned stale content")
	}
	if rep := s.Fsck(); !rep.Clean || rep.Used != 4 {
		t.Fatalf("fsck after overwrite: %+v (want 4 used strips)", rep)
	}
}

// TestObjectRemount: objects persist across journal remount — a second
// Store over the same journal and array sees identical state.
func TestObjectRemount(t *testing.T) {
	s, eng := newTestStore(t, 2)
	ctx := context.Background()
	if err := s.CreateBucket(ctx, "logs"); err != nil {
		t.Fatal(err)
	}
	data := payload(3, 9*testStrip+5)
	mustPut(t, s, "logs", "a/b/c", data)

	s2, err := New(eng, Options{Journal: s.jn})
	if err != nil {
		t.Fatal(err)
	}
	if got := mustGet(t, s2, "logs", "a/b/c"); !bytes.Equal(got, data) {
		t.Fatal("remounted store lost object content")
	}
	if rep := s2.Fsck(); !rep.Clean || rep.Objects != 1 {
		t.Fatalf("fsck after remount: %+v", rep)
	}
}

// TestObjectRemountBesideCoordinatorRecords: a cluster coordinator keeps
// its manifest and migration records in the same journal; the object
// plane remounts over them and leaves them alone.
func TestObjectRemountBesideCoordinatorRecords(t *testing.T) {
	s, eng := newTestStore(t, 2)
	if err := s.CreateBucket(context.Background(), "logs"); err != nil {
		t.Fatal(err)
	}
	data := payload(4, testStrip)
	mustPut(t, s, "logs", "k", data)
	for _, key := range []string{"cluster/manifest", "migrate/03"} {
		if err := s.jn.PutKV(key, []byte(`{}`), true); err != nil {
			t.Fatal(err)
		}
	}
	s2, err := New(eng, Options{Journal: s.jn})
	if err != nil {
		t.Fatalf("remount beside coordinator records: %v", err)
	}
	if got := mustGet(t, s2, "logs", "k"); !bytes.Equal(got, data) {
		t.Fatal("remounted store lost object content")
	}
	if _, ok := s.jn.GetKV("migrate/03"); !ok {
		t.Fatal("the object plane dropped a coordinator record")
	}
}

// TestObjectDegradedRead: objects stay readable bit-identical with a
// failed disk — the engine reconstructs underneath the object plane.
func TestObjectDegradedRead(t *testing.T) {
	s, eng := newTestStore(t, 2)
	ctx := context.Background()
	if err := s.CreateBucket(ctx, "vault"); err != nil {
		t.Fatal(err)
	}
	data := payload(4, 20*testStrip+100)
	mustPut(t, s, "vault", "blob", data)
	if err := eng.FailDisk(2); err != nil {
		t.Fatal(err)
	}
	if got := mustGet(t, s, "vault", "blob"); !bytes.Equal(got, data) {
		t.Fatal("degraded read differs")
	}
	// Writes land degraded too.
	data2 := payload(5, 6*testStrip)
	mustPut(t, s, "vault", "blob2", data2)
	if got := mustGet(t, s, "vault", "blob2"); !bytes.Equal(got, data2) {
		t.Fatal("degraded write/read differs")
	}
	_ = ctx
}

// TestMultipartLifecycle: upload parts (including a replaced part and
// unaligned sizes), complete, and read the assembly back bit-identical
// with an S3-style part-count ETag.
func TestMultipartLifecycle(t *testing.T) {
	s, _ := newTestStore(t, 2)
	ctx := context.Background()
	if err := s.CreateBucket(ctx, "mpb"); err != nil {
		t.Fatal(err)
	}
	id, err := s.CreateUpload(ctx, "mpb", "big", map[string]string{"origin": "test"})
	if err != nil {
		t.Fatal(err)
	}
	parts := [][]byte{
		payload(10, 3*testStrip+7), // unaligned: padding inside the object
		payload(11, 2*testStrip),
		payload(12, testStrip/2),
	}
	// Upload part 2 twice: the second upload must win.
	if _, err := s.UploadPart(ctx, "mpb", "big", id, 2, bytes.NewReader(payload(99, testStrip)), testStrip); err != nil {
		t.Fatal(err)
	}
	for i, p := range parts {
		if _, err := s.UploadPart(ctx, "mpb", "big", id, i+1, bytes.NewReader(p), int64(len(p))); err != nil {
			t.Fatalf("part %d: %v", i+1, err)
		}
	}
	info, err := s.CompleteUpload(ctx, "mpb", "big", id)
	if err != nil {
		t.Fatal(err)
	}
	want := bytes.Join(parts, nil)
	if info.Size != int64(len(want)) || info.Parts != 3 || !strings.HasSuffix(info.ETag, "-3") {
		t.Fatalf("completed info %+v", info)
	}
	if got := mustGet(t, s, "mpb", "big"); !bytes.Equal(got, want) {
		t.Fatal("assembled object differs from concatenated parts")
	}
	if info.UserMeta["origin"] != "test" {
		t.Fatalf("user metadata lost: %+v", info.UserMeta)
	}
	if _, err := s.CompleteUpload(ctx, "mpb", "big", id); !errors.Is(err, ErrNoSuchUpload) {
		t.Fatalf("double complete: %v", err)
	}
	if rep := s.Fsck(); !rep.Clean || rep.Uploads != 0 {
		t.Fatalf("fsck after complete: %+v", rep)
	}
}

// TestMultipartAbort frees every part's strips.
func TestMultipartAbort(t *testing.T) {
	s, _ := newTestStore(t, 2)
	ctx := context.Background()
	if err := s.CreateBucket(ctx, "mpb"); err != nil {
		t.Fatal(err)
	}
	id, err := s.CreateUpload(ctx, "mpb", "dead", nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		p := payload(int64(i), 2*testStrip)
		if _, err := s.UploadPart(ctx, "mpb", "dead", id, i, bytes.NewReader(p), int64(len(p))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.AbortUpload(ctx, "mpb", "dead", id); err != nil {
		t.Fatal(err)
	}
	if rep := s.Fsck(); !rep.Clean || rep.Used != 0 {
		t.Fatalf("fsck after abort: %+v", rep)
	}
	if err := s.DeleteBucket(ctx, "mpb"); err != nil {
		t.Fatal(err)
	}
}

// TestPutShortReader: a reader that ends early must fail the PUT,
// leave the object invisible, and leak no strips.
func TestPutShortReader(t *testing.T) {
	s, _ := newTestStore(t, 2)
	ctx := context.Background()
	if err := s.CreateBucket(ctx, "b-x"); err != nil {
		t.Fatal(err)
	}
	_, err := s.PutObject(ctx, "b-x", "short", bytes.NewReader(make([]byte, 10)), 5*testStrip, nil)
	if err == nil {
		t.Fatal("short reader did not fail the PUT")
	}
	if _, err := s.StatObject(ctx, "b-x", "short"); !errors.Is(err, ErrNoSuchObject) {
		t.Fatalf("failed PUT left object visible: %v", err)
	}
	if rep := s.Fsck(); !rep.Clean || rep.Used != 0 {
		t.Fatalf("fsck after failed PUT: %+v", rep)
	}
}

// TestNoSpace: a PUT beyond capacity fails with ErrNoSpace and leaves
// the pool intact.
func TestNoSpace(t *testing.T) {
	s, eng := newTestStore(t, 1)
	ctx := context.Background()
	if err := s.CreateBucket(ctx, "b-x"); err != nil {
		t.Fatal(err)
	}
	huge := eng.Capacity() + int64(testStrip)
	_, err := s.PutObject(ctx, "b-x", "huge", io.LimitReader(neverEnding{}, huge), huge, nil)
	if !errors.Is(err, ErrNoSpace) {
		t.Fatalf("oversized PUT: %v", err)
	}
	if rep := s.Fsck(); !rep.Clean || rep.Used != 0 {
		t.Fatalf("fsck after ErrNoSpace: %+v", rep)
	}
}

type neverEnding struct{}

func (neverEnding) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = 0xAB
	}
	return len(p), nil
}

// TestGetPinsStrips: a DELETE racing a slow GET must not recycle the
// reader's strips — the read completes bit-identical from pinned
// extents, and the strips are freed afterwards.
func TestGetPinsStrips(t *testing.T) {
	s, _ := newTestStore(t, 2)
	ctx := context.Background()
	if err := s.CreateBucket(ctx, "b-x"); err != nil {
		t.Fatal(err)
	}
	data := payload(6, 8*testStrip)
	mustPut(t, s, "b-x", "victim", data)

	started := make(chan struct{})
	unblock := make(chan struct{})
	var got bytes.Buffer
	errc := make(chan error, 1)
	go func() {
		_, err := s.GetObject(ctx, "b-x", "victim", &gateWriter{w: &got, started: started, unblock: unblock})
		errc <- err
	}()
	<-started
	if err := s.DeleteObject(ctx, "b-x", "victim"); err != nil {
		t.Fatal(err)
	}
	// While the reader is mid-stream its strips must stay allocated.
	if rep := s.Fsck(); !rep.Clean {
		t.Fatalf("fsck with pinned reader: %+v", rep)
	}
	close(unblock)
	if err := <-errc; err != nil {
		t.Fatalf("pinned read failed: %v", err)
	}
	if !bytes.Equal(got.Bytes(), data) {
		t.Fatal("pinned read returned torn content")
	}
	if rep := s.Fsck(); !rep.Clean || rep.Used != 0 {
		t.Fatalf("fsck after unpin: %+v", rep)
	}
}

type gateWriter struct {
	w       io.Writer
	started chan struct{}
	unblock chan struct{}
	once    bool
}

func (g *gateWriter) Write(p []byte) (int, error) {
	if !g.once {
		g.once = true
		close(g.started)
		<-g.unblock
	}
	return g.w.Write(p)
}

// TestAllocatorReuse: freed strips are reused; the allocator prefers
// contiguity but survives fragmentation.
func TestAllocatorReuse(t *testing.T) {
	a := newAllocator(64)
	r1, err := a.alloc(10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.alloc(54); err != nil {
		t.Fatal(err)
	}
	if _, err := a.alloc(1); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("full allocator: %v", err)
	}
	for _, r := range r1 {
		a.release(r.start, r.n)
	}
	r2, err := a.alloc(10)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, r := range r2 {
		total += r.n
	}
	if total != 10 || a.free != 0 {
		t.Fatalf("reuse allocated %d strips, free %d", total, a.free)
	}
	if err := a.mark(r2[0].start, 1); !errors.Is(err, ErrMetaCorrupt) {
		t.Fatalf("double mark: %v", err)
	}
}

// TestCRCCombine: the CRC-32C of a buffer split anywhere into runs equals the
// runs' CRCs combined in order — empty runs, one-byte runs and runs longer
// than a strip among them — so an object's whole CRC from its extents' CRCs
// is the one a pass over every byte computes.
func TestCRCCombine(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	for trial := 0; trial < 200; trial++ {
		buf := make([]byte, rng.Intn(5000))
		rng.Read(buf)
		var whole uint32
		for rest := buf; ; {
			n := min(len(rest), rng.Intn(3)*rng.Intn(2000))
			whole = crcCombine(whole, crc32.Checksum(rest[:n], castagnoli), int64(n))
			if rest = rest[n:]; len(rest) == 0 {
				break
			}
		}
		if want := crc32.Checksum(buf, castagnoli); whole != want {
			t.Fatalf("trial %d: %d bytes combined to %08x, want %08x", trial, len(buf), whole, want)
		}
	}
}
