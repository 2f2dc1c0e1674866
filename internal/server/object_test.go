package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/oiraid/oiraid/internal/bibd"
	"github.com/oiraid/oiraid/internal/core"
	"github.com/oiraid/oiraid/internal/engine"
	"github.com/oiraid/oiraid/internal/layout"
	"github.com/oiraid/oiraid/internal/object"
	"github.com/oiraid/oiraid/internal/store"
)

// newObjectTestServer is newTestServer with the bucket/object plane
// mounted over the engine.
func newObjectTestServer(t testing.TB) (*Server, *Client) {
	t.Helper()
	d, err := bibd.ForArray(9)
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
	arr, err := store.NewMemArray(an, 2, testStrip)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engine.New(arr, engine.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	objs, err := object.New(eng, object.Options{ChunkBytes: 4 * testStrip})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(eng, Options{RequestTimeout: 10 * time.Second, Objects: objs})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		eng.Close()
	})
	return srv, NewClient(ts.URL)
}

func objectPayload(seed int64, n int) []byte {
	p := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(p)
	return p
}

// writeCounter is a ResponseWriter that counts the Writes reaching it.
type writeCounter struct {
	*httptest.ResponseRecorder
	writes int
}

func (w *writeCounter) Write(p []byte) (int, error) {
	w.writes++
	return w.ResponseRecorder.Write(p)
}

// TestObjectGetStreams: an object GET reaches the ResponseWriter chunk by
// chunk as the strips are read — the 200 is committed before the last one
// is — instead of being buffered whole by the handler stack.
func TestObjectGetStreams(t *testing.T) {
	srv, c := newObjectTestServer(t)
	if err := c.MakeBucketCtx(context.Background(), "stream"); err != nil {
		t.Fatal(err)
	}
	want := objectPayload(31, 12*testStrip) // three 4-strip chunks
	if _, err := c.PutObject("stream", "k", bytes.NewReader(want), int64(len(want)), nil); err != nil {
		t.Fatal(err)
	}
	w := &writeCounter{ResponseRecorder: httptest.NewRecorder()}
	srv.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/buckets/stream/objects/k", nil))
	if w.Code != http.StatusOK || !bytes.Equal(w.Body.Bytes(), want) {
		t.Fatalf("GET: status %d, %d bytes", w.Code, w.Body.Len())
	}
	if w.writes < 2 {
		t.Errorf("a %d-strip GET reached the ResponseWriter in %d Write, want one per chunk", len(want)/testStrip, w.writes)
	}
}

// TestObjectLifecycleHTTP is the end-to-end acceptance path: create a
// bucket, multipart-PUT an object spanning well over 64 strips with a
// disk failed between parts, read it back bit-identically through the
// degraded path, exercise the conditional GET, walk a paginated LIST,
// and delete everything.
func TestObjectLifecycleHTTP(t *testing.T) {
	_, c := newObjectTestServer(t)

	if err := c.MakeBucketCtx(context.Background(), "photos"); err != nil {
		t.Fatal(err)
	}
	if err := c.MakeBucketCtx(context.Background(), "photos"); !errors.Is(err, object.ErrBucketExists) {
		t.Fatalf("duplicate bucket: want ErrBucketExists, got %v", err)
	}

	// 70 strips + change: comfortably past the 64-strip bar.
	data := objectPayload(42, 70*testStrip+33)
	parts := [][]byte{
		data[: 30*testStrip : 30*testStrip],
		data[30*testStrip : 55*testStrip : 55*testStrip],
		data[55*testStrip:],
	}

	id, err := c.CreateUploadCtx(context.Background(), "photos", "big/blob.bin", map[string]string{"origin": "lifecycle-test"})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range parts {
		if i == 1 {
			// Lose a disk mid-upload: the remaining parts land
			// degraded and every read below reconstructs.
			if err := c.FailDiskCtx(context.Background(), 2); err != nil {
				t.Fatal(err)
			}
		}
		pi, err := c.UploadPartCtx(context.Background(), "photos", "big/blob.bin", id, i+1, bytes.NewReader(p), int64(len(p)))
		if err != nil {
			t.Fatalf("part %d: %v", i+1, err)
		}
		if pi.Size != int64(len(p)) {
			t.Fatalf("part %d size: got %d want %d", i+1, pi.Size, len(p))
		}
	}
	info, err := c.CompleteUploadCtx(context.Background(), "photos", "big/blob.bin", id)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size != int64(len(data)) {
		t.Fatalf("completed size: got %d want %d", info.Size, len(data))
	}

	// Degraded read must be bit-identical.
	var got bytes.Buffer
	ginfo, err := c.GetObject("photos", "big/blob.bin", &got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), data) {
		t.Fatal("degraded GET differs from what was PUT")
	}
	if ginfo.ETag != info.ETag {
		t.Fatalf("etag: GET %q vs complete %q", ginfo.ETag, info.ETag)
	}
	if ginfo.UserMeta["origin"] != "lifecycle-test" {
		t.Fatalf("user metadata lost: %v", ginfo.UserMeta)
	}

	// Conditional GET: matching ETag short-circuits with no body.
	var none bytes.Buffer
	_, notModified, err := c.GetObjectCond(t.Context(), "photos", "big/blob.bin", info.ETag, &none)
	if err != nil {
		t.Fatal(err)
	}
	if !notModified || none.Len() != 0 {
		t.Fatalf("conditional GET: notModified=%v, body=%d bytes", notModified, none.Len())
	}
	// A stale ETag serves the full body.
	var full bytes.Buffer
	_, notModified, err = c.GetObjectCond(t.Context(), "photos", "big/blob.bin", "stale", &full)
	if err != nil {
		t.Fatal(err)
	}
	if notModified || !bytes.Equal(full.Bytes(), data) {
		t.Fatal("stale-ETag conditional GET did not serve the object")
	}

	// Paginated LIST: small companion objects, walked page by page.
	want := []string{"big/blob.bin"}
	for _, k := range []string{"idx/a", "idx/b", "idx/c"} {
		if _, err := c.PutObject("photos", k, bytes.NewReader([]byte(k)), int64(len(k)), nil); err != nil {
			t.Fatal(err)
		}
		want = append(want, k)
	}
	sort.Strings(want)
	var keys []string
	after := ""
	pages := 0
	for {
		page, err := c.ListObjectsCtx(context.Background(), "photos", "", after, 2)
		if err != nil {
			t.Fatal(err)
		}
		if len(page.Objects) > 2 {
			t.Fatalf("page holds %d objects, max was 2", len(page.Objects))
		}
		for _, o := range page.Objects {
			keys = append(keys, o.Key)
		}
		pages++
		if !page.Truncated {
			break
		}
		after = page.NextAfter
	}
	if pages < 2 {
		t.Fatalf("LIST of %d objects with max=2 took %d page(s)", len(want), pages)
	}
	if len(keys) != len(want) {
		t.Fatalf("LIST keys: got %v want %v", keys, want)
	}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("LIST keys: got %v want %v", keys, want)
		}
	}
	// Prefix listing narrows to the index objects.
	page, err := c.ListObjectsCtx(context.Background(), "photos", "idx/", "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Objects) != 3 {
		t.Fatalf("prefix LIST: got %d objects, want 3", len(page.Objects))
	}

	// Teardown: delete everything, then the bucket.
	for _, k := range want {
		if err := c.RemoveObjectCtx(context.Background(), "photos", k); err != nil {
			t.Fatalf("rm %s: %v", k, err)
		}
	}
	if _, err := c.StatObjectCtx(context.Background(), "photos", "big/blob.bin"); !errors.Is(err, object.ErrNoSuchObject) {
		t.Fatalf("stat after delete: want ErrNoSuchObject, got %v", err)
	}
	// A missing key whose text spells another sentinel's message still
	// comes back as ErrNoSuchObject: the client decodes the error code,
	// never the body.
	for _, k := range []string{store.ErrStripOutOfRange.Error(), store.ErrDiskFaulty.Error()} {
		if _, err := c.GetObject("photos", k, io.Discard); !errors.Is(err, object.ErrNoSuchObject) || errors.Is(err, store.ErrStripOutOfRange) || errors.Is(err, store.ErrDiskFaulty) {
			t.Fatalf("GET missing %q: want ErrNoSuchObject alone, got %v", k, err)
		}
		if err := c.RemoveObjectCtx(context.Background(), "photos", k); !errors.Is(err, object.ErrNoSuchObject) || errors.Is(err, store.ErrStripOutOfRange) || errors.Is(err, store.ErrDiskFaulty) {
			t.Fatalf("DELETE missing %q: want ErrNoSuchObject alone, got %v", k, err)
		}
		if _, err := c.StatObjectCtx(context.Background(), "photos", k); !errors.Is(err, object.ErrNoSuchObject) {
			t.Fatalf("HEAD missing %q: want ErrNoSuchObject, got %v", k, err)
		}
	}
	if err := c.RemoveBucketCtx(context.Background(), "photos"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.GetObject("photos", "x", io.Discard); !errors.Is(err, object.ErrNoSuchBucket) {
		t.Fatalf("get after bucket delete: want ErrNoSuchBucket, got %v", err)
	}
}

// TestObjectHTTPBasics covers the single-shot PUT path, HEAD, bucket
// listing, and sentinel mapping through the HTTP plane.
func TestObjectHTTPBasics(t *testing.T) {
	_, c := newObjectTestServer(t)

	if _, err := c.PutObject("nope", "k", bytes.NewReader([]byte("x")), 1, nil); !errors.Is(err, object.ErrNoSuchBucket) {
		t.Fatalf("put into missing bucket: want ErrNoSuchBucket, got %v", err)
	}
	if err := c.MakeBucketCtx(context.Background(), "docs"); err != nil {
		t.Fatal(err)
	}

	data := objectPayload(7, 3*testStrip+11)
	info, err := c.PutObject("docs", "readme", bytes.NewReader(data), int64(len(data)),
		map[string]string{"lang": "en"})
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.StatObjectCtx(context.Background(), "docs", "readme")
	if err != nil {
		t.Fatal(err)
	}
	if st.Size != int64(len(data)) || st.ETag != info.ETag || st.UserMeta["lang"] != "en" {
		t.Fatalf("stat mismatch: %+v vs put %+v", st, info)
	}

	bs, err := c.ListBucketsCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(bs) != 1 || bs[0].Name != "docs" || bs[0].Objects != 1 {
		t.Fatalf("bucket listing: %+v", bs)
	}

	if err := c.RemoveBucketCtx(context.Background(), "docs"); !errors.Is(err, object.ErrBucketNotEmpty) {
		t.Fatalf("rm non-empty bucket: want ErrBucketNotEmpty, got %v", err)
	}
	if err := c.RemoveObjectCtx(context.Background(), "docs", "gone"); !errors.Is(err, object.ErrNoSuchObject) {
		t.Fatalf("rm missing object: want ErrNoSuchObject, got %v", err)
	}
	if _, err := c.PutObject("docs", "", bytes.NewReader(nil), 0, nil); !errors.Is(err, object.ErrBadName) {
		t.Fatalf("empty key: want ErrBadName, got %v", err)
	}
}

// trackingReader counts the bytes drained from the wrapped reader, to
// prove the client buffers a small body once and never re-reads it.
type trackingReader struct {
	r    io.Reader
	read int64
}

func (t *trackingReader) Read(p []byte) (int, error) {
	n, err := t.r.Read(p)
	t.read += int64(n)
	return n, err
}

// TestPutRetrySafety: small bodies are buffered and retried through the
// normal backoff loop without touching the source reader again; bodies
// past the buffering ceiling get exactly one attempt and surface
// ErrNonRetryable on retryable-class failures.
func TestPutRetrySafety(t *testing.T) {
	var attempts atomic.Int32
	var lastLen atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		lastLen.Store(int64(len(body)))
		if attempts.Add(1) == 1 {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(object.Info{Bucket: "b", Key: "k", Size: int64(len(body)), ETag: "t"})
	}))
	defer ts.Close()

	c := NewClientWithOptions(ts.URL, ClientOptions{
		MaxRetries: 3, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond,
	})
	src := &trackingReader{r: bytes.NewReader([]byte("hello"))}
	info, err := c.PutObject("b", "k", src, 5, nil)
	if err != nil {
		t.Fatalf("buffered PUT should retry past a 503: %v", err)
	}
	if got := attempts.Load(); got != 2 {
		t.Fatalf("attempts: got %d want 2", got)
	}
	if src.read != 5 {
		t.Fatalf("source reader drained %d bytes; must be read exactly once (5)", src.read)
	}
	if lastLen.Load() != 5 || info.Size != 5 {
		t.Fatalf("retried body mangled: server saw %d bytes, info %+v", lastLen.Load(), info)
	}

	// A streaming body (too big to buffer) must not be replayed.
	var streamAttempts atomic.Int32
	ts503 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		streamAttempts.Add(1)
		io.Copy(io.Discard, r.Body)
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer ts503.Close()

	c2 := NewClientWithOptions(ts503.URL, ClientOptions{
		MaxRetries: 3, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond,
	})
	big := int64(maxBufferedPut + 1)
	_, err = c2.PutObject("b", "k", io.LimitReader(neverEnding{}, big), big, nil)
	if !errors.Is(err, ErrNonRetryable) {
		t.Fatalf("streaming PUT past a 503: want ErrNonRetryable, got %v", err)
	}
	if got := streamAttempts.Load(); got != 1 {
		t.Fatalf("streaming PUT was attempted %d times; must be exactly 1", got)
	}
}

// TestPutSeekableBodyReplayed: a body that can be re-read in place is sent
// from where the reader stands, with no copy and no size ceiling, every
// attempt reading it afresh — the shed first attempt may still be reading
// it when the second starts, which -race would report if they shared a
// cursor; one that holds fewer bytes than declared is refused before
// anything is sent.
func TestPutSeekableBodyReplayed(t *testing.T) {
	var attempts atomic.Int32
	var stored []byte
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.ContentLength < 0 { // as putObject does
			http.Error(w, "object PUT requires Content-Length", http.StatusLengthRequired)
			return
		}
		if attempts.Add(1) == 1 {
			// Shed the first attempt with half of its body consumed.
			io.CopyN(io.Discard, r.Body, r.ContentLength/2)
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		stored, _ = io.ReadAll(r.Body)
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(object.Info{Bucket: "b", Key: "k", Size: int64(len(stored)), ETag: "t"})
	}))
	defer ts.Close()
	c := NewClientWithOptions(ts.URL, ClientOptions{
		MaxRetries: 3, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond,
	})

	// 9 MiB is past the buffering ceiling; the reader stands 3 bytes in
	// and holds 2 bytes more than the object.
	data := objectPayload(9, 9<<20+5)
	src := bytes.NewReader(data)
	src.Seek(3, io.SeekStart)
	info, err := c.PutObject("b", "k", src, 9<<20, nil)
	if err != nil {
		t.Fatalf("seekable 9 MiB PUT past a 503: %v", err)
	}
	if got := attempts.Load(); got != 2 {
		t.Fatalf("attempts: got %d want 2", got)
	}
	if info.Size != 9<<20 || !bytes.Equal(stored, data[3:3+9<<20]) {
		t.Fatalf("replayed body mangled: server stored %d bytes, info %+v", len(stored), info)
	}
	if src.Len() != 2 {
		t.Fatalf("reader left %d bytes from its end, want 2: it must stand where reading the object would leave it", src.Len())
	}

	attempts.Store(1)
	if info, err := c.PutObject("b", "k", bytes.NewReader(nil), 0, nil); err != nil || info.Size != 0 || len(stored) != 0 {
		t.Fatalf("empty seekable PUT: info %+v, %d bytes stored, err %v", info, len(stored), err)
	}

	before := attempts.Load()
	if _, err := c.PutObject("b", "k", bytes.NewReader(data[:100]), 101, nil); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("seekable body one byte short: got %v, want io.ErrUnexpectedEOF", err)
	}
	if got := attempts.Load(); got != before {
		t.Fatalf("a short seekable body was sent (%d requests)", got-before)
	}
}

// TestPutEmptySeekableBody: a zero-byte object or part from a reader that
// could be re-read in place goes out with Content-Length 0, not chunked —
// the real server refuses a PUT of unknown length with 411.
func TestPutEmptySeekableBody(t *testing.T) {
	_, c := newObjectTestServer(t)
	if err := c.MakeBucketCtx(context.Background(), "empties"); err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(filepath.Join(t.TempDir(), "empty"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for name, r := range map[string]io.Reader{"bytes.Reader": bytes.NewReader(nil), "strings.Reader": strings.NewReader(""), "os.File": f} {
		info, err := c.PutObject("empties", name, r, 0, nil)
		if err != nil || info.Size != 0 {
			t.Fatalf("empty PUT from %s: info %+v, err %v", name, info, err)
		}
		var got bytes.Buffer
		if _, err := c.GetObject("empties", name, &got); err != nil || got.Len() != 0 {
			t.Fatalf("empty object from %s read back %d bytes, err %v", name, got.Len(), err)
		}
	}

	id, err := c.CreateUploadCtx(context.Background(), "empties", "parts", nil)
	if err != nil {
		t.Fatal(err)
	}
	data := objectPayload(11, 3*testStrip)
	if _, err := c.UploadPartCtx(context.Background(), "empties", "parts", id, 1, bytes.NewReader(data), int64(len(data))); err != nil {
		t.Fatal(err)
	}
	if _, err := c.UploadPartCtx(context.Background(), "empties", "parts", id, 2, bytes.NewReader(nil), 0); err != nil {
		t.Fatalf("empty part: %v", err)
	}
	if _, err := c.CompleteUploadCtx(context.Background(), "empties", "parts", id); err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if _, err := c.GetObject("empties", "parts", &got); err != nil || !bytes.Equal(got.Bytes(), data) {
		t.Fatalf("object with an empty last part: %d bytes, err %v", got.Len(), err)
	}
}

// neverEnding is an infinite zero-filled reader (streamed, never
// materialised).
type neverEnding struct{}

func (neverEnding) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = 0
	}
	return len(p), nil
}

// TestMultipartAbortHTTP: aborting an upload over HTTP frees every part's
// strips — the object plane's fsck is clean and back at its baseline —
// and the id is gone for good: completing or aborting it again, or
// aborting an id never issued, answers ErrNoSuchUpload.
func TestMultipartAbortHTTP(t *testing.T) {
	srv, c := newObjectTestServer(t)
	if err := c.MakeBucketCtx(context.Background(), "mpu"); err != nil {
		t.Fatal(err)
	}
	keep := objectPayload(7, 3*testStrip)
	if _, err := c.PutObject("mpu", "keep", bytes.NewReader(keep), int64(len(keep)), nil); err != nil {
		t.Fatal(err)
	}
	objs := srv.opts.Objects
	base := objs.Fsck()

	id, err := c.CreateUploadCtx(context.Background(), "mpu", "dead", nil)
	if err != nil {
		t.Fatal(err)
	}
	for part := 1; part <= 3; part++ {
		p := objectPayload(int64(part), 5*testStrip)
		if _, err := c.UploadPartCtx(context.Background(), "mpu", "dead", id, part, bytes.NewReader(p), int64(len(p))); err != nil {
			t.Fatalf("part %d: %v", part, err)
		}
	}
	if rep := objs.Fsck(); rep.Uploads != 1 || rep.Used <= base.Used {
		t.Fatalf("parts not staged: %+v (baseline %+v)", rep, base)
	}
	if err := c.AbortUploadCtx(context.Background(), "mpu", "dead", id); err != nil {
		t.Fatal(err)
	}
	if rep := objs.Fsck(); !rep.Clean || rep.Uploads != 0 || rep.Used != base.Used {
		t.Fatalf("fsck after abort: %+v, baseline %+v", rep, base)
	}
	if _, err := c.CompleteUploadCtx(context.Background(), "mpu", "dead", id); !errors.Is(err, object.ErrNoSuchUpload) {
		t.Fatalf("complete after abort: want ErrNoSuchUpload, got %v", err)
	}
	if err := c.AbortUploadCtx(context.Background(), "mpu", "dead", id); !errors.Is(err, object.ErrNoSuchUpload) {
		t.Fatalf("second abort: want ErrNoSuchUpload, got %v", err)
	}
	if err := c.AbortUploadCtx(context.Background(), "mpu", "dead", "no-such-id"); !errors.Is(err, object.ErrNoSuchUpload) {
		t.Fatalf("abort of unknown id: want ErrNoSuchUpload, got %v", err)
	}
	var got bytes.Buffer
	if _, err := c.GetObject("mpu", "keep", &got); err != nil || !bytes.Equal(got.Bytes(), keep) {
		t.Fatalf("object beside the aborted upload: %v", err)
	}
}
