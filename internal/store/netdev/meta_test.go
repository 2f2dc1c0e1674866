package netdev

import (
	"bytes"
	"errors"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/oiraid/oiraid/internal/store"
)

func metaTestClient(t *testing.T, n *Node) *NodeClient {
	t.Helper()
	srv := httptest.NewServer(n.Handler())
	t.Cleanup(srv.Close)
	c := NewNodeClient(srv.URL, Options{Timeout: 5 * time.Second, MaxAttempts: 2})
	t.Cleanup(func() { c.Close() })
	return c
}

// TestMetaLeaseFencing drives the Paxos-style promise rule: a node
// grants strictly increasing epochs, re-grants the same epoch+holder
// idempotently, rejects anything at or below its promise, and renewals
// from a deposed holder fail with the stale-epoch sentinel.
func TestMetaLeaseFencing(t *testing.T) {
	c := metaTestClient(t, NewMemNode("n0"))

	if err := c.AcquireLease(3, "coordA"); err != nil {
		t.Fatalf("acquire epoch 3: %v", err)
	}
	// Idempotent re-ask (lost-ack replay) succeeds.
	if err := c.AcquireLease(3, "coordA"); err != nil {
		t.Fatalf("re-acquire epoch 3: %v", err)
	}
	// Same epoch, different holder: rejected.
	if err := c.AcquireLease(3, "coordB"); !errors.Is(err, store.ErrStaleEpoch) {
		t.Fatalf("epoch-3 steal: want ErrStaleEpoch, got %v", err)
	}
	// Lower epoch: rejected.
	if err := c.AcquireLease(2, "coordB"); !errors.Is(err, store.ErrStaleEpoch) {
		t.Fatalf("epoch-2 acquire: want ErrStaleEpoch, got %v", err)
	}
	if err := c.RenewLease(3, "coordA"); err != nil {
		t.Fatalf("renew: %v", err)
	}

	// Takeover: a higher epoch always wins.
	if err := c.AcquireLease(4, "coordB"); err != nil {
		t.Fatalf("takeover epoch 4: %v", err)
	}
	// The deposed holder's renewal now fails non-retryably.
	if err := c.RenewLease(3, "coordA"); !errors.Is(err, store.ErrStaleEpoch) {
		t.Fatalf("stale renew: want ErrStaleEpoch, got %v", err)
	}

	st, err := c.Stat()
	if err != nil {
		t.Fatalf("state: %v", err)
	}
	if st.Epoch != 4 || st.Holder != "coordB" {
		t.Fatalf("state = epoch %d holder %q, want 4/coordB", st.Epoch, st.Holder)
	}
	if st.RenewSeq == 0 {
		t.Fatalf("renew seq never advanced")
	}
}

// TestMetaBlobGenWipe checks the generation rule that makes replica
// merging sound: a write at a newer gen truncates the blob first (no
// bytes from an older stream can survive), and writes at an older gen
// are rejected with ErrStaleGen.
func TestMetaBlobGenWipe(t *testing.T) {
	c := metaTestClient(t, NewMemNode("n0"))
	fence := &FenceToken{}
	fence.Advance(1)
	c.SetFence(fence)
	journal := c.Blob("journal")

	old := []byte("old-stream-content-that-must-die")
	if _, err := journal.AtGen(1).WriteAt(old, 0); err != nil {
		t.Fatalf("gen-1 write: %v", err)
	}
	if err := journal.AtGen(1).Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}

	// A gen-2 write at a nonzero offset arrives at a replica that never
	// saw gen 2 open: the node must wipe before applying.
	tail := []byte("new")
	if _, err := journal.AtGen(2).WriteAt(tail, 8); err != nil {
		t.Fatalf("gen-2 write: %v", err)
	}
	got, gen, err := journal.ReadAll()
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if gen != 2 {
		t.Fatalf("gen = %d, want 2", gen)
	}
	want := append(make([]byte, 8), tail...)
	if !bytes.Equal(got, want) {
		t.Fatalf("blob = %q, want zeros+%q — old stream leaked through a gen bump", got, tail)
	}

	// Stale-gen writes are rejected and wrap both sentinels.
	_, err = journal.AtGen(1).WriteAt(old, 0)
	if !errors.Is(err, ErrStaleGen) || !errors.Is(err, store.ErrStaleEpoch) {
		t.Fatalf("gen-1 rewrite: want ErrStaleGen (wrapping ErrStaleEpoch), got %v", err)
	}

	// Truncate at a new gen opens an empty stream.
	if err := journal.AtGen(3).Truncate(0); err != nil {
		t.Fatalf("truncate gen 3: %v", err)
	}
	got, gen, err = journal.ReadAll()
	if err != nil {
		t.Fatalf("read after truncate: %v", err)
	}
	if gen != 3 || len(got) != 0 {
		t.Fatalf("after gen-3 truncate: gen %d, %d bytes; want 3, 0", gen, len(got))
	}
}

// TestMetaEpochFencesDataPlane proves the point of fencing: once a node
// promises a newer epoch, a deposed coordinator's strip and blob writes
// bounce with ErrStaleEpoch, while an unfenced (legacy) client and all
// reads keep working.
func TestMetaEpochFencesDataPlane(t *testing.T) {
	n := NewMemNode("n0")
	cOld := metaTestClient(t, n)

	fence := &FenceToken{}
	fence.Advance(1)
	cOld.SetFence(fence)

	dev, err := cOld.CreateDevice("d0", 8, 512)
	if err != nil {
		t.Fatalf("create device: %v", err)
	}
	strip := bytes.Repeat([]byte{0xAB}, 512)
	if err := dev.WriteStrip(0, strip); err != nil {
		t.Fatalf("fenced write at current epoch: %v", err)
	}
	blob, err := cOld.CreateBlob("meta")
	if err != nil {
		t.Fatalf("create blob: %v", err)
	}
	if _, err := blob.WriteAt([]byte("hello"), 0); err != nil {
		t.Fatalf("blob write: %v", err)
	}

	// A new coordinator takes over at epoch 2.
	if err := cOld.AcquireLease(2, "coordB"); err != nil {
		t.Fatalf("takeover: %v", err)
	}

	// The old coordinator (still stamping epoch 1) is now fenced off
	// from every mutation...
	if err := dev.WriteStrip(1, strip); !errors.Is(err, store.ErrStaleEpoch) {
		t.Fatalf("stale strip write: want ErrStaleEpoch, got %v", err)
	}
	if _, err := blob.WriteAt([]byte("x"), 0); !errors.Is(err, store.ErrStaleEpoch) {
		t.Fatalf("stale blob write: want ErrStaleEpoch, got %v", err)
	}
	if err := blob.Sync(); !errors.Is(err, store.ErrStaleEpoch) {
		t.Fatalf("stale blob sync: want ErrStaleEpoch, got %v", err)
	}
	if err := blob.Truncate(0); !errors.Is(err, store.ErrStaleEpoch) {
		t.Fatalf("stale blob truncate: want ErrStaleEpoch, got %v", err)
	}
	if _, err := cOld.CreateDevice("d1", 8, 512); !errors.Is(err, store.ErrStaleEpoch) {
		t.Fatalf("stale create device: want ErrStaleEpoch, got %v", err)
	}

	// ...but reads still work (a deposed coordinator can drain in-flight
	// reconstruction reads safely).
	got := make([]byte, 512)
	if err := dev.ReadStrip(0, got); err != nil || !bytes.Equal(got, strip) {
		t.Fatalf("read after deposition: %v", err)
	}

	// Once the token catches up to the new epoch, writes flow again.
	fence.Advance(2)
	if err := dev.WriteStrip(1, strip); err != nil {
		t.Fatalf("write at adopted epoch: %v", err)
	}
	// Advance is monotonic: a stale Advance cannot lower the epoch.
	fence.Advance(1)
	if got := fence.Epoch(); got != 2 {
		t.Fatalf("fence epoch = %d after stale Advance, want 2", got)
	}
}

// TestMetaStatePersists restarts a dir-backed node and checks the
// promise (epoch, holder) and blob generations survive, so a rebooted
// node cannot be tricked into accepting a pre-takeover epoch.
func TestMetaStatePersists(t *testing.T) {
	dir := t.TempDir()
	n, err := NewDirNode("n0", dir)
	if err != nil {
		t.Fatalf("new node: %v", err)
	}
	c := metaTestClient(t, n)
	if err := c.AcquireLease(7, "coordA"); err != nil {
		t.Fatalf("acquire: %v", err)
	}
	fence := &FenceToken{}
	fence.Advance(7)
	c.SetFence(fence)
	manifest := c.Blob("manifest").AtGen(4)
	payload := []byte("durable-meta")
	if _, err := manifest.WriteAt(payload, 0); err != nil {
		t.Fatalf("meta write: %v", err)
	}
	if err := manifest.Sync(); err != nil {
		t.Fatalf("meta sync: %v", err)
	}
	if err := n.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	n2, err := NewDirNode("n0", dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer n2.Close()
	c2 := metaTestClient(t, n2)
	st, err := c2.Stat()
	if err != nil {
		t.Fatalf("state: %v", err)
	}
	if st.Epoch != 7 {
		t.Fatalf("epoch %d survived restart, want 7", st.Epoch)
	}
	if bs, ok := st.Blobs["manifest"]; !ok || bs.Gen != 4 {
		t.Fatalf("manifest blob stat = %+v, want gen 4", st.Blobs)
	}
	if err := c2.AcquireLease(6, "coordB"); !errors.Is(err, store.ErrStaleEpoch) {
		t.Fatalf("pre-promise epoch after restart: want ErrStaleEpoch, got %v", err)
	}
	got, gen, err := c2.Blob("manifest").ReadAll()
	if err != nil || gen != 4 || !bytes.Equal(got, payload) {
		t.Fatalf("read after restart: %q gen %d err %v", got, gen, err)
	}
	// Beside the blob's own file the directory holds one state file.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if !reflect.DeepEqual(names, []string{"manifest.blob", stateFile}) {
		t.Fatalf("node directory holds %v, want the blob and %s", names, stateFile)
	}
}

// TestBlobRequestRules pins the rules every blob shares beyond the
// generation wipe: a gen-less write to a missing blob is a 404 and makes
// nothing, a gen-stamped request without an epoch is refused before it
// acts, and a stamped write makes the blob it names at its generation.
func TestBlobRequestRules(t *testing.T) {
	c := metaTestClient(t, NewMemNode("n0"))
	if _, err := c.Blob("ghost").WriteAt([]byte("x"), 0); !errors.Is(err, ErrNodeNotFound) {
		t.Fatalf("gen-less write to a missing blob: %v, want ErrNodeNotFound", err)
	}
	if _, err := c.Blob("ghost").AtGen(2).WriteAt([]byte("x"), 0); !errors.Is(err, store.ErrBadGeometry) {
		t.Fatalf("gen-stamped write without an epoch: %v, want ErrBadGeometry", err)
	}
	if err := c.Blob("ghost").AtGen(2).Truncate(0); !errors.Is(err, store.ErrBadGeometry) {
		t.Fatalf("gen-stamped truncate without an epoch: %v, want ErrBadGeometry", err)
	}
	st, err := c.Stat()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Blobs) != 0 {
		t.Fatalf("refused requests made blobs: %+v", st.Blobs)
	}

	fence := &FenceToken{}
	fence.Advance(3)
	c.SetFence(fence)
	if _, err := c.Blob("ghost").AtGen(2).WriteAt([]byte("x"), 4); err != nil {
		t.Fatalf("stamped write to a missing blob: %v", err)
	}
	// A sync does not make a blob, stamped or not.
	if err := c.Blob("other").AtGen(2).Sync(); !errors.Is(err, ErrNodeNotFound) {
		t.Fatalf("stamped sync of a missing blob: %v, want ErrNodeNotFound", err)
	}
	if st, err = c.Stat(); err != nil {
		t.Fatal(err)
	}
	if want := (BlobStat{Size: 5, Gen: 2}); len(st.Blobs) != 1 || st.Blobs["ghost"] != want || st.Epoch != 3 {
		t.Fatalf("after a stamped write: blobs %+v epoch %d, want ghost at %+v and epoch 3", st.Blobs, st.Epoch, want)
	}
}

// TestDirNodeRefusesOlderStateFile: a directory still holding the
// second state file of the older node format, which kept the fence, is
// refused by name rather than half-read without its fence. An older node
// that never held a lease had no such file, and its node.json loads as it
// is.
func TestDirNodeRefusesOlderStateFile(t *testing.T) {
	dir := t.TempDir()
	classic := `{"devices": {}, "blobs": ["sb00"]}`
	if err := os.WriteFile(filepath.Join(dir, stateFile), []byte(classic), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "sb00.blob"), []byte("superblock"), 0o644); err != nil {
		t.Fatal(err)
	}
	n, err := NewDirNode("n0", dir)
	if err != nil {
		t.Fatalf("an older node's directory without a fence file: %v", err)
	}
	st, err := metaTestClient(t, n).Stat()
	n.Close()
	if err != nil || st.Blobs["sb00"] != (BlobStat{Size: 10}) || st.Epoch != 0 {
		t.Fatalf("older node reopened as %+v (%v), want sb00 of 10 bytes at gen 0", st, err)
	}

	older := filepath.Join(dir, "meta") + ".state"
	if err := os.WriteFile(older, []byte(`{"epoch":7,"holder":"coordA","gens":{"manifest":4}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if n, err = NewDirNode("n0", dir); err == nil {
		n.Close()
		t.Fatal("a directory holding the older state file opened")
	}
	if !strings.Contains(err.Error(), older) {
		t.Fatalf("refusal %q does not name %s", err, older)
	}
}

// TestBlobRequestsConcurrent drives one blob from several writers at rising
// generations while the holder renews its lease and the inventory is read:
// every request is answered, and the blob ends at the last generation with
// only that generation's bytes in it.
func TestBlobRequestsConcurrent(t *testing.T) {
	c := metaTestClient(t, NewMemNode("n0"))
	if err := c.AcquireLease(1, "coordA"); err != nil {
		t.Fatal(err)
	}
	fence := &FenceToken{}
	fence.Advance(1)
	c.SetFence(fence)
	const writers, gens = 4, 12
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for g := uint64(1); g <= gens; g++ {
				b := c.Blob("journal").AtGen(g)
				_, err := b.WriteAt([]byte{byte(g)}, int64(w))
				if err == nil {
					err = b.Sync()
				}
				if err != nil && !errors.Is(err, ErrStaleGen) {
					t.Errorf("writer %d at gen %d: %v", w, g, err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 3*gens; i++ {
			if err := c.RenewLease(1, "coordA"); err != nil {
				t.Errorf("renew: %v", err)
				return
			}
			if _, err := c.Stat(); err != nil {
				t.Errorf("stat: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	got, gen, err := c.Blob("journal").ReadAll()
	if err != nil || gen != gens || !bytes.Equal(got, bytes.Repeat([]byte{gens}, writers)) {
		t.Fatalf("blob after the writers: % x at gen %d (%v), want %d bytes of %d", got, gen, err, writers, gens)
	}
}
