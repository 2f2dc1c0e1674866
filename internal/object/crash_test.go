package object

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"

	"github.com/oiraid/oiraid/internal/engine"
	"github.com/oiraid/oiraid/internal/store"
)

// objCrashRig is the object-plane power-fail harness: a full durable
// array on crash-faulted media with the bucket/object store mounted on
// top. The oracle records every acknowledged object PUT/DELETE; the op
// cut mid-flight is remembered separately, because all-or-nothing is
// exactly what the PUT protocol promises — after remount the object is
// either fully present (bit-identical) or fully absent, and its strips
// are either owned or free, never leaked.
type objCrashRig struct {
	t      *testing.T
	ctl    *store.CrashController
	devs   []*store.CrashDevice
	sbs    []*store.CrashBlob
	j0, j1 *store.CrashBlob
	phase  string
	// oracle maps object key -> content of the last acknowledged PUT
	// (deleted keys are removed).
	oracle map[string][]byte
	// inflight is the op cut mid-flight: the key it targeted and the
	// contents recovery may legitimately surface (nil entry = absent is
	// also legitimate).
	inflightKey  string
	inflightWant [][]byte
	// deleted lists the keys of acknowledged DELETEs.
	deleted []string
}

const crashBucket = "crash-bucket"

func newObjCrashRig(t *testing.T, seed int64) *objCrashRig {
	t.Helper()
	r := &objCrashRig{
		t:      t,
		ctl:    store.NewCrashController(seed),
		phase:  "format",
		oracle: map[string][]byte{},
	}
	an := newAnalyzer(t, 9)
	strips := 2 * int64(an.SlotsPerDisk())
	for i := 0; i < an.Disks(); i++ {
		dev, err := store.NewCrashDevice(r.ctl, strips, testStrip)
		if err != nil {
			t.Fatal(err)
		}
		r.devs = append(r.devs, dev)
		r.sbs = append(r.sbs, store.NewCrashBlob(r.ctl))
	}
	r.j0, r.j1 = store.NewCrashBlob(r.ctl), store.NewCrashBlob(r.ctl)
	return r
}

func (r *objCrashRig) format() *store.Mount {
	r.t.Helper()
	devs := make([]store.Device, len(r.devs))
	for i, d := range r.devs {
		devs[i] = d
	}
	sbs := make([]store.Blob, len(r.sbs))
	for i, b := range r.sbs {
		sbs[i] = b
	}
	m, err := store.FormatArray(newAnalyzer(r.t, 9), devs, sbs, r.j0, r.j1)
	if err != nil {
		r.t.Fatal(err)
	}
	return m
}

// workload drives buckets, simple PUTs, an overwrite, a delete, and a
// multipart assembly through the object store, recording every
// acknowledged state change. It returns on the first error — the
// simulated power failure when the controller is armed.
func (r *objCrashRig) workload(m *store.Mount) error {
	eng, err := engine.New(m.Array, engine.Options{})
	if err != nil {
		return err
	}
	defer eng.Close()
	s, err := New(eng, Options{ChunkBytes: 2 * testStrip})
	if err != nil {
		return err
	}
	ctx := context.Background()

	r.phase = "bucket"
	if err := s.CreateBucket(ctx, crashBucket); err != nil {
		return err
	}
	r.phase = "put"
	for i := 0; i < 6; i++ {
		if err := r.put(s, fmt.Sprintf("obj/%02d", i), payload(int64(i+1), (i+1)*testStrip+i*37)); err != nil {
			return err
		}
	}
	r.phase = "overwrite"
	if err := r.put(s, "obj/02", payload(100, 2*testStrip+5)); err != nil {
		return err
	}
	r.phase = "delete"
	if err := r.del(s, "obj/04"); err != nil {
		return err
	}

	r.phase = "multipart"
	p1 := payload(201, 3*testStrip+11)
	p2 := payload(202, 2*testStrip)
	assembled := append(append([]byte(nil), p1...), p2...)
	r.inflightKey, r.inflightWant = "obj/big", [][]byte{nil, assembled}
	id, err := s.CreateUpload(ctx, crashBucket, "obj/big", nil)
	if err != nil {
		return err
	}
	if _, err := s.UploadPart(ctx, crashBucket, "obj/big", id, 1, bytes.NewReader(p1), int64(len(p1))); err != nil {
		return err
	}
	if _, err := s.UploadPart(ctx, crashBucket, "obj/big", id, 2, bytes.NewReader(p2), int64(len(p2))); err != nil {
		return err
	}
	if _, err := s.CompleteUpload(ctx, crashBucket, "obj/big", id); err != nil {
		return err
	}
	r.oracle["obj/big"] = assembled
	r.inflightKey = ""

	r.phase = "degraded"
	if err := eng.FailDisk(1); err != nil {
		return err
	}
	// Ten degraded PUTs keep the sweep's span between 566 and 599
	// persisting operations, so at 100 points it cuts every 5th one.
	for i := 0; i < 10; i++ {
		if err := r.put(s, fmt.Sprintf("deg/%02d", i), payload(int64(300+i), 2*testStrip+i)); err != nil {
			return err
		}
	}
	r.phase = "seal"
	return eng.Close()
}

// put PUTs key through s, recording it in flight until acknowledged.
func (r *objCrashRig) put(s *Store, key string, data []byte) error {
	r.inflightKey, r.inflightWant = key, [][]byte{nil, data}
	if old, ok := r.oracle[key]; ok {
		r.inflightWant = append(r.inflightWant, old)
	}
	if _, err := s.PutObject(context.Background(), crashBucket, key, bytes.NewReader(data), int64(len(data)), nil); err != nil {
		return err
	}
	r.oracle[key] = data
	r.inflightKey = ""
	return nil
}

// del DELETEs key through s, recording it in flight until acknowledged.
func (r *objCrashRig) del(s *Store, key string) error {
	r.inflightKey, r.inflightWant = key, [][]byte{nil, r.oracle[key]}
	if err := s.DeleteObject(context.Background(), crashBucket, key); err != nil {
		return err
	}
	delete(r.oracle, key)
	r.deleted = append(r.deleted, key)
	r.inflightKey = ""
	return nil
}

// reuseWorkload frees strips and lands the next PUT on them at once, as
// first fit does: it overwrites one object and deletes another, and after
// each a PUT must take the freed strips — or the workload fails with
// errNoReuse. It returns on the first error, as workload does.
func (r *objCrashRig) reuseWorkload(m *store.Mount) error {
	eng, err := engine.New(m.Array, engine.Options{})
	if err != nil {
		return err
	}
	defer eng.Close()
	s, err := New(eng, Options{ChunkBytes: 2 * testStrip})
	if err != nil {
		return err
	}
	r.phase = "bucket"
	if err := s.CreateBucket(context.Background(), crashBucket); err != nil {
		return err
	}
	r.phase = "put"
	for i, key := range []string{"a", "b", "c"} {
		if err := r.put(s, key, payload(int64(400+i), (3-i)*testStrip+i*41)); err != nil {
			return err
		}
	}
	// lands PUTs key and requires it to occupy every strip of freed.
	lands := func(key string, freed []Extent, data []byte) error {
		if err := r.put(s, key, data); err != nil {
			return err
		}
		s.mu.Lock()
		defer s.mu.Unlock()
		got := s.buckets[crashBucket].objects[key].Extents
		owns := map[int64]bool{}
		for _, e := range got {
			for i := e.Start; i < e.Start+int64(e.Strips); i++ {
				owns[i] = true
			}
		}
		for _, e := range freed {
			for i := e.Start; i < e.Start+int64(e.Strips); i++ {
				if !owns[i] {
					return fmt.Errorf("%w: %q got %+v, freed %+v", errNoReuse, key, got, freed)
				}
			}
		}
		return nil
	}
	extents := func(key string) []Extent {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.buckets[crashBucket].objects[key].Extents
	}

	r.phase = "overwrite"
	old := extents("a")
	if err := r.put(s, "a", payload(410, 3*testStrip+9)); err != nil {
		return err
	}
	r.phase = "reuse-overwritten"
	if err := lands("d", old, payload(411, 3*testStrip)); err != nil {
		return err
	}
	r.phase = "delete"
	old = extents("b")
	if err := r.del(s, "b"); err != nil {
		return err
	}
	r.phase = "reuse-deleted"
	if err := lands("e", old, payload(412, 2*testStrip+77)); err != nil {
		return err
	}
	r.phase = "seal"
	return eng.Close()
}

var errNoReuse = errors.New("a PUT did not land on the strips freed before it")

// recover remounts from the survivors, swaps fresh media into failed
// slots, rebuilds, and mounts a fresh object store (running its
// mount-time sweep).
func (r *objCrashRig) recover() (*Store, *engine.Engine, error) {
	r.t.Helper()
	devs := make([]store.Device, len(r.devs))
	for i, d := range r.devs {
		m, err := d.Survivor()
		if err != nil {
			r.t.Fatal(err)
		}
		devs[i] = m
	}
	sbs := make([]store.Blob, len(r.sbs))
	for i, b := range r.sbs {
		sbs[i] = b.Survivor()
	}
	mnt, err := store.MountArray(newAnalyzer(r.t, 9), devs, sbs, r.j0.Survivor(), r.j1.Survivor())
	if err != nil {
		return nil, nil, fmt.Errorf("mount: %w", err)
	}
	for _, d := range mnt.Failed {
		fresh, err := store.NewMemDevice(devs[d].Strips(), testStrip)
		if err != nil {
			r.t.Fatal(err)
		}
		if err := mnt.Array.ReplaceDisk(d, fresh); err != nil {
			return nil, nil, fmt.Errorf("replace disk %d: %w", d, err)
		}
	}
	if len(mnt.Failed) > 0 {
		if err := mnt.Array.Rebuild(); err != nil {
			return nil, nil, fmt.Errorf("rebuild: %w", err)
		}
	}
	eng, err := engine.New(mnt.Array, engine.Options{})
	if err != nil {
		return nil, nil, err
	}
	s, err := New(eng, Options{ChunkBytes: 2 * testStrip})
	if err != nil {
		eng.Close()
		return nil, nil, fmt.Errorf("object mount: %w", err)
	}
	return s, eng, nil
}

// verify checks every acknowledged object bit-identical, the in-flight
// op all-or-nothing, and the allocator leak-free.
func (r *objCrashRig) verify(s *Store) error {
	ctx := context.Background()
	for key, want := range r.oracle {
		if key == r.inflightKey {
			continue // judged by the in-flight rule below
		}
		var buf bytes.Buffer
		if _, err := s.GetObject(ctx, crashBucket, key, &buf); err != nil {
			return fmt.Errorf("acked object %q: %w", key, err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			return fmt.Errorf("acked object %q content mangled (%d vs %d bytes)", key, buf.Len(), len(want))
		}
	}
	if r.inflightKey != "" {
		var buf bytes.Buffer
		_, err := s.GetObject(ctx, crashBucket, r.inflightKey, &buf)
		ok := false
		for _, want := range r.inflightWant {
			if want == nil {
				if errors.Is(err, ErrNoSuchObject) || errors.Is(err, ErrNoSuchBucket) {
					ok = true
				}
				continue
			}
			if err == nil && bytes.Equal(buf.Bytes(), want) {
				ok = true
			}
		}
		if !ok {
			return fmt.Errorf("in-flight object %q neither fully present nor absent (err=%v, %d bytes)",
				r.inflightKey, err, buf.Len())
		}
	}
	for _, key := range r.deleted {
		if _, ok := r.oracle[key]; ok || key == r.inflightKey {
			continue // PUT again since
		}
		if _, err := s.StatObject(ctx, crashBucket, key); !errors.Is(err, ErrNoSuchObject) {
			return fmt.Errorf("deleted object %q resurrected (err=%v)", key, err)
		}
	}
	if rep := s.Fsck(); !rep.Clean {
		return fmt.Errorf("allocator fsck dirty after recovery: %+v", rep)
	}
	return nil
}

// TestObjectCrashNoCrash sanity-checks the rig: a workload that never
// loses power remounts with every object intact and no swept intents.
func TestObjectCrashNoCrash(t *testing.T) {
	r := newObjCrashRig(t, 1)
	m := r.format()
	if err := r.workload(m); err != nil {
		t.Fatalf("disarmed workload failed in %s: %v", r.phase, err)
	}
	s, eng, err := r.recover()
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if err := r.verify(s); err != nil {
		t.Fatal(err)
	}
	if s.Swept() != 0 {
		t.Errorf("clean run swept %d intents", s.Swept())
	}
}

// TestObjectCrashSweep is the object-phase power-fail sweep: cut power
// at every k-th persisting operation across bucket creation, PUTs, an
// overwrite, a delete, a multipart assembly, and degraded-mode PUTs,
// then remount and prove acked objects are intact, the in-flight op is
// all-or-nothing, and no strip leaked.
func TestObjectCrashSweep(t *testing.T) {
	dry := newObjCrashRig(t, 0)
	mDry := dry.format()
	afterFormat := dry.ctl.Writes()
	if err := dry.workload(mDry); err != nil {
		t.Fatalf("dry run failed in %s: %v", dry.phase, err)
	}
	span := dry.ctl.Writes() - afterFormat
	// A fixed stride names each subtest by a cut index that does not move
	// when the workload's count of persisting operations does; the span
	// must then be long enough for 100 points.
	stride := int64(5)
	if testing.Short() {
		stride = 22
	}
	if span < 100*5 {
		t.Fatalf("workload span %d persisting operations, want >= %d for 100 cut points at stride 5", span, 100*5)
	}

	ran := 0
	phases := map[string]int{}
	for cut := int64(0); cut < span; cut += stride {
		cut := cut
		t.Run(fmt.Sprintf("cut=%d", cut), func(t *testing.T) {
			r := newObjCrashRig(t, cut)
			m := r.format()
			r.ctl.Arm(cut)
			err := r.workload(m)
			if err == nil {
				t.Fatalf("cut %d inside span %d did not crash", cut, span)
			}
			if !r.ctl.Crashed() {
				t.Fatalf("workload error without crash in %s: %v", r.phase, err)
			}
			phases[r.phase]++
			s, eng, err := r.recover()
			if err != nil {
				t.Fatalf("crash in %s: recovery failed: %v", r.phase, err)
			}
			defer eng.Close()
			if err := r.verify(s); err != nil {
				t.Fatalf("crash in %s: %v", r.phase, err)
			}
		})
		ran++
	}
	t.Logf("swept %d crash points over %d operations; crash phases: %v", ran, span, phases)
	if len(phases) < 4 {
		t.Errorf("crash points hit %d phases (%v), want >= 4", len(phases), phases)
	}
}

// TestObjectCrashReuse: first fit hands strips freed by an overwrite or a
// DELETE to the next PUT at once. Cut power at every persisting operation
// of a workload that does both, then remount: every acknowledged object
// reads back with its CRCs clean, the PUT cut mid-flight is all or
// nothing, no deleted object comes back, and no strip leaked.
func TestObjectCrashReuse(t *testing.T) {
	dry := newObjCrashRig(t, 0)
	mDry := dry.format()
	afterFormat := dry.ctl.Writes()
	if err := dry.reuseWorkload(mDry); err != nil {
		t.Fatalf("dry run failed in %s: %v", dry.phase, err)
	}
	span := dry.ctl.Writes() - afterFormat
	phases := map[string]int{}
	for cut := int64(0); cut < span; cut++ {
		r := newObjCrashRig(t, cut)
		m := r.format()
		r.ctl.Arm(cut)
		if err := r.reuseWorkload(m); err == nil || !r.ctl.Crashed() {
			t.Fatalf("cut %d of %d in %s: workload returned %v without a crash", cut, span, r.phase, err)
		}
		phases[r.phase]++
		s, eng, err := r.recover()
		if err != nil {
			t.Fatalf("cut %d in %s: recovery failed: %v", cut, r.phase, err)
		}
		err = r.verify(s)
		eng.Close()
		if err != nil {
			t.Fatalf("cut %d in %s: %v", cut, r.phase, err)
		}
	}
	t.Logf("cut %d persisting operations; crash phases: %v", span, phases)
	for _, p := range []string{"reuse-overwritten", "reuse-deleted"} {
		if phases[p] == 0 {
			t.Errorf("no cut fell in phase %s", p)
		}
	}
}
