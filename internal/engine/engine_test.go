package engine

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"github.com/oiraid/oiraid/internal/bibd"
	"github.com/oiraid/oiraid/internal/core"
	"github.com/oiraid/oiraid/internal/layout"
	"github.com/oiraid/oiraid/internal/store"
	"github.com/oiraid/oiraid/internal/testutil"
)

const testStrip = 256

// oiAnalyzer is the analyzer of the v-disk OI-RAID layout.
func oiAnalyzer(t testing.TB, v int) *core.Analyzer {
	t.Helper()
	d, err := bibd.ForArray(v)
	if err != nil {
		t.Fatal(err)
	}
	s, err := layout.NewOIRAID(d)
	if err != nil {
		t.Fatal(err)
	}
	an, err := core.NewAnalyzer(s)
	if err != nil {
		t.Fatal(err)
	}
	return an
}

func newEngine(t testing.TB, v int, cycles int64, opts Options) *Engine {
	t.Helper()
	arr, err := store.NewMemArray(oiAnalyzer(t, v), cycles, testStrip)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(arr, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

// TestStripRoundTrip: strip-addressed writes read back verbatim, and the
// engine counters record the traffic.
func TestStripRoundTrip(t *testing.T) {
	e := newEngine(t, 9, 2, Options{})
	rng := rand.New(rand.NewSource(7))
	want := make(map[int64][]byte)
	for addr := int64(0); addr < e.Strips(); addr += 3 {
		p := make([]byte, e.StripBytes())
		rng.Read(p)
		if err := e.WriteStrip(addr, p); err != nil {
			t.Fatal(err)
		}
		want[addr] = p
	}
	for addr, p := range want {
		got, err := e.ReadStrip(addr)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, p) {
			t.Fatalf("strip %d differs", addr)
		}
	}
	st := e.Stats()
	if st.Reads == 0 || st.Writes == 0 || st.DeviceWrites == 0 {
		t.Fatalf("counters not advancing: %+v", st)
	}
}

// TestRangeIO: unaligned byte ranges fan out over the pool and agree with
// a single-threaded oracle.
func TestRangeIO(t *testing.T) {
	e := newEngine(t, 9, 2, Options{Workers: 3})
	payload := make([]byte, 3*e.StripBytes()+57)
	rand.New(rand.NewSource(3)).Read(payload)
	const off = 131
	if n, err := e.WriteAt(payload, off); err != nil || n != len(payload) {
		t.Fatalf("WriteAt = %d, %v", n, err)
	}
	got := make([]byte, len(payload))
	if n, err := e.ReadAt(got, off); err != nil || n != len(payload) {
		t.Fatalf("ReadAt = %d, %v", n, err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("range read-back differs")
	}
	// The array itself (single-threaded oracle) sees the same bytes.
	oracle := make([]byte, len(payload))
	if _, err := e.Array().ReadAt(oracle, off); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(oracle, payload) {
		t.Fatal("array content differs from engine view")
	}
}

// TestErrors: address validation and closed-engine behaviour surface the
// sentinel taxonomy.
func TestErrors(t *testing.T) {
	e := newEngine(t, 9, 2, Options{})
	if _, err := e.ReadStrip(-1); !errors.Is(err, store.ErrStripOutOfRange) {
		t.Fatalf("want ErrStripOutOfRange, got %v", err)
	}
	if _, err := e.ReadStrip(e.Strips()); !errors.Is(err, store.ErrStripOutOfRange) {
		t.Fatalf("want ErrStripOutOfRange, got %v", err)
	}
	if err := e.WriteStrip(0, make([]byte, 3)); !errors.Is(err, store.ErrShortBuffer) {
		t.Fatalf("want ErrShortBuffer, got %v", err)
	}
	if err := e.FailDisk(99); !errors.Is(err, store.ErrNoSuchDisk) {
		t.Fatalf("want ErrNoSuchDisk, got %v", err)
	}
	if _, err := e.WriteAt(make([]byte, 8), e.Capacity()); !errors.Is(err, store.ErrStripOutOfRange) {
		t.Fatalf("want ErrStripOutOfRange beyond capacity, got %v", err)
	}
	e.Close()
	if _, err := e.ReadStrip(0); !errors.Is(err, ErrClosed) {
		t.Fatalf("want ErrClosed, got %v", err)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

// TestFailRebuild: degraded reads stay correct and a background rebuild
// restores health, visible through Status — whose exposure report, kept from
// one call to the next, is always the one of the current failed set.
func TestFailRebuild(t *testing.T) {
	e := newEngine(t, 9, 2, Options{})
	payload := make([]byte, e.StripBytes())
	rand.New(rand.NewSource(11)).Read(payload)
	for addr := int64(0); addr < e.Strips(); addr++ {
		if err := e.WriteStrip(addr, payload); err != nil {
			t.Fatal(err)
		}
	}
	status := func() Status {
		t.Helper()
		st := e.Status()
		if want := e.an.MeasureExposure(st.Failed, 2); !reflect.DeepEqual(st.Exposure, want) {
			t.Fatalf("status with %v failed reports exposure %+v, want %+v", st.Failed, st.Exposure, want)
		}
		return st
	}
	status()
	for _, d := range []int{2, 5} {
		if err := e.FailDisk(d); err != nil {
			t.Fatal(err)
		}
		status()
	}
	st := status()
	if len(st.Failed) != 2 || !st.Exposure.Recoverable {
		t.Fatalf("status after failures: %+v", st)
	}
	got, err := e.ReadStrip(1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("degraded read differs")
	}
	if err := e.StartRebuild(1); err != nil {
		t.Fatal(err)
	}
	if err := e.StartRebuild(1); err == nil || !errors.Is(err, ErrRebuildRunning) {
		// A very fast rebuild may already have finished; only a second
		// concurrent start must report ErrRebuildRunning.
		if err != nil {
			t.Fatalf("second StartRebuild: %v", err)
		}
	}
	if err := e.RebuildWait(); err != nil {
		t.Fatal(err)
	}
	st = status()
	if len(st.Failed) != 0 || st.Rebuilding {
		t.Fatalf("status after rebuild: %+v", st)
	}
	if got, err := e.ReadStrip(1); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("post-rebuild read: %v", err)
	}
	if bad, err := e.Array().Scrub(); err != nil || bad != 0 {
		t.Fatalf("scrub after rebuild: %d bad, %v", bad, err)
	}
	if e.Stats().RebuildBatches == 0 {
		t.Fatal("rebuild batches not counted")
	}
}

// TestStartRebuildHealthy: rebuilding a healthy array completes
// immediately.
func TestStartRebuildHealthy(t *testing.T) {
	e := newEngine(t, 9, 2, Options{})
	if err := e.StartRebuild(4); err != nil {
		t.Fatal(err)
	}
	if err := e.RebuildWait(); err != nil {
		t.Fatal(err)
	}
}

// TestWriteClosureCoversUpdateStrips: every stripe a write's
// read-modify-write can touch is in the precomputed lock set — the
// invariant the striped-lock protocol rests on.
func TestWriteClosureCoversUpdateStrips(t *testing.T) {
	e := newEngine(t, 9, 2, Options{})
	for i, st := range e.sch.DataStrips() {
		inSet := func(si int) bool {
			for _, s := range e.writeSets[i] {
				if s == si {
					return true
				}
			}
			return false
		}
		plan := e.an.WritePlan(st)
		for _, u := range plan.Strips {
			for _, si := range e.an.DataMemberStripes(u) {
				if !inSet(si) {
					t.Fatalf("strip %v: stripe %d of closure member %v missing from write set %v",
						st, si, u, e.writeSets[i])
				}
			}
		}
		for _, step := range plan.Steps {
			if !inSet(step.Stripe) {
				t.Fatalf("strip %v: plan step %+v updates a stripe outside write set %v", st, step, e.writeSets[i])
			}
		}
		// The read set (stripes containing the strip) must be a subset of
		// the write set, so readers and writers of one strip contend.
		for _, si := range e.readSets[i] {
			if !inSet(si) {
				t.Fatalf("strip %v: read-set stripe %d not in write set", st, si)
			}
		}
		// OI-RAID's 4-strip closure spans exactly three stripes: inner,
		// outer, and the outer parity's inner stripe.
		if len(e.writeSets[i]) != 3 {
			t.Fatalf("strip %v: write set %v, want 3 stripes", st, e.writeSets[i])
		}
	}
}

// TestCloseStopsEveryLoop: Close on an engine running every background
// mechanism at once — the heal and tail loops (Health), the scrubber
// (QoS), and a paced rebuild mid-flight — stops them all through the one
// stop channel: no goroutine outlives it, and the rebuild reports
// ErrClosed.
func TestCloseStopsEveryLoop(t *testing.T) {
	guard := testutil.NewLeakGuard()
	e := newEngine(t, 9, 8, Options{
		Health: &HealthPolicy{QuarantineProbe: time.Millisecond},
		QoS: &QoSConfig{
			RebuildRate: 0.2, // one batch per 5s: the rebuild is still running at Close
			ScrubRate:   1000,
		},
	})
	if err := e.FailDisk(1); err != nil {
		t.Fatal(err)
	}
	if err := e.StartRebuild(1); err != nil {
		t.Fatal(err)
	}
	if !e.Rebuilding() {
		t.Fatal("rebuild not in flight before Close")
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	guard.Check(t)
	if err := e.RebuildWait(); !errors.Is(err, ErrClosed) {
		t.Fatalf("RebuildWait after Close = %v, want ErrClosed", err)
	}
}
