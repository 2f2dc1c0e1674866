package engine

import (
	"testing"

	"github.com/oiraid/oiraid/internal/store"
	"github.com/oiraid/oiraid/internal/testutil"
)

// stripEngine is the strip-4k workload's geometry: a two-cycle 9-disk
// in-memory engine with 4 KiB strips, every strip written once.
func stripEngine(t testing.TB) *Engine {
	t.Helper()
	arr, err := store.NewMemArray(oiAnalyzer(t, 9), 2, 4<<10)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(arr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	p := make([]byte, e.StripBytes())
	for addr := range e.Strips() {
		p[0] = byte(addr)
		if err := e.WriteStrip(addr, p); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// TestEngineSteadyStateAllocs: the engine's share of a healthy strip op —
// admission, the exclusion protocol, the clock — allocates nothing, so a
// write allocates nothing at all and a read only the strip it returns.
func TestEngineSteadyStateAllocs(t *testing.T) {
	if testutil.PoolDrops() {
		t.Skip("sync.Pool drops items in this build (race detector)")
	}
	e := stripEngine(t)
	p := make([]byte, e.StripBytes())
	var err error
	if n := testing.AllocsPerRun(100, func() { err = e.WriteStrip(5, p) }); n != 0 || err != nil {
		t.Errorf("WriteStrip: %v allocations per op, want 0 (err %v)", n, err)
	}
	if n := testing.AllocsPerRun(100, func() { _, err = e.ReadStrip(5) }); n != 1 || err != nil {
		t.Errorf("ReadStrip: %v allocations per op, want 1 (err %v)", n, err)
	}
}

func BenchmarkEngineWriteStrip(b *testing.B) {
	e := stripEngine(b)
	p := make([]byte, e.StripBytes())
	b.SetBytes(int64(len(p)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.WriteStrip(int64(i)%e.Strips(), p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngineReadStrip(b *testing.B) {
	e := stripEngine(b)
	b.SetBytes(int64(e.StripBytes()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.ReadStrip(int64(i) % e.Strips()); err != nil {
			b.Fatal(err)
		}
	}
}
