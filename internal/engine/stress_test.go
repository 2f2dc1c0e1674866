package engine

import (
	"bytes"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// TestConcurrentStress hammers the engine from concurrent writers and
// readers — overlapping strips, disjoint strips, degraded reads — while a
// disk fails mid-run and a background rebuild executes, then checks
// byte-level consistency against a single-threaded oracle. Run with
// -race; the striped-lock protocol is the subject under test.
//
// Protocol: each writer owns a disjoint subset of the logical strips
// (addr % writers == id) and fills a strip with a self-describing pattern
// derived from (addr, seq). Ownership makes the final content
// deterministic per strip, so the oracle is exact; readers meanwhile
// verify mid-flight that any strip they observe is internally consistent
// (one whole generation, never a torn mix), which would fail if two
// read-modify-write closures interleaved.
func TestConcurrentStress(t *testing.T) {
	const (
		writers = 4
		readers = 4
		iters   = 120
	)
	e := newEngine(t, 9, 2, Options{Workers: 6})
	strips := e.Strips()
	sb := e.StripBytes()

	// pattern fills a strip for (addr, seq): every byte is the same
	// function of both, so a torn strip is a mix of byte values.
	pattern := func(addr int64, seq int) []byte {
		p := make([]byte, sb)
		v := byte(addr*131 + int64(seq)*29 + 17)
		for i := range p {
			p[i] = v
		}
		return p
	}

	// Seed every strip with generation 0 so readers always see a pattern.
	for addr := int64(0); addr < strips; addr++ {
		if err := e.WriteStrip(addr, pattern(addr, 0)); err != nil {
			t.Fatal(err)
		}
	}

	oracle := make([][]byte, strips) // final content, owner-written
	for addr := int64(0); addr < strips; addr++ {
		oracle[addr] = pattern(addr, 0)
	}

	var (
		wg       sync.WaitGroup
		failures atomic.Int64 // background test failures (t.Fatal is main-goroutine-only)
	)
	fail := func(format string, args ...any) {
		failures.Add(1)
		t.Errorf(format, args...)
	}

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + id)))
			owned := make([]int64, 0, int(strips))
			for addr := int64(0); addr < strips; addr++ {
				if addr%writers == int64(id) {
					owned = append(owned, addr)
				}
			}
			for i := 1; i <= iters; i++ {
				addr := owned[rng.Intn(len(owned))]
				p := pattern(addr, i)
				if err := e.WriteStrip(addr, p); err != nil {
					fail("writer %d strip %d: %v", id, addr, err)
					return
				}
				oracle[addr] = p // owner-only, no lock needed
			}
		}(w)
	}

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(2000 + id)))
			for i := 0; i < iters; i++ {
				addr := rng.Int63n(strips)
				p, err := e.ReadStrip(addr)
				if err != nil {
					fail("reader %d strip %d: %v", id, addr, err)
					return
				}
				for j := 1; j < len(p); j++ {
					if p[j] != p[0] {
						fail("reader %d: torn strip %d: byte %d is %#x, byte 0 is %#x",
							id, addr, j, p[j], p[0])
						return
					}
				}
			}
		}(r)
	}

	// Mid-run: fail a disk, then rebuild while traffic continues.
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := e.FailDisk(3); err != nil {
			fail("FailDisk: %v", err)
			return
		}
		if err := e.StartRebuild(1); err != nil {
			fail("StartRebuild: %v", err)
			return
		}
		if err := e.RebuildWait(); err != nil {
			fail("RebuildWait: %v", err)
		}
	}()

	wg.Wait()
	if failures.Load() > 0 {
		t.FailNow()
	}

	// Quiesced: every strip matches the oracle, and parity is globally
	// consistent.
	if err := e.RebuildWait(); err != nil {
		t.Fatal(err)
	}
	for addr := int64(0); addr < strips; addr++ {
		p, err := e.ReadStrip(addr)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(p, oracle[addr]) {
			t.Fatalf("strip %d: got %#x…, want %#x…", addr, p[0], oracle[addr][0])
		}
	}
	if bad, err := e.Array().Scrub(); err != nil || bad != 0 {
		t.Fatalf("scrub: %d inconsistent stripes, %v", bad, err)
	}
}

// TestConcurrentStressDeepDegraded drives concurrent traffic with two
// failed disks — the regime where writes escalate to the exclusive mode
// lock because reads may reconstruct through multi-phase plans — then
// rebuilds and verifies the oracle.
func TestConcurrentStressDeepDegraded(t *testing.T) {
	const (
		writers = 3
		readers = 3
		iters   = 60
	)
	e := newEngine(t, 9, 2, Options{Workers: 4})
	strips := e.Strips()
	sb := e.StripBytes()
	pattern := func(addr int64, seq int) []byte {
		p := make([]byte, sb)
		v := byte(addr*37 + int64(seq)*101 + 5)
		for i := range p {
			p[i] = v
		}
		return p
	}
	for addr := int64(0); addr < strips; addr++ {
		if err := e.WriteStrip(addr, pattern(addr, 0)); err != nil {
			t.Fatal(err)
		}
	}
	// Two failures in one BIBD group would force deep reconstruction;
	// disks 0 and 1 share a group in the v=9 design.
	for _, d := range []int{0, 1} {
		if err := e.FailDisk(d); err != nil {
			t.Fatal(err)
		}
	}

	oracle := make([][]byte, strips)
	for addr := int64(0); addr < strips; addr++ {
		oracle[addr] = pattern(addr, 0)
	}
	var wg sync.WaitGroup
	var failed atomic.Int64
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(3000 + id)))
			for i := 1; i <= iters; i++ {
				addr := rng.Int63n(strips)
				if addr%writers != int64(id) {
					continue
				}
				p := pattern(addr, i)
				if err := e.WriteStrip(addr, p); err != nil {
					failed.Add(1)
					t.Errorf("writer %d: %v", id, err)
					return
				}
				oracle[addr] = p
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(4000 + id)))
			for i := 0; i < iters; i++ {
				addr := rng.Int63n(strips)
				p, err := e.ReadStrip(addr)
				if err != nil {
					failed.Add(1)
					t.Errorf("reader %d: %v", id, err)
					return
				}
				for j := 1; j < len(p); j++ {
					if p[j] != p[0] {
						failed.Add(1)
						t.Errorf("reader %d: torn strip %d", id, addr)
						return
					}
				}
			}
		}(r)
	}
	wg.Wait()
	if failed.Load() > 0 {
		t.FailNow()
	}

	if err := e.StartRebuild(1); err != nil {
		t.Fatal(err)
	}
	if err := e.RebuildWait(); err != nil {
		t.Fatal(err)
	}
	for addr := int64(0); addr < strips; addr++ {
		p, err := e.ReadStrip(addr)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(p, oracle[addr]) {
			t.Fatalf("strip %d differs after deep-degraded run", addr)
		}
	}
	if bad, err := e.Array().Scrub(); err != nil || bad != 0 {
		t.Fatalf("scrub: %d, %v", bad, err)
	}
}
