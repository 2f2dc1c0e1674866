package object

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// TestAllocatorChurnModel: seeded PUT, overwrite and delete churn of mixed
// sizes, with readers pinning generations (so their frees park) and
// allocations staged but not committed (in flight), checked after every step
// against a model that knows which holder owns each strip. Every reservation
// is exact, no strip is handed to two holders, the bitmap is the model's
// bit for bit and free equals its popcount, every strip below the low-water
// hint is allocated, and — first fit — the highest strip an allocation
// hands out is below the strips then live, in flight or parked.
func TestAllocatorChurnModel(t *testing.T) {
	s, _ := newTestStore(t, 2)
	ctx := context.Background()
	const bucket = "b-churn"
	if err := s.CreateBucket(ctx, bucket); err != nil {
		t.Fatal(err)
	}
	a := s.alloc
	owner := make([]string, a.strips) // "" = free
	held := int64(0)
	take := func(holder string, runs []run) {
		t.Helper()
		for _, r := range runs {
			for i := r.start; i < r.start+r.n; i++ {
				if owner[i] != "" {
					t.Fatalf("strip %d handed to %s while %s holds it", i, holder, owner[i])
				}
				owner[i] = holder
				held++
			}
		}
	}
	drop := func(holder string, runs []run) {
		t.Helper()
		for _, r := range runs {
			for i := r.start; i < r.start+r.n; i++ {
				if owner[i] != holder {
					t.Fatalf("strip %d released by %s but held by %q", i, holder, owner[i])
				}
				owner[i] = ""
				held--
			}
		}
	}
	// reserved checks a fresh reservation of want strips and takes it.
	reserved := func(holder string, runs []run, want int64) {
		t.Helper()
		var total, top int64 = 0, -1
		for _, r := range runs {
			total += r.n
			top = max(top, r.start+r.n-1)
		}
		if total != want {
			t.Fatalf("%s reserved %d strips, want %d", holder, total, want)
		}
		take(holder, runs)
		if top >= held {
			t.Fatalf("%s got strip %d with %d strips live, in flight or parked", holder, top, held)
		}
	}
	extentRuns := func(exts []Extent) []run {
		runs := make([]run, len(exts))
		for i, e := range exts {
			runs[i] = run{start: e.Start, n: int64(e.Strips)}
		}
		return runs
	}

	type gen struct {
		holder string
		txn    uint64
		runs   []run
	}
	live := map[string]gen{}   // key → its committed generation
	var readers []uint64       // the generation each open reader pins
	parked := map[uint64]gen{} // freed while pinned
	var staged []gen           // in flight
	pinned := func(txn uint64) bool {
		for _, r := range readers {
			if r == txn {
				return true
			}
		}
		return false
	}
	free := func(g gen) {
		if pinned(g.txn) {
			parked[g.txn] = g
		} else {
			drop(g.holder, g.runs)
		}
	}

	rng := rand.New(rand.NewSource(40))
	size := func() int64 {
		switch rng.Intn(4) {
		case 0:
			return int64(rng.Intn(testStrip)) // empty or sub-strip
		case 1:
			return int64(1+rng.Intn(40)) * testStrip
		default:
			return int64(rng.Intn(40*testStrip) + 1)
		}
	}
	var full int
	for step := 0; step < 1500; step++ {
		key := fmt.Sprintf("k%02d", rng.Intn(10))
		switch op := rng.Intn(10); {
		case op < 4: // PUT or overwrite
			n := size()
			want := (n + testStrip - 1) / testStrip
			_, err := s.PutObject(ctx, bucket, key, bytes.NewReader(payload(int64(step), int(n))), n, nil)
			if errors.Is(err, ErrNoSpace) {
				if want <= a.strips-held {
					t.Fatalf("step %d: PUT of %d strips refused with %d free", step, want, a.strips-held)
				}
				full++
				break
			}
			if err != nil {
				t.Fatalf("step %d: put: %v", step, err)
			}
			m := s.buckets[bucket].objects[key]
			var got int64
			for _, e := range m.Extents {
				got += e.Bytes
			}
			if got != n {
				t.Fatalf("step %d: extents hold %d bytes of %d", step, got, n)
			}
			g := gen{holder: fmt.Sprintf("%s#%d", key, m.Txn), txn: m.Txn, runs: extentRuns(m.Extents)}
			reserved(g.holder, g.runs, want)
			if old, ok := live[key]; ok {
				free(old)
			}
			live[key] = g
		case op < 6: // DELETE
			g, ok := live[key]
			if !ok {
				break
			}
			if err := s.DeleteObject(ctx, bucket, key); err != nil {
				t.Fatal(err)
			}
			delete(live, key)
			free(g)
		case op < 7: // a reader pins the key's generation
			g, ok := live[key]
			if !ok {
				break
			}
			s.mu.Lock()
			s.pins[g.txn]++
			s.mu.Unlock()
			readers = append(readers, g.txn)
		case op < 8: // a reader ends
			if len(readers) == 0 {
				break
			}
			i := rng.Intn(len(readers))
			txn := readers[i]
			readers = append(readers[:i], readers[i+1:]...)
			s.unpin(txn)
			if g, ok := parked[txn]; ok && !pinned(txn) {
				drop(g.holder, g.runs)
				delete(parked, txn)
			}
		case op < 9: // stage a PUT and leave it in flight
			n := size()
			want := (n + testStrip - 1) / testStrip
			txn, runs, err := s.stage(bucket, kvObject(bucket, "staged"), n)
			if errors.Is(err, ErrNoSpace) {
				full++
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			g := gen{holder: fmt.Sprintf("staged#%d", txn), txn: txn, runs: runs}
			reserved(g.holder, runs, want)
			staged = append(staged, g)
		default: // abort the oldest staged PUT
			if len(staged) == 0 {
				break
			}
			g := staged[0]
			staged = staged[1:]
			s.abortStage(g.txn, g.runs)
			drop(g.holder, g.runs)
		}

		for i := int64(0); i < a.strips; i++ {
			if have := a.allocated(i); have != (owner[i] != "") {
				t.Fatalf("step %d: strip %d allocated=%v, model holder %q", step, i, have, owner[i])
			}
			if i < a.low && owner[i] == "" {
				t.Fatalf("step %d: strip %d is free below the low-water hint %d", step, i, a.low)
			}
		}
		if a.free != a.strips-held || a.used() != a.popcount() {
			t.Fatalf("step %d: free %d, used %d, popcount %d; model holds %d of %d",
				step, a.free, a.used(), a.popcount(), held, a.strips)
		}
	}
	if rep := s.Fsck(); !rep.Clean || rep.Used != held {
		t.Fatalf("fsck after churn: %+v, model holds %d", rep, held)
	}
	if full == 0 {
		t.Error("the churn never filled the space; ErrNoSpace went untested")
	}
}

// fragmented returns an allocator of n strips about half full: the space is
// cut into runs of 1–64 strips, and every other run is allocated.
func fragmented(n int64, rng *rand.Rand) *allocator {
	a := newAllocator(n)
	for start, taken := int64(0), false; start < n; taken = !taken {
		length := min(1+rng.Int63n(64), n-start)
		if taken {
			if err := a.mark(start, length); err != nil {
				panic(err)
			}
		}
		start += length
	}
	return a
}

// BenchmarkAlloc: a 16-strip allocation and the release of the one made 256
// allocations before, on a bitmap half full of runs scattered over the whole
// space, at 2^20 and 2^24 strips. The time per allocation should not grow
// with the bitmap.
func BenchmarkAlloc(b *testing.B) {
	for _, shift := range []int{20, 24} {
		b.Run(fmt.Sprintf("strips=2^%d", shift), func(b *testing.B) {
			a := fragmented(1<<shift, rand.New(rand.NewSource(int64(shift))))
			live := make([][]run, 256)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				slot := &live[i%len(live)]
				for _, r := range *slot {
					a.release(r.start, r.n)
				}
				runs, err := a.alloc(16)
				if err != nil {
					b.Fatal(err)
				}
				*slot = runs
			}
		})
	}
}
