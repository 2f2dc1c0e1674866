package engine

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"github.com/oiraid/oiraid/internal/bibd"
	"github.com/oiraid/oiraid/internal/core"
	"github.com/oiraid/oiraid/internal/layout"
	"github.com/oiraid/oiraid/internal/store"
)

// newChaosEngine builds an engine whose disks are fault devices, returning
// the per-disk injectors. A journal is attached, so writes aborted by
// injected faults stay recoverable and every strip is checksummed.
func newChaosEngine(t testing.TB, v int, cycles int64, opts Options) (*Engine, []*store.FaultDevice) {
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
	strips := cycles * int64(an.SlotsPerDisk())
	faults := make([]*store.FaultDevice, an.Disks())
	devs := make([]store.Device, an.Disks())
	for i := range devs {
		mem, err := store.NewMemDevice(strips, testStrip)
		if err != nil {
			t.Fatal(err)
		}
		faults[i] = store.NewFaultDevice(mem, store.FaultConfig{Seed: int64(1000 + i)})
		devs[i] = faults[i]
	}
	arr, err := store.NewArray(an, devs)
	if err != nil {
		t.Fatal(err)
	}
	journal, err := store.OpenMetaJournal(store.NewMemBlob(), store.NewMemBlob())
	if err != nil {
		t.Fatal(err)
	}
	arr.SetJournal(journal)
	e, err := New(arr, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e, faults
}

// chaosPattern is a deterministic strip payload derived from (addr, seq).
func chaosPattern(stripBytes int, addr int64, seq int) []byte {
	p := make([]byte, stripBytes)
	rand.New(rand.NewSource(addr*7919 + int64(seq))).Read(p)
	return p
}

// TestChaosTransientAbsorbed: a workload over disks injecting transient
// faults at a steady rate completes without surfaced errors or evictions —
// the retry layer absorbs everything — and the final contents are
// bit-identical to the fault-free oracle.
func TestChaosTransientAbsorbed(t *testing.T) {
	e, faults := newChaosEngine(t, 9, 2, Options{
		Workers: 4,
		Retry:   &store.RetryPolicy{MaxAttempts: 6, BaseDelay: 20 * time.Microsecond, Seed: 5},
		Health:  &HealthPolicy{EvictAfter: 3},
	})
	for _, f := range faults {
		f.SetTransientRate(0.05)
	}
	oracle := make(map[int64][]byte)
	for seq := 0; seq < 4; seq++ {
		for addr := int64(0); addr < e.Strips(); addr++ {
			p := chaosPattern(e.StripBytes(), addr, seq)
			if err := e.WriteStrip(addr, p); err != nil {
				t.Fatalf("write strip %d seq %d: %v", addr, seq, err)
			}
			oracle[addr] = p
		}
	}
	for addr, want := range oracle {
		got, err := e.ReadStrip(addr)
		if err != nil {
			t.Fatalf("read strip %d: %v", addr, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("strip %d differs from oracle", addr)
		}
	}
	st := e.Stats()
	if st.Evictions != 0 {
		t.Fatalf("transient-only faults must not evict: %+v", st)
	}
	if st.RetriesAbsorbed == 0 {
		t.Fatalf("retry layer absorbed nothing (rate too low for workload?): %+v", st)
	}
	var injected int64
	for _, f := range faults {
		injected += f.Stats().Transient
	}
	if injected == 0 {
		t.Fatal("no transient faults were injected")
	}
}

// TestChaosPermanentEvictsAndHeals is the headline chaos scenario: under a
// concurrent -race workload one disk turns permanently failed mid-stream.
// The health monitor must evict it without operator action, adopt a device
// from the hot-spare pool, rebuild in the background, and leave the array
// bit-identical to the oracle with consistent parity.
func TestChaosPermanentEvictsAndHeals(t *testing.T) {
	const victim = 3
	e, faults := newChaosEngine(t, 9, 2, Options{
		Workers: 4,
		Retry:   &store.RetryPolicy{MaxAttempts: 3, BaseDelay: 20 * time.Microsecond, Seed: 11},
		Health:  &HealthPolicy{EvictAfter: 2},
	})
	spare, err := store.NewMemDevice(e.arr.Cycles()*int64(e.an.SlotsPerDisk()), testStrip)
	if err != nil {
		t.Fatal(err)
	}
	e.AddSpareDevice(spare)
	if got := e.SpareCount(); got != 1 {
		t.Fatalf("spare pool = %d, want 1", got)
	}

	// Workload: 4 writers own disjoint strip sets; each write that errors
	// (the fault may abort mid-closure) is retried until it commits, which
	// is exactly what a client above a self-healing array does.
	var (
		mu     sync.Mutex
		oracle = make(map[int64][]byte)
	)
	writeRetrying := func(addr int64, p []byte) {
		deadline := time.Now().Add(20 * time.Second)
		for {
			err := e.WriteStrip(addr, p)
			if err == nil {
				mu.Lock()
				oracle[addr] = p
				mu.Unlock()
				return
			}
			if time.Now().After(deadline) {
				t.Errorf("write strip %d never committed: %v", addr, err)
				return
			}
			time.Sleep(200 * time.Microsecond)
		}
	}
	const writers = 4
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for seq := 0; seq < 6; seq++ {
				for addr := int64(w); addr < e.Strips(); addr += writers {
					writeRetrying(addr, chaosPattern(e.StripBytes(), addr, seq))
					if addr == int64(w) && seq == 2 && w == 0 {
						// Mid-workload: the victim disk turns permanently
						// failed. Everything after this is the self-healing
						// path's problem.
						faults[victim].FailNow()
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	// The monitor must have evicted the victim and the healer must finish
	// the rebuild on its own; poll rather than hook internals.
	deadline := time.Now().Add(15 * time.Second)
	for {
		st := e.Status()
		if st.Evictions >= 1 && len(st.Failed) == 0 && !st.Rebuilding {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("self-heal incomplete: %+v, health %+v", st, e.Health())
		}
		time.Sleep(5 * time.Millisecond)
	}

	st := e.Stats()
	if st.Evictions < 1 || st.AutoRebuilds < 1 {
		t.Fatalf("expected auto eviction+rebuild, got %+v", st)
	}
	if st.SparesUsed != 1 || st.SparesAvailable != 0 {
		t.Fatalf("spare not adopted: %+v", st)
	}
	h := e.Health()
	if h.Disks[victim].Errors != 0 {
		t.Fatalf("victim counters not reset after heal: %+v", h.Disks[victim])
	}

	// Bit-identity with the oracle, via the engine and via scrub.
	for addr, want := range oracle {
		got, err := e.ReadStrip(addr)
		if err != nil {
			t.Fatalf("read strip %d after heal: %v", addr, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("strip %d differs from oracle after heal", addr)
		}
	}
	if bad, err := e.arr.Scrub(); err != nil || bad != 0 {
		t.Fatalf("scrub after heal: %d bad, %v", bad, err)
	}
}

// TestChaosCloseRacesRebuild: Close while an auto-rebuild is in flight must
// not deadlock, panic, or leave goroutines behind.
func TestChaosCloseRacesRebuild(t *testing.T) {
	for round := 0; round < 3; round++ {
		t.Run(fmt.Sprintf("round%d", round), func(t *testing.T) {
			e, faults := newChaosEngine(t, 9, 4, Options{
				Workers: 2,
				Health:  &HealthPolicy{EvictAfter: 1},
			})
			for addr := int64(0); addr < e.Strips(); addr++ {
				if err := e.WriteStrip(addr, chaosPattern(e.StripBytes(), addr, 0)); err != nil {
					t.Fatal(err)
				}
			}
			faults[1].FailNow()
			// Trip the eviction threshold with a few reads, then close while
			// the healer may be anywhere in evict→adopt→rebuild.
			for addr := int64(0); addr < 8; addr++ {
				e.ReadStrip(addr) //nolint:errcheck // faults expected here
			}
			time.Sleep(time.Duration(round) * time.Millisecond)
			if err := e.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}
			if _, err := e.ReadStrip(0); err != ErrClosed {
				t.Fatalf("read after close: %v", err)
			}
		})
	}
}

// TestFailDiskIdempotent: failing an already-failed disk is a no-op at the
// engine layer too, and does not disturb a running rebuild's bookkeeping.
func TestFailDiskIdempotent(t *testing.T) {
	e := newEngine(t, 9, 2, Options{})
	if err := e.FailDisk(2); err != nil {
		t.Fatal(err)
	}
	if err := e.FailDisk(2); err != nil {
		t.Fatalf("second FailDisk not idempotent: %v", err)
	}
	if got := len(e.Status().Failed); got != 1 {
		t.Fatalf("failed set has %d entries, want 1", got)
	}
}

// TestChaosRebuildUnderSaturation: a saturating foreground workload over
// slow disks runs concurrently with an adaptively paced rebuild. The
// pacer must throttle recovery (throttle time accrues, the effective rate
// drops below the idle ceiling) while the rebuild still completes and
// foreground p99 stays bounded — no op ever queues behind a full pass.
// Over these disks a rebuilt cycle takes a few hundred milliseconds, longer
// than a grant at the ceiling, so only a rate the load pushed down to the
// floor makes the rebuild wait.
func TestChaosRebuildUnderSaturation(t *testing.T) {
	e, faults := newChaosEngine(t, 9, 4, Options{
		Workers: 4,
		QoS: &QoSConfig{
			RebuildRate:    50,
			MinRebuildRate: 2,
			LatencyTarget:  100 * time.Microsecond,
		},
	})
	// Every device op pays fixed latency: foreground EWMA settles well
	// over the 100µs target, forcing the pacer off the idle ceiling.
	for _, f := range faults {
		f.SetSlow(1, 100*time.Microsecond)
	}
	p := make([]byte, e.StripBytes())
	rand.New(rand.NewSource(5)).Read(p)
	for addr := int64(0); addr < e.Strips(); addr += 7 {
		if err := e.WriteStrip(addr, p); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.FailDisk(3); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	type result struct {
		lats []time.Duration
		err  error
	}
	const workers = 4
	results := make(chan result, workers)
	for w := 0; w < workers; w++ {
		go func(seed int64) {
			rng := rand.New(rand.NewSource(seed))
			var res result
			for i := 0; ; i++ {
				select {
				case <-stop:
					results <- res
					return
				default:
				}
				addr := rng.Int63n(e.Strips())
				begin := time.Now()
				var err error
				if i%3 == 0 {
					err = e.WriteStrip(addr, p)
				} else {
					_, err = e.ReadStrip(addr)
				}
				if err != nil {
					res.err = err
					results <- res
					return
				}
				res.lats = append(res.lats, time.Since(begin))
			}
		}(int64(100 + w))
	}
	// Let the workload warm the latency EWMA before recovery starts.
	time.Sleep(50 * time.Millisecond)
	if err := e.StartRebuild(1); err != nil {
		t.Fatal(err)
	}
	if err := e.RebuildWait(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	var lats []time.Duration
	for w := 0; w < workers; w++ {
		res := <-results
		if res.err != nil {
			t.Fatalf("foreground op failed during paced rebuild: %v", res.err)
		}
		lats = append(lats, res.lats...)
	}

	if got := len(e.Status().Failed); got != 0 {
		t.Fatalf("rebuild left %d failed disks", got)
	}
	st := e.Stats()
	if st.RebuildThrottleNs <= 0 {
		t.Fatal("pacer never throttled the rebuild under saturation")
	}
	if st.ForegroundEWMAUs <= 100 {
		t.Fatalf("foreground EWMA %.1fµs under the 100µs target: load not saturating", st.ForegroundEWMAUs)
	}
	if len(lats) < 100 {
		t.Fatalf("only %d foreground ops completed", len(lats))
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	p99 := lats[len(lats)*99/100]
	// A rebuilt cycle over slowed devices keeps writers off it for a few
	// hundred milliseconds; the bound proves foreground ops wait for at
	// most a cycle, never a pass (a full pass at the floored rate runs
	// ~1.5 s).
	if p99 > 500*time.Millisecond {
		t.Fatalf("foreground p99 = %v under paced rebuild", p99)
	}
}
