package engine

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sort"
	"testing"
	"time"

	"github.com/oiraid/oiraid/internal/store"
	"github.com/oiraid/oiraid/internal/testutil"
)

// victimAddrs returns up to max data-strip addresses whose primary copy
// lives on disk d.
func victimAddrs(e *Engine, d int, max int) []int64 {
	var addrs []int64
	for addr := int64(0); addr < e.Strips() && len(addrs) < max; addr++ {
		if e.arr.DataStripDisk(addr) == d {
			addrs = append(addrs, addr)
		}
	}
	return addrs
}

// readP99 runs n sequential reads over addrs and returns the p99 latency.
func readP99(t *testing.T, e *Engine, addrs []int64, n int) time.Duration {
	t.Helper()
	durs := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		addr := addrs[i%len(addrs)]
		t0 := time.Now()
		if _, err := e.ReadStrip(addr); err != nil {
			t.Fatalf("read strip %d: %v", addr, err)
		}
		durs = append(durs, time.Since(t0))
	}
	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	return durs[len(durs)*99/100]
}

// TestHedgedReadTailLatency: with one disk answering 50ms slow, the p99
// of hedged reads is at least 5x lower than unhedged reads of the same
// strips, the hedge counters move, and no goroutine (hedge loser or
// reaper) outlives the workload.
func TestHedgedReadTailLatency(t *testing.T) {
	const slowBy = 50 * time.Millisecond
	plain, plainFaults := newChaosEngine(t, 9, 2, Options{Workers: 2})
	hedged, hedgedFaults := newChaosEngine(t, 9, 2, Options{
		Workers: 2,
		Health: &HealthPolicy{
			HedgeMultiple: 3,
			HedgeFloor:    500 * time.Microsecond,
			HedgeCeiling:  3 * time.Millisecond,
		},
	})

	victim := hedged.arr.DataStripDisk(0)
	addrs := victimAddrs(hedged, victim, 8)
	if len(addrs) == 0 {
		t.Fatal("no data strips on victim disk")
	}
	for _, e := range []*Engine{plain, hedged} {
		for _, addr := range addrs {
			if err := e.WriteStrip(addr, chaosPattern(e.StripBytes(), addr, 0)); err != nil {
				t.Fatalf("seed write %d: %v", addr, err)
			}
		}
	}
	guard := testutil.NewLeakGuard()
	guard.Slack = 2 // runtime timer goroutines the hedge path may spin up
	guard.Deadline = 10 * time.Second
	plainFaults[victim].SetSlow(1.0, slowBy)
	hedgedFaults[victim].SetSlow(1.0, slowBy)

	const reads = 25
	plainP99 := readP99(t, plain, addrs, reads)
	hedgedP99 := readP99(t, hedged, addrs, reads)
	if hedgedP99*5 > plainP99 {
		t.Fatalf("hedged p99 %v not 5x below unhedged p99 %v", hedgedP99, plainP99)
	}
	st := hedged.Stats()
	if st.HedgeFired == 0 || st.HedgeWon == 0 {
		t.Fatalf("hedge counters did not move: %+v", st)
	}
	if st.HedgeFired != st.HedgeWon+st.HedgeWasted {
		t.Fatalf("fired %d != won %d + wasted %d", st.HedgeFired, st.HedgeWon, st.HedgeWasted)
	}
	if ps := plain.Stats(); ps.HedgeFired != 0 {
		t.Fatalf("unhedged engine fired hedges: %+v", ps)
	}

	// Hedged reads return before their slow loser drains; every loser and
	// its reaper must still exit promptly once the device answers.
	guard.Check(t)
}

// TestQuarantineRecoverCycle: a browning-out disk is quarantined
// automatically; while quarantined its reads are served by reconstruction
// (bit-identical to the oracle) and writes keep landing on it; once the
// disk answers fast again the probe loop releases it and direct reads see
// everything written during the quarantine.
func TestQuarantineRecoverCycle(t *testing.T) {
	e, faults := newChaosEngine(t, 9, 2, Options{
		Workers: 2,
		Health: &HealthPolicy{
			SlowOp:             2 * time.Millisecond,
			QuarantineSlowFrac: 0.45,
			QuarantineMinOps:   4,
			QuarantineProbe:    20 * time.Millisecond,
			QuarantineProbeOK:  2,
			QuarantineEscalate: 100, // out of reach: this test never escalates
		},
	})
	oracle := make(map[int64][]byte)
	for addr := int64(0); addr < e.Strips(); addr++ {
		p := chaosPattern(e.StripBytes(), addr, 0)
		if err := e.WriteStrip(addr, p); err != nil {
			t.Fatalf("seed write %d: %v", addr, err)
		}
		oracle[addr] = p
	}

	victim := e.arr.DataStripDisk(0)
	addrs := victimAddrs(e, victim, 6)
	faults[victim].SetSlow(1.0, 10*time.Millisecond)

	// Drive reads at the victim until the monitor quarantines it.
	deadline := time.Now().Add(10 * time.Second)
	for e.Health().Disks[victim].State != "quarantined" {
		if time.Now().After(deadline) {
			t.Fatalf("victim never quarantined: %+v", e.Health().Disks[victim])
		}
		if _, err := e.ReadStrip(addrs[0]); err != nil {
			t.Fatalf("read during brown-out: %v", err)
		}
	}

	// Quarantined reads reconstruct around the disk, bit-identical.
	before := e.Stats().QuarantinedReads
	for _, addr := range addrs {
		got, err := e.ReadStrip(addr)
		if err != nil {
			t.Fatalf("quarantined read %d: %v", addr, err)
		}
		if !bytes.Equal(got, oracle[addr]) {
			t.Fatalf("quarantined read %d differs from oracle", addr)
		}
	}
	if got := e.Stats().QuarantinedReads; got <= before {
		t.Fatalf("quarantined reads did not increment: %d -> %d", before, got)
	}

	// Writes land on the quarantined disk (no rebuild needed on release).
	for _, addr := range addrs {
		p := chaosPattern(e.StripBytes(), addr, 1)
		if err := e.WriteStrip(addr, p); err != nil {
			t.Fatalf("quarantined write %d: %v", addr, err)
		}
		oracle[addr] = p
	}

	// Disk recovers; the probe loop must release it on its own.
	faults[victim].SetSlow(0, 0)
	deadline = time.Now().Add(10 * time.Second)
	for e.Health().Disks[victim].State == "quarantined" {
		if time.Now().After(deadline) {
			t.Fatalf("victim never released: %+v", e.Health().Disks[victim])
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Direct reads after release: the quarantine-time writes are on disk.
	for addr, want := range oracle {
		got, err := e.ReadStrip(addr)
		if err != nil {
			t.Fatalf("read %d after release: %v", addr, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("strip %d differs from oracle after release", addr)
		}
	}
	h := e.Health()
	if h.Quarantines != 1 || h.QuarantineReleases != 1 || h.QuarantineEscalations != 0 {
		t.Fatalf("quarantine totals: %+v", h)
	}
	if h.Disks[victim].Quarantines != 1 {
		t.Fatalf("victim quarantine count: %+v", h.Disks[victim])
	}
	if st := e.Stats(); st.Evictions != 0 {
		t.Fatalf("recover cycle must not evict: %+v", st)
	}
}

// TestQuarantineEscalatesToEviction: a disk that re-enters quarantine
// past QuarantineEscalate is evicted and healed onto a spare, ending
// healthy with oracle-identical contents.
func TestQuarantineEscalatesToEviction(t *testing.T) {
	e, faults := newChaosEngine(t, 9, 2, Options{
		Workers: 2,
		Health: &HealthPolicy{
			SlowOp:             2 * time.Millisecond,
			QuarantineSlowFrac: 0.45,
			QuarantineMinOps:   2,
			QuarantineProbe:    10 * time.Millisecond,
			QuarantineProbeOK:  2,
			QuarantineEscalate: 1, // second quarantine attempt escalates
		},
	})
	spare, err := store.NewMemDevice(e.arr.Cycles()*int64(e.an.SlotsPerDisk()), testStrip)
	if err != nil {
		t.Fatal(err)
	}
	e.AddSpareDevice(spare)

	oracle := make(map[int64][]byte)
	for addr := int64(0); addr < e.Strips(); addr++ {
		p := chaosPattern(e.StripBytes(), addr, 0)
		if err := e.WriteStrip(addr, p); err != nil {
			t.Fatalf("seed write %d: %v", addr, err)
		}
		oracle[addr] = p
	}
	victim := e.arr.DataStripDisk(0)
	addrs := victimAddrs(e, victim, 4)

	// Round 1: brown-out -> quarantine -> recovery -> release.
	faults[victim].SetSlow(1.0, 10*time.Millisecond)
	deadline := time.Now().Add(10 * time.Second)
	for e.Health().Disks[victim].State != "quarantined" {
		if time.Now().After(deadline) {
			t.Fatalf("round 1: never quarantined: %+v", e.Health().Disks[victim])
		}
		if _, err := e.ReadStrip(addrs[0]); err != nil {
			t.Fatalf("round 1 read: %v", err)
		}
	}
	faults[victim].SetSlow(0, 0)
	deadline = time.Now().Add(10 * time.Second)
	for e.Health().QuarantineReleases == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("round 1: never released: %+v", e.Health().Disks[victim])
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Round 2: the relapse escalates to eviction and the healer rebuilds
	// onto the spare.
	faults[victim].SetSlow(1.0, 10*time.Millisecond)
	deadline = time.Now().Add(15 * time.Second)
	for {
		st := e.Stats()
		if st.QuarantineEscalations >= 1 && st.Evictions >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("round 2: never escalated: %+v", st)
		}
		if _, err := e.ReadStrip(addrs[0]); err != nil {
			t.Fatalf("round 2 read: %v", err)
		}
	}
	// The healer runs the whole fail -> spare -> rebuild pipeline; wait for
	// the spare to be adopted, not just for "no failed disks" (which is
	// also true before the healer has failed the disk at all).
	deadline = time.Now().Add(15 * time.Second)
	for {
		st, status := e.Stats(), e.Status()
		if st.SparesUsed == 1 && len(status.Failed) == 0 && !status.Rebuilding {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("heal after escalation incomplete: %+v / %+v", st, status)
		}
		time.Sleep(5 * time.Millisecond)
	}

	st := e.Stats()
	if st.Quarantines != 1 || st.QuarantineReleases != 1 || st.QuarantineEscalations != 1 {
		t.Fatalf("escalation totals: %+v", st)
	}
	if st.Evictions != 1 || st.SparesUsed != 1 {
		t.Fatalf("eviction totals: %+v", st)
	}
	for addr, want := range oracle {
		got, err := e.ReadStrip(addr)
		if err != nil {
			t.Fatalf("read %d after heal: %v", addr, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("strip %d differs from oracle after heal", addr)
		}
	}
}

// TestManualQuarantineRelease: the operator path works without any
// health policy — quarantine, read through reconstruction, release.
func TestManualQuarantineRelease(t *testing.T) {
	e, _ := newChaosEngine(t, 9, 1, Options{})
	p := chaosPattern(e.StripBytes(), 0, 0)
	if err := e.WriteStrip(0, p); err != nil {
		t.Fatal(err)
	}
	victim := e.arr.DataStripDisk(0)
	if err := e.QuarantineDisk(victim); err != nil {
		t.Fatal(err)
	}
	if got := e.Health().Disks[victim].State; got != "quarantined" {
		t.Fatalf("state = %q, want quarantined", got)
	}
	got, err := e.ReadStrip(0)
	if err != nil || !bytes.Equal(got, p) {
		t.Fatalf("quarantined read: %v", err)
	}
	if e.Stats().QuarantinedReads == 0 {
		t.Fatal("read did not avoid the quarantined disk")
	}
	if err := e.ReleaseDisk(victim); err != nil {
		t.Fatal(err)
	}
	if got := e.Health().Disks[victim].State; got != "healthy" {
		t.Fatalf("state after release = %q, want healthy", got)
	}
	if err := e.ReleaseDisk(victim); err != nil { // double release is a no-op
		t.Fatal(err)
	}
	if err := e.QuarantineDisk(len(e.mon.disks) + 5); err == nil {
		t.Fatal("quarantine of bogus disk must fail")
	}
}

// TestDownDiskIsNotQuarantined: a down path is read-avoided but is not a
// slowness verdict — the disk reports "down", no quarantine is counted,
// the probe loop leaves it alone, and lifting either fact leaves the
// other's read-avoid in force.
func TestDownDiskIsNotQuarantined(t *testing.T) {
	e, _ := newChaosEngine(t, 9, 2, Options{
		Workers: 2,
		Health: &HealthPolicy{
			QuarantineProbe:   2 * time.Millisecond,
			QuarantineProbeOK: 1 << 20, // probes never release: the test does
		},
	})
	oracle := make(map[int64][]byte)
	for addr := int64(0); addr < e.Strips(); addr++ {
		p := chaosPattern(e.StripBytes(), addr, 0)
		if err := e.WriteStrip(addr, p); err != nil {
			t.Fatalf("seed write %d: %v", addr, err)
		}
		oracle[addr] = p
	}
	victim := e.arr.DataStripDisk(0)
	avoided := func() bool { return slices.Contains(e.arr.ReadAvoided(), victim) }
	state := func() string { return e.Health().Disks[victim].State }

	if err := e.SetDiskDown(victim, true); err != nil {
		t.Fatal(err)
	}
	if got := state(); got != "down" || !avoided() {
		t.Fatalf("down disk: state %q, read-avoided %v", got, avoided())
	}
	// Idle for many probe periods: nothing reads the down disk.
	before := e.arr.DiskStats()[victim].ReadOps
	time.Sleep(40 * time.Millisecond)
	if after := e.arr.DiskStats()[victim].ReadOps; after != before {
		t.Fatalf("idle down disk read %d times", after-before)
	}
	for _, addr := range victimAddrs(e, victim, 4) {
		if got, err := e.ReadStrip(addr); err != nil || !bytes.Equal(got, oracle[addr]) {
			t.Fatalf("read %d around down disk: %v", addr, err)
		}
	}
	if h := e.Health(); h.Quarantines != 0 || h.Disks[victim].Quarantines != 0 {
		t.Fatalf("down counted as quarantine: %+v", h)
	}

	// Operator quarantine on a down disk: down outranks it, and releasing
	// it lifts only the slowness verdict.
	if err := e.QuarantineDisk(victim); err != nil {
		t.Fatal(err)
	}
	if got := state(); got != "down" {
		t.Fatalf("down+quarantined state %q, want down", got)
	}
	if err := e.ReleaseDisk(victim); err != nil {
		t.Fatal(err)
	}
	if !avoided() {
		t.Fatal("release lifted the down disk's read-avoid")
	}

	// The other order: the path comes back under a quarantine, which keeps
	// the disk read-avoided until it is released.
	if err := e.QuarantineDisk(victim); err != nil {
		t.Fatal(err)
	}
	if err := e.SetDiskDown(victim, false); err != nil {
		t.Fatal(err)
	}
	if got := state(); got != "quarantined" || !avoided() {
		t.Fatalf("path back under quarantine: state %q, read-avoided %v", got, avoided())
	}
	if err := e.ReleaseDisk(victim); err != nil {
		t.Fatal(err)
	}
	if got := state(); got != "healthy" || avoided() {
		t.Fatalf("released: state %q, read-avoided %v", got, avoided())
	}
	if h := e.Health(); h.Quarantines != 2 || h.QuarantineEscalations != 0 || h.Evictions != 0 {
		t.Fatalf("only the two operator quarantines count: %+v", h)
	}
}

// TestPermanentErrorOnDownPathEvicts: a permanent error from a down disk
// is the path's loss, not one strike of EvictAfter — a single probe read
// evicts the disk, the healer rebuilds it onto a spare, and the fresh
// device comes back neither down nor read-avoided.
func TestPermanentErrorOnDownPathEvicts(t *testing.T) {
	e, faults := newChaosEngine(t, 9, 2, Options{
		Workers: 2,
		Health:  &HealthPolicy{EvictAfter: 1000}, // out of reach: only the down path evicts
	})
	spare, err := store.NewMemDevice(e.arr.Cycles()*int64(e.an.SlotsPerDisk()), testStrip)
	if err != nil {
		t.Fatal(err)
	}
	e.AddSpareDevice(spare)
	victim := e.arr.DataStripDisk(0)
	if err := e.SetDiskDown(victim, true); err != nil {
		t.Fatal(err)
	}
	faults[victim].FailNow()
	buf := make([]byte, testStrip)
	if err := e.arr.ProbeDiskStrip(victim, 0, buf); err == nil {
		t.Fatal("probe of a failed device succeeded")
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := e.Stats()
		if st.Evictions == 1 && st.SparesUsed == 1 && !e.Rebuilding() && len(e.arr.FailedDisks()) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("one permanent error on a down path did not evict and heal: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := e.Health().Disks[victim].State; got != "healthy" || len(e.DownDisks()) != 0 || len(e.arr.ReadAvoided()) != 0 {
		t.Fatalf("after heal: state %q, down %v, avoided %v", got, e.DownDisks(), e.arr.ReadAvoided())
	}
}

// TestQuarantineNeverReadsDownDisks: with six of nine disks down, every data
// strip the three survivors decode reads back — also with one survivor
// quarantined, which only orders the survivors a read tries first. A down
// disk is never read: a strip on one that does not decode around it is
// refused as unreachable.
func TestQuarantineNeverReadsDownDisks(t *testing.T) {
	down := []int{1, 2, 4, 5, 7, 8}
	for _, slow := range []int{-1, 0, 3, 6} {
		e, faults := newChaosEngine(t, 9, 3, Options{Workers: 2, Health: &HealthPolicy{EvictAfter: 1 << 30}})
		oracle := make([][]byte, e.Strips())
		for addr := range oracle {
			oracle[addr] = chaosPattern(e.StripBytes(), int64(addr), 0)
			if err := e.WriteStrip(int64(addr), oracle[addr]); err != nil {
				t.Fatalf("seed write %d: %v", addr, err)
			}
		}
		for _, d := range down {
			faults[d].SetTransientRate(1)
			if err := e.SetDiskDown(d, true); err != nil {
				t.Fatal(err)
			}
		}
		if slow >= 0 {
			if err := e.QuarantineDisk(slow); err != nil {
				t.Fatal(err)
			}
		}
		av := e.arr.Availability(down)
		before := e.arr.DiskStats()
		decodable, failed, refused, misrefused := 0, 0, 0, 0
		var first, firstRefusal error
		for addr, want := range oracle {
			st, _ := e.arr.LocateDataStrip(int64(addr))
			got, err := e.ReadStrip(int64(addr))
			switch {
			case !av.StripAvailable(st):
				if refused++; !errors.Is(err, store.ErrUnreachable) {
					if misrefused++; firstRefusal == nil {
						firstRefusal = fmt.Errorf("strip %d (%v): %v", addr, st, err)
					}
				}
				continue
			case err != nil || !bytes.Equal(got, want):
				if failed++; first == nil {
					first = fmt.Errorf("strip %d (%v): %v", addr, st, err)
				}
			}
			decodable++
		}
		if failed > 0 {
			t.Errorf("quarantined %d: %d of %d decodable strips failed, first %v", slow, failed, decodable, first)
		}
		if refused == 0 || misrefused > 0 {
			t.Errorf("quarantined %d: %d of %d undecodable strips not refused as unreachable, first %v", slow, misrefused, refused, firstRefusal)
		}
		after := e.arr.DiskStats()
		for _, d := range down {
			if n := after[d].ReadOps - before[d].ReadOps; n != 0 {
				t.Errorf("quarantined %d: down disk %d read %d times", slow, d, n)
			}
		}
	}
}
