package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/oiraid/oiraid/internal/engine"
	"github.com/oiraid/oiraid/internal/store"
	"github.com/oiraid/oiraid/internal/store/netdev"
)

// TestDegradationChaosSweep is the graceful-degradation oracle: a seeded
// composition of torn responses, slow bursts, one permanent node kill
// (gamma) and one transient partition (beta) pushes the array beyond its
// 3-failure tolerance — six of nine disks dark. The sweep then asserts
// the whole degradation contract at once:
//
//   - the serving mode demotes to partial-read and writes are fenced
//     with store.ErrReadOnly (never silently dropped, never acked);
//   - every strip the layout can still decode reads back bit-exact;
//   - every undecodable strip errors — stale or fabricated data is the
//     one unforgivable answer;
//   - when beta returns the mode promotes to writable and acked writes
//     flow again; when gamma's grace expires its disks are evicted and
//     healed onto survivors;
//   - the array ends in mode normal with a clean fsck, every acked
//     write durable — and again after a full remount.
func TestDegradationChaosSweep(t *testing.T) {
	seeds := []int64{13, 37}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runDegradationSweep(t, seed)
		})
	}
}

func runDegradationSweep(t *testing.T, seed int64) {
	tc := newTestCluster(t, seed)
	opts := tc.options(seed)
	opts.Client.Timeout = 250 * time.Millisecond
	// Grace long enough that beta's transient outage — held open while
	// the partial-mode oracle scan runs — never turns into an eviction
	// (Lost is permanent: a node declared lost never rejoins).
	opts.Client.Grace = 10 * time.Second
	opts.Format = &FormatSpec{Disks: 9, Cycles: 3, StripBytes: 512}
	c, err := Open(opts)
	if err != nil {
		t.Fatalf("open: %v", err)
	}

	strips := c.Eng.Strips()
	const stripBytes = 512
	oracle := make([]atomic.Int64, strips)    // last ACKED version per strip
	attempted := make([]atomic.Int64, strips) // newest version ever issued
	pattern := func(s, ver int64) []byte {
		p := make([]byte, stripBytes)
		binary.BigEndian.PutUint64(p[0:8], uint64(s))
		binary.BigEndian.PutUint64(p[8:16], uint64(ver))
		for i := 16; i < len(p); i++ {
			p[i] = byte(int64(i)*seed + s + ver)
		}
		return p
	}
	for s := int64(0); s < strips; s++ {
		if err := c.Eng.WriteStrip(s, pattern(s, 0)); err != nil {
			t.Fatalf("preload %d: %v", s, err)
		}
	}

	// Workers own disjoint strips and retry until acked; a fenced write
	// (ErrReadOnly) is an expected verdict mid-sweep, never an ack.
	const workers = 3
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var fencedSeen, writeErrs, neverAcked atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ver := int64(0)
			for {
				select {
				case <-stop:
					return
				default:
				}
				for s := int64(w); s < strips; s += workers {
					ver++
					attempted[s].Store(ver)
					for attempt := 0; ; attempt++ {
						err := c.Eng.WriteStrip(s, pattern(s, ver))
						if err == nil {
							oracle[s].Store(ver)
							break
						}
						if errors.Is(err, store.ErrReadOnly) {
							fencedSeen.Add(1)
						} else {
							writeErrs.Add(1)
						}
						if attempt > 4000 {
							// Liveness violation; recorded here and asserted on
							// the main goroutine after the drain (a worker must
							// not Fail a test that already finished).
							neverAcked.Add(1)
							return
						}
						select {
						case <-stop:
							return
						case <-time.After(5 * time.Millisecond):
						}
					}
					select {
					case <-stop:
						return
					default:
					}
				}
			}
		}(w)
	}

	// Phase 0 — torn responses on alpha plus a slow burst on beta: the
	// node clients' wire retry must absorb both without any durability
	// consequence.
	tc.faults["alpha"].SetTorn(7)
	tc.faults["beta"].SetDelay(2 * time.Millisecond)
	time.Sleep(200 * time.Millisecond)
	tc.faults["alpha"].SetTorn(0)
	tc.faults["beta"].SetDelay(0)

	// Phase 1 — beyond tolerance: gamma dies for good, beta partitions
	// transiently. Six disks dark is past any-3 tolerance, so the engine
	// must demote to partial-read.
	tc.faults["gamma"].SetPartition(netdev.PartDrop)
	tc.faults["beta"].SetPartition(netdev.PartDrop)
	betaDownAt := time.Now()
	demoteDeadline := time.Now().Add(8 * time.Second)
	for c.Eng.Mode() != engine.ModePartial {
		if time.Now().After(demoteDeadline) {
			t.Fatalf("mode never demoted to partial-read: %v (down %v)", c.Eng.Mode(), c.Eng.DownDisks())
		}
		// A little read traffic so breakers trip and down detection
		// converges even while writers are fenced.
		c.Eng.ReadStrip(int64(time.Now().UnixNano()) % strips)
		time.Sleep(10 * time.Millisecond)
	}

	// Per-strip availability oracle while beyond tolerance: classify
	// every data strip under the down set, then demand bit-exact reads
	// for the decodable ones and a refusal — never data — for the rest.
	down := c.Eng.DownDisks()
	av := c.Eng.Array().Availability(down)
	if av.Recoverable {
		t.Fatalf("down set %v classified recoverable in partial mode", down)
	}
	served, refused := 0, 0
	for s := int64(0); s < strips; s++ {
		st, _ := c.Eng.Array().LocateDataStrip(s)
		if av.StripAvailable(st) {
			// Decodable: must converge to a bit-exact read (first touches
			// may still be tripping breakers on down peers).
			var got []byte
			var rerr error
			for deadline := time.Now().Add(5 * time.Second); ; {
				got, rerr = c.Eng.ReadStrip(s)
				if rerr == nil || time.Now().After(deadline) {
					break
				}
				time.Sleep(5 * time.Millisecond)
			}
			if rerr != nil {
				t.Fatalf("decodable strip %d (%v) unreadable in partial mode: %v", s, st, rerr)
			}
			ver := int64(binary.BigEndian.Uint64(got[8:16]))
			if ver < oracle[s].Load() || ver > attempted[s].Load() || !bytes.Equal(got, pattern(s, ver)) {
				t.Fatalf("decodable strip %d: version %d outside [%d,%d] or content mismatch",
					s, ver, oracle[s].Load(), attempted[s].Load())
			}
			served++
		} else {
			if got, rerr := c.Eng.ReadStrip(s); rerr == nil {
				t.Fatalf("undecodable strip %d (%v) returned data in partial mode: %x", s, st, got[:16])
			}
			refused++
		}
	}
	if served == 0 || refused == 0 {
		t.Fatalf("partial scan served %d refused %d, want both non-zero", served, refused)
	}
	// The fence actually fired: workers saw ErrReadOnly and the engine
	// counted fenced admissions.
	if fencedSeen.Load() == 0 {
		t.Fatalf("no worker observed a fenced write in partial mode")
	}
	if c.Eng.Stats().WritesFenced == 0 {
		t.Fatalf("engine counted no fenced writes")
	}

	// Phase 2 — beta returns inside its grace window: the down set drops
	// to gamma's three disks, which is within tolerance, so the mode must
	// promote to a writable one and acked writes must flow again.
	tc.faults["beta"].SetPartition(netdev.PartNone)
	if c.Client("beta").Lost() {
		t.Fatalf("beta declared lost before its partition healed (down %v, grace %v): sweep timing broken",
			time.Since(betaDownAt).Round(time.Millisecond), opts.Client.Grace)
	}
	promoteDeadline := time.Now().Add(15 * time.Second)
	for !c.Eng.Mode().Writable() {
		if time.Now().After(promoteDeadline) {
			t.Fatalf("mode never promoted after beta healed: %v (down %v)", c.Eng.Mode(), c.Eng.DownDisks())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if c.Client("beta").Lost() {
		t.Fatalf("beta declared lost during a sub-grace partition")
	}

	// Phase 3 — gamma's grace expires: its disks are evicted, healed
	// onto survivors, and the array must return all the way to normal.
	healDeadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(healDeadline) {
		st := c.Eng.Status()
		if len(c.DisksOn("gamma")) == 0 && len(st.Failed) == 0 && !c.Eng.Rebuilding() && c.Eng.Mode() == engine.ModeNormal {
			break
		}
		time.Sleep(25 * time.Millisecond)
	}
	if !c.Client("gamma").Lost() {
		t.Fatalf("gamma never declared lost")
	}
	close(stop)
	wg.Wait()
	c.Eng.RebuildWait()
	if n := neverAcked.Load(); n != 0 {
		t.Fatalf("%d worker writes never acked within the retry budget", n)
	}
	if m := c.Eng.Mode(); m != engine.ModeNormal {
		t.Fatalf("mode after heal: %v, want normal (down %v, failed %v)", m, c.Eng.DownDisks(), c.Eng.Status().Failed)
	}
	if st := c.Eng.Status(); st.Mode != "normal" || len(st.Down) != 0 {
		t.Fatalf("status after heal: mode %q down %v", st.Mode, st.Down)
	}
	t.Logf("seed %d: %d served / %d refused in partial mode, %d fenced writes, %d transport errors absorbed",
		seed, served, refused, fencedSeen.Load(), writeErrs.Load())

	verify := func(e *engine.Engine, when string) {
		for s := int64(0); s < strips; s++ {
			got, err := e.ReadStrip(s)
			if err != nil {
				t.Fatalf("%s: read %d: %v", when, s, err)
			}
			ver := int64(binary.BigEndian.Uint64(got[8:16]))
			acked, issued := oracle[s].Load(), attempted[s].Load()
			if ver < acked || ver > issued {
				t.Fatalf("%s: strip %d version %d outside [acked %d, attempted %d]", when, s, ver, acked, issued)
			}
			if !bytes.Equal(got, pattern(s, ver)) {
				t.Fatalf("%s: strip %d content does not match any issued write", when, s)
			}
		}
	}
	verify(c.Eng, "after heal")
	rep, err := c.Eng.Fsck(context.Background(), false)
	if err != nil || !rep.Clean {
		t.Fatalf("fsck after heal: %v %+v", err, rep)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// Remount with gamma still dark: survivors alone carry the array.
	ropts := tc.options(seed + 1)
	ropts.Client.Timeout = 250 * time.Millisecond
	ropts.Client.Grace = 4 * time.Second
	ropts.Format = nil
	c2, err := Open(ropts)
	if err != nil {
		t.Fatalf("remount: %v", err)
	}
	defer c2.Close()
	if !c2.Mount.WasClean {
		t.Fatalf("remount after clean close saw an unclean seal")
	}
	if m := c2.Eng.Mode(); m != engine.ModeNormal {
		t.Fatalf("remount mode %v, want normal", m)
	}
	verify(c2.Eng, "after remount")
	rep, err = c2.Eng.Fsck(context.Background(), false)
	if err != nil || !rep.Clean {
		t.Fatalf("fsck after remount: %v %+v", err, rep)
	}
}

// TestReachHookOutOfOrder: a node client runs each reachability hook in a
// goroutine of its own, so the up of a finished down episode can run after
// the down of the next, and a down after the up that ended it. Delivered so,
// each hook leaves the node's disks marked as the client reports: down while
// it is down, clear once it is back.
func TestReachHookOutOfOrder(t *testing.T) {
	tc := newTestCluster(t, 3)
	opts := tc.options(3)
	opts.Client.Grace = time.Hour
	c, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	beta := c.DisksOn("beta")
	marked := func() bool {
		down := c.Eng.DownDisks()
		for _, d := range beta {
			if !slices.Contains(down, d) {
				return false
			}
		}
		return true
	}
	cleared := func() bool {
		return !slices.ContainsFunc(c.Eng.DownDisks(), func(d int) bool { return slices.Contains(beta, d) })
	}
	wait := func(cond func() bool) bool {
		for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(5 * time.Millisecond) {
			if time.Now().After(deadline) {
				return false
			}
		}
		return true
	}

	tc.faults["beta"].SetPartition(netdev.PartDrop)
	if err := c.Client("beta").Ping(); err == nil || !wait(marked) {
		t.Fatalf("beta partitioned: ping %v, down disks %v, want %v among them", err, c.Eng.DownDisks(), beta)
	}
	c.nodeReach(c.Eng, "beta") // the up of an earlier episode, run late
	if !marked() {
		t.Fatalf("a late up hook cleared the disks of a down node: down disks %v, want %v among them", c.Eng.DownDisks(), beta)
	}

	tc.faults["beta"].SetPartition(netdev.PartNone)
	if !wait(func() bool { return !c.Client("beta").Down() && cleared() }) {
		t.Fatalf("beta back: down %v, down disks %v", c.Client("beta").Down(), c.Eng.DownDisks())
	}
	c.nodeReach(c.Eng, "beta") // the down of the episode just ended, run late
	if !cleared() {
		t.Fatalf("a late down hook marked the disks of a reachable node: down disks %v", c.Eng.DownDisks())
	}
}
