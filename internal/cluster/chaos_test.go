package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/oiraid/oiraid/internal/store"
	"github.com/oiraid/oiraid/internal/store/netdev"
)

// TestClusterChaosSweep is the cluster durability oracle: concurrent
// writers keep the array hot while one node suffers an asymmetric
// partition (requests land, acks are dropped) and another is killed for
// good. Every write a worker saw acked must read back bit-identical
// after the heal — and again after a full remount from the persisted
// manifest. Foreground reads must keep succeeding during the partition
// via degraded reconstruction.
func TestClusterChaosSweep(t *testing.T) {
	seeds := []int64{11, 29}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runChaosSweep(t, seed)
		})
	}
}

func runChaosSweep(t *testing.T, seed int64) {
	tc := newTestCluster(t, seed)
	opts := tc.options(seed)
	opts.Client.Timeout = 250 * time.Millisecond
	opts.Client.Grace = 700 * time.Millisecond
	opts.Format = &FormatSpec{Disks: 9, Cycles: 3, StripBytes: 512}
	c, err := Open(opts)
	if err != nil {
		t.Fatalf("open: %v", err)
	}

	strips := c.Eng.Strips()
	stripBytes := 512

	// oracle[s] is the version of the last ACKED write to strip s;
	// attempted[s] is the newest version ever ISSUED. A strip must hold
	// some version in [oracle, attempted]: acked writes are durable, and
	// a write whose ack was lost in the network may legitimately have
	// landed. Workers own disjoint strips (s % workers == w) so no
	// cross-worker ordering is needed.
	const workers = 4
	oracle := make([]atomic.Int64, strips)
	attempted := make([]atomic.Int64, strips)
	pattern := func(s, ver int64) []byte {
		p := make([]byte, stripBytes)
		binary.BigEndian.PutUint64(p[0:8], uint64(s))
		binary.BigEndian.PutUint64(p[8:16], uint64(ver))
		for i := 16; i < len(p); i++ {
			p[i] = byte(int64(i)*seed + s + ver)
		}
		return p
	}

	// Preload every strip at version 0 so reads always have content.
	for s := int64(0); s < strips; s++ {
		if err := c.Eng.WriteStrip(s, pattern(s, 0)); err != nil {
			t.Fatalf("preload %d: %v", s, err)
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var writeErrs atomic.Int64
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
					// Retry until acked — even across the stop signal, so
					// no worker abandons a half-committed write (stop only
					// fires once the cluster is healed, so the drain is
					// quick). An errored write is not in the oracle; an
					// acked one must be durable forever.
					for attempt := 0; ; attempt++ {
						if err := c.Eng.WriteStrip(s, pattern(s, ver)); err == nil {
							oracle[s].Store(ver)
							break
						}
						writeErrs.Add(1)
						if attempt > 2000 {
							t.Errorf("worker %d: strip %d never acked", w, s)
							return
						}
						time.Sleep(5 * time.Millisecond)
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

	// Phase 1: asymmetric partition on beta — writes reach the node but
	// acks are dropped, so workers see errors and re-send. Shorter than
	// the grace window: beta must come back, not be declared lost.
	time.Sleep(100 * time.Millisecond)
	tc.faults["beta"].SetPartition(netdev.PartAsym)

	// Foreground reads during the partition must succeed via degraded
	// reconstruction once beta's disks are marked down.
	readDeadline := time.Now().Add(500 * time.Millisecond)
	okReads := 0
	for time.Now().Before(readDeadline) {
		s := int64(okReads) % strips
		if _, err := c.Eng.ReadStrip(s); err == nil {
			okReads++
		}
		time.Sleep(2 * time.Millisecond)
	}
	if okReads == 0 {
		t.Fatalf("no foreground read succeeded during asymmetric partition")
	}
	tc.faults["beta"].SetPartition(netdev.PartNone)
	if c.Client("beta").Lost() {
		t.Fatalf("beta declared lost during a sub-grace partition")
	}

	// Phase 2: kill gamma for good. Grace elapses, the node is declared
	// lost, its disks are evicted, and replacements land on survivors.
	time.Sleep(100 * time.Millisecond)
	tc.faults["gamma"].SetPartition(netdev.PartDrop)
	healDeadline := time.Now().Add(45 * time.Second)
	for time.Now().Before(healDeadline) {
		st := c.Eng.Status()
		if len(c.DisksOn("gamma")) == 0 && len(st.Failed) == 0 && !c.Eng.Rebuilding() {
			break
		}
		time.Sleep(25 * time.Millisecond)
	}
	if !c.Client("gamma").Lost() {
		t.Fatalf("gamma never declared lost")
	}
	if moved := c.DisksOn("gamma"); len(moved) != 0 {
		t.Fatalf("disks still placed on gamma after heal: %v", moved)
	}

	// Let workers run a little longer against the healed topology, then
	// stop and verify the oracle.
	time.Sleep(150 * time.Millisecond)
	close(stop)
	wg.Wait()
	c.Eng.RebuildWait()
	t.Logf("seed %d: %d write errors absorbed by retry, %d ok degraded reads",
		seed, writeErrs.Load(), okReads)

	verify := func(e interface {
		ReadStrip(int64) ([]byte, error)
	}, when string) {
		for s := int64(0); s < strips; s++ {
			got, err := e.ReadStrip(s)
			if err != nil {
				t.Fatalf("%s: read %d: %v", when, s, err)
			}
			gotVer := int64(binary.BigEndian.Uint64(got[8:16]))
			gotS := int64(binary.BigEndian.Uint64(got[0:8]))
			acked, issued := oracle[s].Load(), attempted[s].Load()
			if gotVer < acked || gotVer > issued {
				t.Fatalf("%s: strip %d: version %d outside [acked %d, attempted %d] (s-field %d, pattern-match %v)",
					when, s, gotVer, acked, issued, gotS, bytes.Equal(got, pattern(s, gotVer)))
			}
			if !bytes.Equal(got, pattern(s, gotVer)) {
				t.Fatalf("%s: strip %d: content does not match any issued write", when, s)
			}
		}
	}
	verify(c.Eng, "after heal")
	rep, err := c.Eng.Fsck(context.Background(), false)
	if err != nil || !rep.Clean {
		t.Fatalf("fsck after heal: %v %+v", err, rep)
	}

	// Close seals through the surviving nodes; gamma's superblock has
	// been rebound to a survivor, so the seal must succeed cleanly.
	if err := c.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// Remount from the persisted manifest: gamma still dark. The mount
	// must come up from the surviving placements alone.
	ropts := tc.options(seed + 1)
	ropts.Client.Timeout = 250 * time.Millisecond
	ropts.Client.Grace = 700 * time.Millisecond
	ropts.Format = nil
	c2, err := Open(ropts)
	if err != nil {
		t.Fatalf("remount: %v", err)
	}
	defer c2.Close()
	if !c2.Mount.WasClean {
		t.Fatalf("remount after clean close saw an unclean seal")
	}
	verify(c2.Eng, "after remount")
	rep, err = c2.Eng.Fsck(context.Background(), false)
	if err != nil || !rep.Clean {
		t.Fatalf("fsck after remount: %v %+v", err, rep)
	}
}

// TestClusterDegradedReadsDuringPartition pins the transient-vs-lost
// distinction: a full partition shorter than the grace window must not
// evict anything — reads keep flowing via reconstruction, and the node
// rejoins with its data intact when the partition lifts.
func TestClusterDegradedReadsDuringPartition(t *testing.T) {
	tc := newTestCluster(t, 41)
	opts := tc.options(41)
	opts.Client.Grace = 5 * time.Second // far beyond the test's horizon
	c, err := Open(opts)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer c.Close()

	data := make([]byte, 512)
	for s := int64(0); s < c.Eng.Strips(); s++ {
		for i := range data {
			data[i] = byte(int64(i)*41 + s)
		}
		if err := c.Eng.WriteStrip(s, data); err != nil {
			t.Fatalf("write %d: %v", s, err)
		}
	}

	tc.faults["alpha"].SetPartition(netdev.PartDrop)
	// First touches trip the breaker and mark alpha's disks down; after
	// that every strip must read back correctly via reconstruction.
	deadline := time.Now().Add(10 * time.Second)
	var lastErr error
	for time.Now().Before(deadline) {
		lastErr = nil
		for s := int64(0); s < c.Eng.Strips(); s++ {
			buf, err := c.Eng.ReadStrip(s)
			if err != nil {
				lastErr = err
				break
			}
			for i := range data {
				data[i] = byte(int64(i)*41 + s)
			}
			if !bytes.Equal(buf, data) {
				t.Fatalf("strip %d corrupt during partition", s)
			}
		}
		if lastErr == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if lastErr != nil {
		t.Fatalf("degraded reads never converged: %v", lastErr)
	}
	if c.Client("alpha").Lost() {
		t.Fatalf("alpha declared lost inside grace window")
	}
	if st := c.Eng.Status(); len(st.Failed) != 0 {
		t.Fatalf("transient partition evicted disks: %v", st.Failed)
	}
	// Writes to alpha's strips while partitioned fail with the
	// unreachable sentinel — transient, never permanent.
	var werr error
	for s := int64(0); s < c.Eng.Strips(); s++ {
		if werr = c.Eng.WriteStrip(s, data); werr != nil {
			break
		}
	}
	if werr != nil {
		if !errors.Is(werr, store.ErrUnreachable) && !errors.Is(werr, store.ErrTransient) {
			t.Fatalf("partitioned write error = %v, want unreachable/transient", werr)
		}
	}

	// Lift the partition: the prober brings alpha back, the down marks
	// clear, and full-stripe writes succeed again.
	tc.faults["alpha"].SetPartition(netdev.PartNone)
	recovered := false
	deadline = time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if !c.Client("alpha").Down() {
			recovered = true
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if !recovered {
		t.Fatalf("alpha never recovered after partition lift")
	}
	for s := int64(0); s < c.Eng.Strips(); s++ {
		for i := range data {
			data[i] = byte(int64(i)*43 + s)
		}
		if err := c.Eng.WriteStrip(s, data); err != nil {
			t.Fatalf("write %d after rejoin: %v", s, err)
		}
	}
	rep, err := c.Eng.Fsck(context.Background(), false)
	if err != nil || !rep.Clean {
		t.Fatalf("fsck after rejoin: %v %+v", err, rep)
	}
}

// TestClusterPartitionsAreNotSlowness: a node partitioned again and again
// inside its grace window is down each time, not slow. Its disks report
// "down", the engine sends them no read while the array is idle, and no
// quarantine cycle is counted — so when the node later browns out for
// real, its disks are quarantined once and nothing escalates to an
// eviction and a full rebuild.
func TestClusterPartitionsAreNotSlowness(t *testing.T) {
	const slowOp = 25 * time.Millisecond
	tc := newTestCluster(t, 47)
	opts := tc.options(47)
	opts.Client.Grace = 30 * time.Second // no partition here outlasts it
	opts.Engine.Health.SlowOp = slowOp
	opts.Engine.Health.QuarantineSlowFrac = 0.45 // QuarantineEscalate keeps its default
	c, err := Open(opts)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer c.Close()

	data := make([]byte, 512)
	for s := int64(0); s < c.Eng.Strips(); s++ {
		if err := c.Eng.WriteStrip(s, data); err != nil {
			t.Fatalf("write %d: %v", s, err)
		}
	}
	beta := c.DisksOn("beta")
	// One data strip per beta disk: a read of it lands on that disk alone.
	var betaAddrs []int64
	for _, d := range beta {
		for s := int64(0); s < c.Eng.Strips(); s++ {
			if c.Eng.Array().DataStripDisk(s) == d {
				betaAddrs = append(betaAddrs, s)
				break
			}
		}
	}
	readBeta := func() {
		var wg sync.WaitGroup
		for _, s := range betaAddrs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				c.Eng.ReadStrip(s) // errors are expected while the node drops out
			}()
		}
		wg.Wait()
	}
	// betaIs reports whether every beta disk is in state; a quarantine
	// counts once its entry is recorded, not just triggered.
	betaIs := func(state string) bool {
		h := c.Eng.Health()
		for _, d := range beta {
			if h.Disks[d].State != state || (state == "quarantined" && h.Disks[d].Quarantines == 0) {
				return false
			}
		}
		return true
	}
	waitFor := func(what, state string, poke func()) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for !betaIs(state) {
			if time.Now().After(deadline) {
				t.Fatalf("%s: beta's disks never %q: %+v", what, state, c.Eng.Health().Disks)
			}
			if poke != nil {
				poke()
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	for round := 1; round <= 3; round++ {
		what := fmt.Sprintf("partition %d", round)
		tc.faults["beta"].SetPartition(netdev.PartDrop)
		waitFor(what, "down", readBeta)
		// Idle for five quarantine-probe periods: nothing reads beta.
		before := c.Eng.Array().DiskStats()
		time.Sleep(5 * opts.Engine.Health.QuarantineProbe)
		after := c.Eng.Array().DiskStats()
		for _, d := range beta {
			if n := after[d].ReadOps - before[d].ReadOps; n != 0 {
				t.Fatalf("%s: idle engine read down disk %d %d times", what, d, n)
			}
		}
		tc.faults["beta"].SetPartition(netdev.PartNone)
		waitFor(what+" lifted", "healthy", nil)
	}
	if h := c.Eng.Health(); h.Quarantines != 0 {
		t.Fatalf("partitions counted as quarantines: %d", h.Quarantines)
	}

	// A real brown-out: every op on beta is slower than SlowOp.
	tc.faults["beta"].SetDelay(slowOp * 5 / 2)
	waitFor("brown-out", "quarantined", readBeta)
	tc.faults["beta"].SetDelay(0)
	h := c.Eng.Health()
	if h.Evictions != 0 || h.QuarantineEscalations != 0 {
		t.Fatalf("brown-out after partitions escalated: %d evictions, %d escalations",
			h.Evictions, h.QuarantineEscalations)
	}
	for _, d := range beta {
		if q := h.Disks[d].Quarantines; q != 1 {
			t.Fatalf("disk %d: %d quarantines, want only the brown-out's", d, q)
		}
	}
	if st := c.Eng.Status(); len(st.Failed) != 0 || c.Client("beta").Lost() {
		t.Fatalf("beta lost or evicted: failed %v", st.Failed)
	}
}
