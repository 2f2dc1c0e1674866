package engine

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/oiraid/oiraid/internal/store"
)

// waitGranting returns once a goroutine whose stack holds caller is parked
// in a select — for a pass, waiting on the scheduler — and fails the test
// after a deadline that is there to fail instead of hanging.
func waitGranting(t *testing.T, caller string) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(10 * time.Second); ; {
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			if strings.Contains(g, "[select") && strings.Contains(g, caller) {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("no goroutine of %s waiting on the scheduler after 10s: granted, or stuck elsewhere", caller)
		}
		time.Sleep(time.Millisecond)
	}
}

// waitScrubGrants polls until the scrubber's grants exceed floor.
func waitScrubGrants(t *testing.T, e *Engine, after string, floor int64) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); e.QoS().Grants.Scrub <= floor; {
		if time.Now().After(deadline) {
			t.Fatalf("scrub grants %d 10s after %s, want > %d", e.QoS().Grants.Scrub, after, floor)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSetQoSWakesPacedPass: a pass waiting out a token at a slow rate is
// granted as soon as SetQoS raises the rate, not when the wait computed
// from the old rate ends.
func TestSetQoSWakesPacedPass(t *testing.T) {
	e := newEngine(t, 9, 2, Options{QoS: &QoSConfig{RebuildRate: 0.01}}) // 100s a token
	stop := make(chan struct{})
	defer close(stop)
	if !e.PaceBackground(stop) { // the initial token
		t.Fatal("first grant refused")
	}
	paced := make(chan bool, 1)
	go func() { paced <- e.PaceBackground(stop) }()
	waitGranting(t, "(*Engine).PaceBackground(")
	rate := 1000.0
	if _, err := e.SetQoS(QoSUpdate{RebuildRate: &rate}); err != nil {
		t.Fatal(err)
	}
	select {
	case ok := <-paced:
		if !ok {
			t.Fatal("grant refused after the rate was raised")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a pass paced at 0.01/s still waits 5s after SetQoS raised the rate to 1000/s")
	}
}

// TestSchedulerRebuildFirst: on a degraded array that is rebuilding, a
// migration's copy gets no grant while the rebuild is active — here parked
// inside cycle 0, between grants — and is granted once the rebuild ends.
func TestSchedulerRebuildFirst(t *testing.T) {
	e, gates, oracle := gatedEngine(t)
	if err := e.FailDisk(3); err != nil {
		t.Fatal(err)
	}
	gates[0].below.Store(int64(e.an.SlotsPerDisk()))
	if err := e.StartRebuild(1); err != nil {
		t.Fatal(err)
	}
	within(t, "the rebuild reaching the gate", func() error { <-gates[0].hit; return nil })
	stop := make(chan struct{})
	defer close(stop)
	copied := make(chan bool, 1)
	go func() { copied <- e.PaceBackground(stop) }()
	waitGranting(t, "(*Engine).PaceBackground(")
	if g := e.QoS().Grants; g.Copy != 0 || g.Rebuild == 0 {
		t.Fatalf("grants while the rebuild is active: %+v, want rebuild > 0 and copy 0", g)
	}
	gates[0].release()
	within(t, "the rebuild", e.RebuildWait)
	within(t, "the copy's grant", func() error {
		if !<-copied {
			return errors.New("refused")
		}
		return nil
	})
	if g := e.QoS().Grants; g.Copy != 1 {
		t.Fatalf("grants after the rebuild: %+v, want copy 1", g)
	}
	checkOracle(t, e, oracle)
}

// TestSchedulerCopyBeforeOperator: an operator scrub pass started while a
// migration is in flight gets no grant until the migration completes,
// while the copy is granted; then it takes one grant per cycle.
func TestSchedulerCopyBeforeOperator(t *testing.T) {
	e, gates, oracle := gatedEngine(t)
	const moved = 2
	dst, err := store.NewMemDevice(gates[moved].Strips(), testStrip)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.StartMirror(moved, dst); err != nil {
		t.Fatal(err)
	}
	scrubbed := make(chan error, 1)
	go func() {
		bad, err := e.ScrubPass(context.Background())
		if err == nil && bad != 0 {
			err = errors.New("inconsistent stripes")
		}
		scrubbed <- err
	}()
	waitGranting(t, "(*Engine).ScrubPass(")
	for cycle := range e.Array().Cycles() {
		if !e.PaceBackground(nil) {
			t.Fatal("copy grant refused")
		}
		if err := e.CopyMirrorCycle(moved, cycle); err != nil {
			t.Fatal(err)
		}
	}
	if g := e.QoS().Grants; g.Operator != 0 || g.Copy != e.Array().Cycles() {
		t.Fatalf("grants while the copy is active: %+v, want copy %d and operator 0", g, e.Array().Cycles())
	}
	if err := e.CompleteMigration(moved, dst, nil); err != nil {
		t.Fatal(err)
	}
	within(t, "the scrub pass", func() error { return <-scrubbed })
	if g := e.QoS().Grants; g.Operator != e.Array().Cycles() {
		t.Fatalf("grants after the migration: %+v, want one operator grant per cycle", g)
	}
	checkOracle(t, e, oracle)
}

// TestSchedulerScrubLast: the background scrubber gets no grant while an
// operator pass, a migration's copy or a rebuild is active, and resumes
// after each.
func TestSchedulerScrubLast(t *testing.T) {
	e, gates, oracle := gatedEngine(t)

	// An operator scrub pass parked inside cycle 0.
	gates[1].below.Store(int64(e.an.SlotsPerDisk()))
	scrubbed := make(chan error, 1)
	go func() { _, err := e.ScrubPass(context.Background()); scrubbed <- err }()
	within(t, "the operator pass reaching the gate", func() error { <-gates[1].hit; return nil })
	rate := 1e6
	if _, err := e.SetQoS(QoSUpdate{ScrubRate: &rate}); err != nil {
		t.Fatal(err)
	}
	waitGranting(t, "(*Engine).scrubLoop(")
	if g := e.QoS().Grants; g.Scrub != 0 {
		t.Fatalf("grants while an operator pass is active: %+v, want scrub 0", g)
	}
	gates[1].release()
	within(t, "the operator pass", func() error { return <-scrubbed })
	waitScrubGrants(t, e, "the operator pass", 0)

	// A migration in flight.
	const moved = 2
	dst, err := store.NewMemDevice(gates[moved].Strips(), testStrip)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.StartMirror(moved, dst); err != nil {
		t.Fatal(err)
	}
	before := e.QoS().Grants.Scrub
	e.SetQoS(QoSUpdate{}) // the scrubber decides again
	waitGranting(t, "(*Engine).scrubLoop(")
	if g := e.QoS().Grants; g.Scrub != before {
		t.Fatalf("scrub grants went %d → %d while a copy was active", before, g.Scrub)
	}
	if err := e.AbortMigration(moved); err != nil {
		t.Fatal(err)
	}
	waitScrubGrants(t, e, "the migration", before)

	// A rebuild parked inside cycle 0. The failed disk parks the scrubber
	// first, so the gate is armed with no scrub cycle in flight.
	if err := e.FailDisk(3); err != nil {
		t.Fatal(err)
	}
	waitGranting(t, "(*Engine).scrubLoop(")
	before = e.QoS().Grants.Scrub
	gates[0].below.Store(int64(e.an.SlotsPerDisk()))
	if err := e.StartRebuild(1); err != nil {
		t.Fatal(err)
	}
	within(t, "the rebuild reaching the gate", func() error { <-gates[0].hit; return nil })
	e.SetQoS(QoSUpdate{}) // the scrubber decides again
	waitGranting(t, "(*Engine).scrubLoop(")
	if g := e.QoS().Grants; g.Scrub != before {
		t.Fatalf("scrub grants went %d → %d while a rebuild was active", before, g.Scrub)
	}
	gates[0].release()
	within(t, "the rebuild", e.RebuildWait)
	waitScrubGrants(t, e, "the rebuild", before)
	checkOracle(t, e, oracle)
}

// TestOperatorPassesPaced: with a rate set, Fsck and ScrubPass take one
// operator grant per cycle from the rebuild's bucket and wait for it; with
// none they run unpaced.
func TestOperatorPassesPaced(t *testing.T) {
	for _, rate := range []float64{200, 0} {
		e := newEngine(t, 9, 4, Options{QoS: &QoSConfig{RebuildRate: rate}})
		cycles := e.Array().Cycles()
		if rep, err := e.Fsck(context.Background(), false); err != nil || !rep.Clean {
			t.Fatalf("rate %g: fsck %+v, %v", rate, rep, err)
		}
		if bad, err := e.ScrubPass(context.Background()); err != nil || bad != 0 {
			t.Fatalf("rate %g: scrub %d bad, %v", rate, bad, err)
		}
		if g := e.QoS().Grants; g.Operator != 2*cycles {
			t.Fatalf("rate %g: grants %+v, want %d operator grants", rate, g, 2*cycles)
		}
		if paced := e.Stats().RebuildThrottleNs > 0; paced != (rate > 0) {
			t.Fatalf("rate %g: waited in the pacer %v", rate, paced)
		}
	}
}

// TestUnpacedGrantAllocs: with no rate set, a grant to a registered pass
// is a check of stop plus a yield: no timer, no allocation.
func TestUnpacedGrantAllocs(t *testing.T) {
	e := newEngine(t, 9, 2, Options{})
	e.qos.hold(passRebuild, 1)
	defer e.qos.hold(passRebuild, -1)
	if n := testing.AllocsPerRun(100, func() { e.qos.grant(passRebuild, e.stop) }); n != 0 {
		t.Fatalf("an unpaced grant allocates %.1f times", n)
	}
}
