package engine

import (
	"bytes"
	"context"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/oiraid/oiraid/internal/bibd"
	"github.com/oiraid/oiraid/internal/core"
	"github.com/oiraid/oiraid/internal/layout"
	"github.com/oiraid/oiraid/internal/store"
)

// gateDev is a memory device that, once armed, parks the first read of a
// strip below `below` until the gate opens — how a test holds a background
// pass inside cycle 0. Every later read goes through.
type gateDev struct {
	*store.MemDevice
	below     atomic.Int64 // 0: disarmed
	once      sync.Once
	hit, open chan struct{}
	opened    sync.Once
}

func (g *gateDev) ReadStrip(idx int64, p []byte) error {
	if idx < g.below.Load() {
		parked := false
		g.once.Do(func() { parked = true; close(g.hit) })
		if parked {
			<-g.open
		}
	}
	return g.MemDevice.ReadStrip(idx, p)
}

// release opens the gate; a second call does nothing.
func (g *gateDev) release() { g.opened.Do(func() { close(g.open) }) }

// gatedEngine builds an engine over a v = 9 array of two cycles whose disks
// are gate devices, fills every strip, and returns the engine, the gates and
// the content of every strip.
func gatedEngine(t *testing.T) (*Engine, []*gateDev, [][]byte) {
	t.Helper()
	d, err := bibd.ForArray(9)
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
	gates, devs := make([]*gateDev, an.Disks()), make([]store.Device, an.Disks())
	for i := range devs {
		mem, err := store.NewMemDevice(2*int64(an.SlotsPerDisk()), testStrip)
		if err != nil {
			t.Fatal(err)
		}
		gates[i] = &gateDev{MemDevice: mem, hit: make(chan struct{}), open: make(chan struct{})}
		devs[i] = gates[i]
	}
	arr, err := store.NewArray(an, devs)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(arr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	// Cleanups run last-registered first: a test that fails while a pass is
	// parked opens the gates before Close waits for the pass.
	t.Cleanup(func() {
		for _, g := range gates {
			g.release()
		}
	})
	oracle := make([][]byte, e.Strips())
	for addr := range oracle {
		oracle[addr] = chaosPattern(testStrip, int64(addr), 0)
		if err := e.WriteStrip(int64(addr), oracle[addr]); err != nil {
			t.Fatal(err)
		}
	}
	return e, gates, oracle
}

// within runs fn and fails the test if it errs — or is still blocked after
// a deadline, which is there to fail instead of hanging, not to time fn.
func within(t *testing.T, what string, fn func() error) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- fn() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("%s: still blocked after 10s", what)
	}
}

// waitWriteParked returns once a goroutine of WriteStrip is parked on a
// lock — the pending write has reached what keeps it off the cycle — and
// fails the test if the write returns first.
func waitWriteParked(t *testing.T, wrote <-chan error) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(10 * time.Second); ; {
		select {
		case err := <-wrote:
			t.Fatalf("a write to the parked cycle returned (%v) while the pass held the cycle", err)
		default:
		}
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			if strings.Contains(g, "[sync.") && strings.Contains(g, "(*Engine).WriteStrip(") {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("the write to the parked cycle neither parked nor returned after 10s")
		}
		time.Sleep(time.Millisecond)
	}
}

// stripOn returns the first data strip of cycle on disk d.
func stripOn(t *testing.T, e *Engine, cycle int64, d int) int64 {
	t.Helper()
	for addr := cycle * int64(e.perCycle); addr < (cycle+1)*int64(e.perCycle); addr++ {
		if e.Array().DataStripDisk(addr) == d {
			return addr
		}
	}
	t.Fatalf("no data strip of cycle %d on disk %d", cycle, d)
	return 0
}

// apart returns a data strip of addr's cycle whose write takes no striped
// lock that a read of addr takes, so the two contend on the cycle alone.
func apart(t *testing.T, e *Engine, addr int64) int64 {
	t.Helper()
	cycle, per := addr/int64(e.perCycle), int64(e.perCycle)
	entry := func(si int) int64 { return (cycle*int64(e.nStripes) + int64(si)) % lockTable }
	for other := cycle * per; other < (cycle+1)*per; other++ {
		shared := false
		for _, w := range e.writeSets[other%per] {
			for _, r := range e.readSets[addr%per] {
				shared = shared || entry(w) == entry(r)
			}
		}
		if !shared {
			return other
		}
	}
	t.Fatalf("every strip of cycle %d shares a striped lock with strip %d", cycle, addr)
	return 0
}

// besidePass starts pass, which reads a strip of cycle 0 on gate g, parks it
// there, and checks the rule every background pass keeps while it is
// parked: a read of cycle 0 (of strip read) completes, a read and a write of
// cycle 1 complete, and a write to cycle 0 stays pending until the gate
// opens, then lands. It returns once pass has returned.
func besidePass(t *testing.T, e *Engine, g *gateDev, oracle [][]byte, read int64, pass func() error) {
	t.Helper()
	g.below.Store(int64(e.an.SlotsPerDisk()))
	passErr := make(chan error, 1)
	go func() { passErr <- pass() }()
	within(t, "the pass reaching the gate", func() error { <-g.hit; return nil })

	pending := apart(t, e, read)
	wrote := make(chan error, 1)
	go func() { wrote <- e.WriteStrip(pending, chaosPattern(testStrip, pending, 1)) }()
	waitWriteParked(t, wrote)

	readBack := func(addr int64) func() error {
		return func() error {
			got, err := e.ReadStrip(addr)
			if err == nil && !bytes.Equal(got, oracle[addr]) {
				t.Errorf("strip %d read back wrong beside the pass", addr)
			}
			return err
		}
	}
	within(t, "a read of the parked cycle", readBack(read))
	next := int64(e.perCycle) + read // the same strip of cycle 1
	within(t, "a read of the next cycle", readBack(next))
	oracle[next] = chaosPattern(testStrip, next, 1)
	within(t, "a write to the next cycle", func() error { return e.WriteStrip(next, oracle[next]) })
	within(t, "a read-back of the next cycle", readBack(next))
	select {
	case err := <-wrote:
		t.Fatalf("a write to the parked cycle returned (%v) while the pass held the cycle", err)
	default:
	}

	g.release()
	within(t, "the pending write to the parked cycle", func() error { return <-wrote })
	oracle[pending] = chaosPattern(testStrip, pending, 1)
	within(t, "the pass", func() error { return <-passErr })
}

// checkOracle reads every strip back against oracle and scrubs.
func checkOracle(t *testing.T, e *Engine, oracle [][]byte) {
	t.Helper()
	for addr, want := range oracle {
		got, err := e.ReadStrip(int64(addr))
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("strip %d after the pass: %v, content equal %v", addr, err, bytes.Equal(got, want))
		}
	}
	if bad, err := e.ScrubPass(context.Background()); err != nil || bad != 0 {
		t.Fatalf("scrub after the pass: %d bad, %v", bad, err)
	}
}

// TestRebuildBesideForegroundIO: a rebuild parked inside cycle 0 keeps only
// writers of cycle 0 waiting — a degraded read of the failed disk's strip
// in that cycle, and reads and writes of cycle 1, go on beside it.
func TestRebuildBesideForegroundIO(t *testing.T) {
	e, gates, oracle := gatedEngine(t)
	const failed, survivor = 3, 0
	if err := e.FailDisk(failed); err != nil {
		t.Fatal(err)
	}
	besidePass(t, e, gates[survivor], oracle, stripOn(t, e, 0, failed), func() error {
		if err := e.StartRebuild(2); err != nil {
			return err
		}
		return e.RebuildWait()
	})
	if f := e.Array().FailedDisks(); len(f) != 0 {
		t.Fatalf("disks %v still failed after the rebuild", f)
	}
	checkOracle(t, e, oracle)
}

// TestScrubBesideForegroundIO: a scrub pass parked inside cycle 0 keeps
// only writers of cycle 0 waiting.
func TestScrubBesideForegroundIO(t *testing.T) {
	e, gates, oracle := gatedEngine(t)
	besidePass(t, e, gates[0], oracle, stripOn(t, e, 0, 0), func() error {
		bad, err := e.ScrubPass(context.Background())
		if err == nil && bad != 0 {
			t.Errorf("scrub beside foreground I/O: %d bad stripes", bad)
		}
		return err
	})
	checkOracle(t, e, oracle)
}

// TestCopyMirrorBesideForegroundIO: a migration's copy parked inside cycle
// 0 keeps only writers of cycle 0 waiting, and the disk it moves serves the
// oracle once the migration completes.
func TestCopyMirrorBesideForegroundIO(t *testing.T) {
	e, gates, oracle := gatedEngine(t)
	const moved = 2
	dst, err := store.NewMemDevice(gates[moved].Strips(), testStrip)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.StartMirror(moved, dst); err != nil {
		t.Fatal(err)
	}
	besidePass(t, e, gates[moved], oracle, stripOn(t, e, 0, moved), func() error {
		return e.CopyMirrorCycle(moved, 0)
	})
	if err := e.CopyMirrorCycle(moved, 1); err != nil {
		t.Fatal(err)
	}
	if err := e.CompleteMigration(moved, dst, nil); err != nil {
		t.Fatal(err)
	}
	checkOracle(t, e, oracle)
}
