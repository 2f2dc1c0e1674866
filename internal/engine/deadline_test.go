package engine

import (
	"bytes"
	"context"
	"errors"
	"net/http/httptest"
	"slices"
	"testing"
	"time"

	"github.com/oiraid/oiraid/internal/bibd"
	"github.com/oiraid/oiraid/internal/core"
	"github.com/oiraid/oiraid/internal/layout"
	"github.com/oiraid/oiraid/internal/store"
	"github.com/oiraid/oiraid/internal/store/netdev"
)

// netFixture is an engine over a 9-disk array of NetDevices, disk d on node
// d behind fault transport links[d], every client on netdev's default
// options; every strip is written with chaosPattern(…, 0).
type netFixture struct {
	e       *Engine
	links   []*netdev.FaultTransport
	clients []*netdev.NodeClient
}

func newNetFixture(t *testing.T, opts Options) *netFixture {
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
	f := &netFixture{}
	devs := make([]store.Device, an.Disks())
	for i := range devs {
		node := netdev.NewMemNode("n")
		srv := httptest.NewServer(node.Handler())
		t.Cleanup(func() {
			srv.Close()
			node.Close()
		})
		link := netdev.NewFaultTransport(nil, int64(i))
		c := netdev.NewNodeClient(srv.URL, netdev.Options{Transport: link})
		t.Cleanup(func() { c.Close() })
		if devs[i], err = c.CreateDevice("d", int64(an.SlotsPerDisk()), testStrip); err != nil {
			t.Fatal(err)
		}
		f.links, f.clients = append(f.links, link), append(f.clients, c)
	}
	arr, err := store.NewArray(an, devs)
	if err != nil {
		t.Fatal(err)
	}
	if f.e, err = New(arr, opts); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.e.Close() })
	for addr := int64(0); addr < f.e.Strips(); addr++ {
		if err := f.e.WriteStrip(addr, chaosPattern(testStrip, addr, 0)); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

// neighbour returns a data strip of addr's cycle whose write locks meet
// addr's read locks and whose parity closure has no strip on disk avoid.
func (f *netFixture) neighbour(t *testing.T, addr int64, avoid int) int64 {
	t.Helper()
	e := f.e
	base := addr - addr%int64(e.perCycle)
	for w := base; w < base+int64(e.perCycle); w++ {
		target, _ := e.arr.LocateDataStrip(w)
		closure := e.an.WritePlan(target).Strips
		meets := slices.ContainsFunc(e.writeSets[w-base], func(si int) bool { return slices.Contains(e.readSets[addr-base], si) })
		if w != addr && meets && !slices.ContainsFunc(closure, func(st layout.Strip) bool { return st.Disk == avoid }) {
			return w
		}
	}
	t.Fatalf("no strip of strip %d's cycle shares its locks and avoids disk %d", addr, avoid)
	return 0
}

// timedWrite writes addr's next pattern in a goroutine, after a pause of
// after, and reports when the write returned.
func (f *netFixture) timedWrite(t *testing.T, addr int64, after time.Duration) <-chan time.Time {
	done := make(chan time.Time, 1)
	go func() {
		time.Sleep(after)
		if err := f.e.WriteStrip(addr, chaosPattern(testStrip, addr, 1)); err != nil {
			t.Errorf("write of strip %d: %v", addr, err)
		}
		done <- time.Now()
	}()
	return done
}

// TestReadDeadlineReachesWire: with one node stalled, a read of its strip
// under a 100 ms deadline is cut on the wire — not after netdev's three
// 2-second attempts — and a write that shares the read's locks but none of
// the stalled disk's strips goes as soon as the read returns.
func TestReadDeadlineReachesWire(t *testing.T) {
	f := newNetFixture(t, Options{})
	const addr = 0
	disk := f.e.arr.DataStripDisk(addr)
	f.links[disk].SetDelay(time.Hour)
	w := f.neighbour(t, addr, disk)

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	t0 := time.Now()
	wrote := f.timedWrite(t, w, 30*time.Millisecond)
	_, err := f.e.ReadStripCtx(ctx, addr)
	returned := time.Now()
	if took := returned.Sub(t0); !errors.Is(err, context.DeadlineExceeded) || took > 150*time.Millisecond {
		t.Fatalf("read of a stalled node's strip: %v after %v, want DeadlineExceeded within 150ms", err, took)
	}
	select {
	case at := <-wrote:
		if lag := at.Sub(returned); lag > 50*time.Millisecond {
			t.Fatalf("the write sharing the read's locks ended %v after the read returned, want within 50ms", lag)
		}
	case <-time.After(time.Second):
		t.Fatal("the write sharing the read's locks waited for the stalled node")
	}
	if got, err := f.e.ReadStrip(w); err != nil || !bytes.Equal(got, chaosPattern(testStrip, w, 1)) {
		t.Fatalf("strip %d after the write: %v", w, err)
	}
	if st := f.e.Health().Disks[disk]; st.Errors != 0 {
		t.Fatalf("disk %d health %+v: a caller's deadline counted against the disk", disk, st)
	}
}

// TestHedgeLoserCancelled: a hedged read of a strip on a node one second
// slow returns the reconstruction, the direct read is cut rather than
// waited out, and so a writer to the same lock set is not held for the
// second.
func TestHedgeLoserCancelled(t *testing.T) {
	f := newNetFixture(t, Options{Health: &HealthPolicy{HedgeMultiple: 1, HedgeFloor: 5 * time.Millisecond, HedgeCeiling: 5 * time.Millisecond}})
	const addr = 0
	disk := f.e.arr.DataStripDisk(addr)
	w := f.neighbour(t, addr, disk)
	f.links[disk].SetDelay(time.Second)
	t0 := time.Now()
	got, err := f.e.ReadStrip(addr)
	if err != nil || !bytes.Equal(got, chaosPattern(testStrip, addr, 0)) {
		t.Fatalf("hedged read: %v", err)
	}
	if st := f.e.Stats(); st.HedgeWon != 1 {
		t.Fatalf("%+v: want the reconstruction to win the hedge", st)
	}
	select {
	case at := <-f.timedWrite(t, w, 0):
		if took := at.Sub(t0); took > 300*time.Millisecond {
			t.Fatalf("the writer sharing the hedged read's locks ended %v after the read began, want well within the 1s delay", took)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("the writer sharing the hedged read's locks never ended")
	}
}

// TestWriteDeadlineNeverTears: a write whose context expires while its
// closure's messages are in flight still completes — a deadline bounds
// admission, never a parity closure — and the array verifies clean after.
func TestWriteDeadlineNeverTears(t *testing.T) {
	f := newNetFixture(t, Options{})
	for _, l := range f.links {
		l.SetDelay(30 * time.Millisecond)
	}
	const addr = 5
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := f.e.WriteStripCtx(ctx, addr, chaosPattern(testStrip, addr, 1)); err != nil {
		t.Fatalf("write whose deadline passed mid-closure: %v, want it completed", err)
	}
	if ctx.Err() == nil {
		t.Fatal("the write ended before its deadline: nothing was in flight when it passed")
	}
	for _, l := range f.links {
		l.SetDelay(0)
	}
	if got, err := f.e.ReadStrip(addr); err != nil || !bytes.Equal(got, chaosPattern(testStrip, addr, 1)) {
		t.Fatalf("strip %d after the write: %v", addr, err)
	}
	rep, err := f.e.Fsck(context.Background(), false)
	if err != nil || !rep.Clean {
		t.Fatalf("fsck after the write: %+v, %v", rep, err)
	}
}
