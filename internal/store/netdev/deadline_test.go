package netdev

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"github.com/oiraid/oiraid/internal/store"
)

// stalledNode is one node behind a fault transport, a client with netdev's
// default options and a device with strip 0 written, on an open stream.
func stalledNode(t *testing.T) (*Node, *NodeClient, *FaultTransport, *NetDevice) {
	t.Helper()
	n, srv := startNode(t, "n0")
	ft := NewFaultTransport(nil, 47)
	c := NewNodeClient(srv.URL, Options{Transport: ft})
	t.Cleanup(func() { c.Close() })
	dev, err := c.CreateDevice("d0", 8, 256)
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.WriteStrip(0, bytes.Repeat([]byte{0x47}, 256)); err != nil {
		t.Fatal(err)
	}
	return n, c, ft, dev
}

// readBy reads strip 0 of dev as a batch of one under a deadline of d.
func readBy(dev *NetDevice, d time.Duration) (time.Duration, error) {
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	ops := []store.StripOp{{Dev: dev, Idx: 0, Buf: make([]byte, 256)}}
	t0 := time.Now()
	dev.ReadStrips(ctx, ops)
	return time.Since(t0), ops[0].Err
}

// TestReadDeadlineCutsMessage: a read whose caller gives up is cut on the
// wire, with the default 2 s attempt deadline far off. The stream that
// carried it ends, the next op dials a fresh one, and the cut attempts count
// against the breaker: the read that opens it marks the node down.
func TestReadDeadlineCutsMessage(t *testing.T) {
	n, c, ft, dev := stalledNode(t)
	ft.SetDelay(time.Hour)
	threshold := c.opts.BreakerThreshold
	for i := 1; i <= threshold; i++ {
		took, err := readBy(dev, 100*time.Millisecond)
		if !errors.Is(err, context.DeadlineExceeded) || took > 150*time.Millisecond {
			t.Fatalf("read %d of a stalled node: %v after %v, want DeadlineExceeded within 150ms", i, err, took)
		}
		if down := c.Down(); down != (i == threshold) {
			t.Fatalf("after %d cut reads of %d: Down() = %v", i, threshold, down)
		}
	}
	if st := c.Stats(); st.StreamOpens != int64(threshold) || st.ReadMessages != int64(threshold) {
		t.Fatalf("%+v: want every cut read on a stream of its own, the first the open one", st)
	}
	if !waitFor(func() bool { return openStreams(n) == 0 }) {
		t.Fatalf("the node still serves %d streams the client cut", openStreams(n))
	}
	ft.SetDelay(0)
	if !waitFor(func() bool { return !c.Down() }) {
		t.Fatal("the prober did not bring the node back")
	}
	if _, err := readBy(dev, time.Second); err != nil {
		t.Fatalf("read once the link is back: %v", err)
	}
	if st := c.Stats(); st.StreamOpens != int64(threshold)+1 {
		t.Fatalf("%+v: want the read after the cuts on a freshly dialled stream", st)
	}
}

// TestReadCancelledBeforeSend: a read whose context is already done sends
// nothing, counts nothing against the breaker and keeps the stream.
func TestReadCancelledBeforeSend(t *testing.T) {
	_, c, _, dev := stalledNode(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ops := []store.StripOp{{Dev: dev, Idx: 0, Buf: make([]byte, 256)}}
	before := c.Stats()
	dev.ReadStrips(ctx, ops)
	if !errors.Is(ops[0].Err, context.Canceled) {
		t.Fatalf("read under a cancelled context: %v, want Canceled", ops[0].Err)
	}
	if st := c.Stats(); st.Attempts != before.Attempts || st.ReadMessages != before.ReadMessages || c.Down() {
		t.Fatalf("%+v (down %v): a read cancelled before it started reached the wire", st, c.Down())
	}
}

// TestCloseDoesNotWaitOutPing: Close cancels the prober's ping in flight. A
// dropped op marks the node down, then a stalled link holds the prober's next
// ping; Close returns at once, not when the 2 s attempt deadline ends it.
func TestCloseDoesNotWaitOutPing(t *testing.T) {
	_, c, ft, dev := stalledNode(t)
	ft.SetPartition(PartDrop)
	if err := dev.WriteStrip(0, make([]byte, 256)); !errors.Is(err, store.ErrUnreachable) || !c.Down() {
		t.Fatalf("write under a partition: %v (down %v), want the node down", err, c.Down())
	}
	ft.SetPartition(PartNone)
	ft.SetDelay(time.Hour)
	time.Sleep(3 * c.opts.ProbeInterval) // past the longest jittered wait: a ping is in flight
	if !c.Down() {
		t.Fatal("the node came back through a stalled link")
	}
	t0 := time.Now()
	c.Close()
	if took := time.Since(t0); took > 100*time.Millisecond {
		t.Fatalf("Close took %v with the prober's ping in flight, want < 100ms", took)
	}
}
