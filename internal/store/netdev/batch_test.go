package netdev

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/oiraid/oiraid/internal/store"
)

// countingRT counts the round trips that are not strip streams.
type countingRT struct {
	inner http.RoundTripper
	other atomic.Int64
}

func (rt *countingRT) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.URL.Path != stripsPath {
		rt.other.Add(1)
	}
	return rt.inner.RoundTrip(r)
}

// messages is the strip messages c has sent, of either kind.
func messages(c *NodeClient) int64 {
	st := c.Stats()
	return st.ReadMessages + st.WriteMessages
}

// rpcs is what the fixture's client has cost the wire: its strip messages
// and its other round trips.
func (f *batchFixture) rpcs() int64 { return messages(f.c) + f.rt.other.Load() }

// stripOf is the test content of strip idx of the device with the given tag.
func stripOf(tag byte, idx int64, n int) []byte {
	p := bytes.Repeat([]byte{tag}, n)
	p[0] = byte(idx)
	return p
}

// batchFixture is one node with two devices of different strip sizes behind
// a counting, fault-injecting transport.
type batchFixture struct {
	n      *Node
	c      *NodeClient
	ft     *FaultTransport
	rt     *countingRT
	d0, d1 *NetDevice
}

func newBatchFixture(t *testing.T) *batchFixture {
	t.Helper()
	n, srv := startNode(t, "n0")
	f := &batchFixture{n: n, ft: NewFaultTransport(nil, 11)}
	f.rt = &countingRT{inner: f.ft}
	opts := fastOpts()
	opts.Transport = f.rt
	f.c = NewNodeClient(srv.URL, opts)
	t.Cleanup(func() { f.c.Close() })
	var err error
	if f.d0, err = f.c.CreateDevice("d0", 8, 512); err != nil {
		t.Fatal(err)
	}
	if f.d1, err = f.c.CreateDevice("d1", 8, 1024); err != nil {
		t.Fatal(err)
	}
	return f
}

// ops builds one op per strip index on dev, reading into fresh buffers or
// writing the strips' test content.
func (f *batchFixture) ops(dev *NetDevice, tag byte, write bool, idxs ...int64) []store.StripOp {
	var ops []store.StripOp
	for _, idx := range idxs {
		buf := make([]byte, dev.StripBytes())
		if write {
			buf = stripOf(tag, idx, dev.StripBytes())
		}
		ops = append(ops, store.StripOp{Dev: dev, Idx: idx, Buf: buf})
	}
	return ops
}

// TestBatchRoundTrip: strips of two devices of one node, of different strip
// sizes, are written in one message and read back in one, each in its own
// item.
func TestBatchRoundTrip(t *testing.T) {
	f := newBatchFixture(t)
	w := append(f.ops(f.d0, 0xA0, true, 0, 3, 5), f.ops(f.d1, 0xB0, true, 1, 2)...)
	before := f.rpcs()
	f.d0.WriteStrips(w)
	for i, op := range w {
		if op.Err != nil {
			t.Fatalf("write op %d: %v", i, op.Err)
		}
	}
	r := append(f.ops(f.d1, 0, false, 2, 1), f.ops(f.d0, 0, false, 5, 0, 3)...)
	f.d1.ReadStrips(context.Background(), r)
	if got := f.rpcs() - before; got != 2 || messages(f.c) != 2 {
		t.Errorf("5 writes and 5 reads took %d RPCs (%d messages), want 2", got, messages(f.c))
	}
	for i, op := range r {
		tag := byte(0xA0)
		if op.Dev == store.Device(f.d1) {
			tag = 0xB0
		}
		if op.Err != nil || !bytes.Equal(op.Buf, stripOf(tag, op.Idx, len(op.Buf))) {
			t.Errorf("read op %d (strip %d): err %v, content % x…", i, op.Idx, op.Err, op.Buf[:4])
		}
	}
	// A strip read alone sees the same media.
	got := make([]byte, 512)
	if err := f.d0.ReadStrip(3, got); err != nil || !bytes.Equal(got, stripOf(0xA0, 3, 512)) {
		t.Errorf("single read of a batch-written strip: %v", err)
	}
}

// TestBatchPerItemErrors: a device the node does not serve, a strip out of
// range and a wrong-sized buffer each fail their own op with the sentinel a
// single call would return; the batch's other ops succeed.
func TestBatchPerItemErrors(t *testing.T) {
	f := newBatchFixture(t)
	ghost := f.c.Device("ghost", 8, 512)
	far := f.c.Device("d0", 64, 512) // bound blind to a geometry the node does not have
	for _, write := range []bool{true, false} {
		ops := f.ops(f.d0, 0xC0, write, 1)
		ops = append(ops, f.ops(ghost, 0xC0, write, 1)...)
		ops = append(ops, f.ops(far, 0xC0, write, 40)...)
		ops = append(ops, store.StripOp{Dev: f.d0, Idx: 2, Buf: make([]byte, 100)})
		ops = append(ops, f.ops(f.d1, 0xC1, write, 7)...)
		before := f.rpcs()
		if write {
			f.d0.WriteStrips(ops)
		} else {
			f.d0.ReadStrips(context.Background(), ops)
		}
		if got := f.rpcs() - before; got != 1 {
			t.Errorf("write=%v: %d RPCs, want 1 (no retry for per-item verdicts)", write, got)
		}
		for i, want := range []error{nil, ErrNodeNotFound, store.ErrStripOutOfRange, store.ErrShortBuffer, nil} {
			if got := ops[i].Err; !errors.Is(got, want) || (want == nil && got != nil) {
				t.Errorf("write=%v op %d: %v, want %v", write, i, got, want)
			}
		}
		if !write && (!bytes.Equal(ops[0].Buf, stripOf(0xC0, 1, 512)) || !bytes.Equal(ops[4].Buf, stripOf(0xC1, 7, 1024))) {
			t.Error("the good items of a batch with failed ones came back damaged")
		}
	}
	if f.c.Down() {
		t.Error("per-item verdicts marked the node down")
	}
}

// TestBatchTornResponseRetried: a truncated batch response fails the codec's
// checksums and the whole batch is sent again.
func TestBatchTornResponseRetried(t *testing.T) {
	f := newBatchFixture(t)
	f.d0.WriteStrips(f.ops(f.d0, 0xD0, true, 0, 1, 2, 3))
	f.ft.SetTorn(2)
	for round := 0; round < 6; round++ {
		ops := f.ops(f.d0, 0, false, 0, 1, 2, 3)
		f.d0.ReadStrips(context.Background(), ops)
		for _, op := range ops {
			if op.Err != nil || !bytes.Equal(op.Buf, stripOf(0xD0, op.Idx, 512)) {
				t.Fatalf("round %d strip %d under torn responses: %v", round, op.Idx, op.Err)
			}
		}
	}
	if f.c.Stats().Retries == 0 {
		t.Error("no retries recorded under torn responses")
	}
}

// TestBatchPartition: a transport failure lands on every op of the batch, as
// store.ErrUnreachable; an asymmetric partition's writes land unacknowledged
// and the re-sent batch is an idempotent rewrite.
func TestBatchPartition(t *testing.T) {
	f := newBatchFixture(t)
	f.ft.SetPartition(PartDrop)
	ops := append(f.ops(f.d0, 0xE0, true, 0, 1), f.ops(f.d1, 0xE1, true, 0)...)
	f.d0.WriteStrips(ops)
	for i, op := range ops {
		if !errors.Is(op.Err, store.ErrUnreachable) {
			t.Errorf("op %d under a full partition: %v, want ErrUnreachable", i, op.Err)
		}
	}

	f = newBatchFixture(t)
	f.ft.SetPartition(PartAsym)
	ops = f.ops(f.d0, 0xE2, true, 4, 5)
	f.d0.WriteStrips(ops)
	if !errors.Is(ops[0].Err, store.ErrUnreachable) || !errors.Is(ops[1].Err, store.ErrUnreachable) {
		t.Fatalf("a batch whose ack was dropped: %v, %v, want ErrUnreachable", ops[0].Err, ops[1].Err)
	}
	got := make([]byte, 512)
	for _, idx := range []int64{4, 5} {
		if err := f.n.devs["d0"].ReadStrip(idx, got); err != nil || !bytes.Equal(got, stripOf(0xE2, idx, 512)) {
			t.Errorf("strip %d of the unacked batch did not land on the node: err %v", idx, err)
		}
	}
	f.ft.SetPartition(PartNone)
	f.d0.WriteStrips(ops)
	if ops[0].Err != nil || ops[1].Err != nil {
		t.Errorf("re-sent batch: %v, %v", ops[0].Err, ops[1].Err)
	}
}

// TestBatchFencing: a deposed coordinator's write batch is refused whole with
// ErrStaleEpoch and nothing lands; its read batch still works.
func TestBatchFencing(t *testing.T) {
	_, srv := startNode(t, "n0")
	client := func(epoch uint64) *NodeClient {
		c := NewNodeClient(srv.URL, fastOpts())
		t.Cleanup(func() { c.Close() })
		tok := &FenceToken{}
		tok.Advance(epoch)
		c.SetFence(tok)
		return c
	}
	cur, stale := client(5), client(4)
	if err := cur.AcquireLease(5, "coord-b"); err != nil {
		t.Fatal(err)
	}
	dev, err := cur.CreateDevice("d0", 8, 512)
	if err != nil {
		t.Fatal(err)
	}
	f := &batchFixture{}
	dev.WriteStrips(f.ops(dev, 0x10, true, 0, 1))
	sdev := stale.Device("d0", 8, 512)
	ops := f.ops(sdev, 0x20, true, 0, 1)
	sdev.WriteStrips(ops)
	for i, op := range ops {
		if !errors.Is(op.Err, store.ErrStaleEpoch) {
			t.Errorf("stale write op %d: %v, want ErrStaleEpoch", i, op.Err)
		}
	}
	got := f.ops(sdev, 0, false, 0, 1)
	sdev.ReadStrips(context.Background(), got)
	for _, op := range got {
		if op.Err != nil || !bytes.Equal(op.Buf, stripOf(0x10, op.Idx, 512)) {
			t.Errorf("strip %d after a fenced batch: err %v, content % x…", op.Idx, op.Err, op.Buf[:2])
		}
	}
}

// TestBatchSplitsAtCap: a group larger than one message may be is sent as
// several, and every op still gets its answer.
func TestBatchSplitsAtCap(t *testing.T) {
	f := newBatchFixture(t)
	const strips, stripBytes = 72, 64 << 10 // 4.5 MiB of payload
	big, err := f.c.CreateDevice("big", strips, stripBytes)
	if err != nil {
		t.Fatal(err)
	}
	var idxs []int64
	for i := int64(0); i < strips; i++ {
		idxs = append(idxs, i)
	}
	before := messages(f.c)
	big.WriteStrips(f.ops(big, 0x30, true, idxs...))
	got := f.ops(big, 0, false, idxs...)
	big.ReadStrips(context.Background(), got)
	if n := messages(f.c) - before; n != 4 {
		t.Errorf("%d messages for %d MiB each way under a %d MiB cap, want 4", n, strips*stripBytes>>20, batchMaxBytes>>20)
	}
	for _, op := range got {
		if op.Err != nil || !bytes.Equal(op.Buf, stripOf(0x30, op.Idx, stripBytes)) {
			t.Fatalf("strip %d: err %v", op.Idx, op.Err)
		}
	}
}

// rawStream is a strip stream opened by hand — an Upgrade written on a bare
// connection — to send a node what a client never sends. Every read and
// write on it is bounded, so a node that waits where it should refuse fails
// the test instead of hanging it.
type rawStream struct {
	t    *testing.T
	conn *net.TCPConn
	r    *bufio.Reader
	head [batchLenEnd]byte
}

func openRawStream(t *testing.T, base string) *rawStream {
	t.Helper()
	host := strings.TrimPrefix(base, "http://")
	conn, err := net.Dial("tcp", host)
	if err != nil {
		t.Fatal(err)
	}
	s := &rawStream{t: t, conn: conn.(*net.TCPConn), r: bufio.NewReader(conn)}
	t.Cleanup(func() { s.conn.Close() })
	s.conn.SetDeadline(time.Now().Add(5 * time.Second))
	fmt.Fprintf(conn, "POST %s HTTP/1.1\r\nHost: %s\r\nConnection: Upgrade\r\nUpgrade: %s\r\nContent-Length: 0\r\n\r\n", stripsPath, host, stripsProto)
	resp, err := http.ReadResponse(s.r, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusSwitchingProtocols {
		t.Fatalf("stream refused: %s", resp.Status)
	}
	return s
}

// exchange writes b and reads the next answer; an error means the node
// ended the stream.
func (s *rawStream) exchange(b []byte) ([]byte, error) {
	s.t.Helper()
	if _, err := s.conn.Write(b); err != nil {
		return nil, err
	}
	return s.answer()
}

// answer reads the next answer off the stream.
func (s *rawStream) answer() ([]byte, error) {
	return readMessage(s.r, &s.head, batchMaxBytes)
}

// TestBatchNodeRefusesDamage drives the strip route with what a client never
// sends: a message whose trailer, payload or name does not verify, and one of
// a response kind, each of which ends the stream with nothing landed; an empty
// write item, refused alone; and a read request whose answer would not fit a
// message, refused item by item.
func TestBatchNodeRefusesDamage(t *testing.T) {
	f := newBatchFixture(t)
	good := encodeBatch(kindWriteReq, fence{}, []batchItem{{Name: "d0", Strip: 1, Payload: stripOf(0x40, 1, 512)}}, nil)
	for name, at := range map[string]int{"trailer": len(good) - 1, "payload": len(good) - 100, "name": batchHeaderLen + 1} {
		bad := bytes.Clone(good)
		bad[at] ^= 0x01
		if answer, err := openRawStream(t, f.c.Base()).exchange(bad); err == nil {
			t.Errorf("flipped %s byte: answered %d bytes, want the stream ended", name, len(answer))
		}
	}
	if _, err := openRawStream(t, f.c.Base()).exchange(encodeBatch(kindWriteResp, fence{}, []batchItem{{Name: "d0", Strip: 1}}, nil)); err == nil {
		t.Error("a response-kind message was answered, want the stream ended")
	}
	got := make([]byte, 512)
	if err := f.d0.ReadStrip(1, got); err != nil || !bytes.Equal(got, make([]byte, 512)) {
		t.Errorf("a refused message reached the strip: err %v", err)
	}
	// An empty write item fails alone, as a caller's bug.
	s := openRawStream(t, f.c.Base())
	mixed := []batchItem{{Name: "d0", Strip: 2}, {Name: "d0", Strip: 3, Payload: stripOf(0x41, 3, 512)}}
	body, err := s.exchange(encodeBatch(kindWriteReq, fence{}, mixed, nil))
	if err != nil {
		t.Fatal(err)
	}
	if answer, _, err := decodeBatch(body, kindWriteResp); err != nil || len(answer) != 2 || answer[0].Code != "short-buffer" || answer[1].Code != "" {
		t.Errorf("an empty write item: %+v, err %v", answer, err)
	}
	// 4097 reads of 1 KiB strips, on the same stream: a small request, an
	// answer past the cap.
	many := make([]batchItem, batchMaxBytes/1024+1)
	for i := range many {
		many[i] = batchItem{Name: "d1", Strip: int64(i % 8)}
	}
	body, err = s.exchange(encodeBatch(kindReadReq, fence{}, many, nil))
	if err != nil {
		t.Fatal(err)
	}
	answer, _, err := decodeBatch(body, kindReadResp)
	if err != nil || len(answer) != len(many) {
		t.Fatalf("read past the answer cap: %d items, err %v", len(answer), err)
	}
	for i, it := range answer {
		if it.Code != "bad-geometry" || it.Payload != nil {
			t.Fatalf("read past the answer cap, item %d: code %q, %d payload bytes; want bad-geometry and none", i, it.Code, len(it.Payload))
		}
	}
}

// TestBatchBodySizing: a stream message is read into one buffer for the
// length its header declares, and a declaration over the cap is refused on
// the header alone — before anything is allocated for it or read past it,
// and before any strip is touched — as is a message shorter than it
// declares.
func TestBatchBodySizing(t *testing.T) {
	f := newBatchFixture(t)
	want := [][]byte{stripOf(0x50, 0, 512), stripOf(0x50, 1, 512)}
	msg := encodeBatch(kindWriteReq, fence{}, []batchItem{{Name: "d0", Strip: 0, Payload: want[0]}, {Name: "d0", Strip: 1, Payload: want[1]}}, nil)
	landed := func() bool {
		got := f.ops(f.d0, 0, false, 0, 1)
		f.d0.ReadStrips(context.Background(), got)
		return got[0].Err == nil && got[1].Err == nil && bytes.Equal(got[0].Buf, want[0]) && bytes.Equal(got[1].Buf, want[1])
	}
	var head [batchLenEnd]byte
	if b, err := readMessage(bytes.NewReader(msg), &head, batchMaxBytes); err != nil || !bytes.Equal(b, msg) {
		t.Fatalf("exact message: %d bytes, err %v", len(b), err)
	}
	for _, declared := range []uint32{1 << 31, batchMaxBytes + 1, batchHeaderLen + batchTrailer - 1} {
		over := bytes.Clone(msg)
		binary.BigEndian.PutUint32(over[8:12], declared)
		r := &countingReader{r: io.MultiReader(bytes.NewReader(over), zeroReader{})}
		if _, err := readMessage(r, &head, batchMaxBytes); !errors.Is(err, ErrBadFrame) || r.n > batchLenEnd {
			t.Errorf("declared length %d: %v after %d bytes read, want ErrBadFrame after %d", declared, err, r.n, batchLenEnd)
		}
		if _, err := openRawStream(t, f.c.Base()).exchange(over); err == nil {
			t.Errorf("declared length %d: answered, want the stream ended", declared)
		}
	}
	if _, err := readMessage(bytes.NewReader(msg[:len(msg)-1]), &head, batchMaxBytes); !errors.Is(err, ErrBadFrame) {
		t.Errorf("message shorter than declared: %v, want ErrBadFrame", err)
	}
	if _, err := readMessage(bytes.NewReader(nil), &head, batchMaxBytes); err != io.EOF {
		t.Errorf("stream ended between messages: %v, want io.EOF", err)
	}
	if landed() {
		t.Fatal("a refused message reached the strips")
	}
	if _, err := openRawStream(t, f.c.Base()).exchange(msg); err != nil || !landed() {
		t.Errorf("the same message whole: err %v, strips landed: %v", err, landed())
	}
}

type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// TestBatchCodec: every kind round-trips with its fence, its items' numbers,
// generations and EOF marks, and their verdicts, which decode back into the
// catalogue's sentinels; the decoder holds a message to its kind, its declared
// length and fence flag, and a payload to a kind that carries one; and a
// message encoded into a recycled buffer carries none of its old bytes.
func TestBatchCodec(t *testing.T) {
	verdicts := []error{ErrStaleGen, ErrNodeNotFound, store.ErrNegativeOffset}
	for kind := byte(kindReadReq); kind < kindEnd; kind++ {
		var items []batchItem
		for _, gen := range []uint64{0, 1, 1 << 63} {
			it := batchItem{Name: "disk00", Strip: 7, Size: 1 << 40, Gen: gen}
			if hasPayload(kind) {
				it.Payload = []byte("seven")
			}
			items = append(items, it)
		}
		for _, err := range verdicts {
			it := batchItem{Name: "m0", Strip: -1, Gen: 1}
			it.verdict(fmt.Errorf("%w: blob m0", err))
			items = append(items, it)
		}
		items = append(items, batchItem{Name: "m0", Strip: 3, Size: 16, Gen: 2, EOF: true}) // the read ran off the end at once
		for _, fc := range []fence{{}, {epoch: 0, on: true}, {epoch: 1 << 60, on: true}} {
			b := encodeBatch(kind, fc, items, nil)
			got, gotFence, err := decodeBatch(b, kind)
			if err != nil {
				t.Fatalf("kind %d: %v", kind, err)
			}
			if gotFence != fc || !reflect.DeepEqual(got, items) {
				t.Errorf("kind %d fence %+v: decoded %+v %+v", kind, fc, gotFence, got)
			}
		}
		got, _, _ := decodeBatch(encodeBatch(kind, fence{}, items, nil), kind)
		for i, want := range verdicts {
			if err, retryable := itemError(&got[3+i]); !errors.Is(err, want) || retryable {
				t.Errorf("kind %d: verdict %v decoded as %v (retryable %v)", kind, want, err, retryable)
			}
		}
		b := encodeBatch(kind, fence{}, items, nil)
		if _, _, err := decodeBatch(b, kind^0x01); !errors.Is(err, ErrBadFrame) {
			t.Errorf("kind %d decoded as %d: %v", kind, kind^0x01, err)
		}
		if _, _, err := decodeBatch(append(bytes.Clone(b), 0), kind); !errors.Is(err, ErrBadFrame) {
			t.Errorf("kind %d: a byte past the declared length accepted: %v", kind, err)
		}
		if !hasPayload(kind) {
			continue
		}
		// A payload where the kind carries none.
		b = encodeBatch(kindWriteResp, fence{}, items, nil)
		if _, _, err := decodeBatch(b, kindWriteResp); !errors.Is(err, ErrBadFrame) {
			t.Errorf("payloads of kind %d in a write response: %v", kind, err)
		}
	}
	// An epoch without the flag that says the message carries one.
	b := encodeBatch(kindReadReq, fence{epoch: 3, on: true}, nil, nil)
	b[6] = 0
	if _, _, err := decodeBatch(b, kindReadReq); !errors.Is(err, ErrBadFrame) {
		t.Errorf("an unflagged epoch: %v", err)
	}
	// An item flag the codec does not know.
	b = encodeBatch(kindBlobStat, fence{}, []batchItem{{Name: "m0"}}, nil)
	b[batchHeaderLen+1+2+8+8+8] = 0x02
	if _, _, err := decodeBatch(b, kindBlobStat); !errors.Is(err, ErrBadFrame) {
		t.Errorf("an unknown item flag: %v", err)
	}
	// A recycled buffer's old bytes do not leak into the next message.
	dirty := bytes.Repeat([]byte{0xFF}, 1<<msgMinShift)
	putMsg(dirty)
	b = encodeBatch(kindReadReq, fence{}, []batchItem{{Name: "d", Strip: 1}}, nil)
	if _, f, err := decodeBatch(b, kindReadReq); err != nil || f != (fence{}) {
		t.Errorf("an unfenced message in a recycled buffer: fence %+v, err %v", f, err)
	}
}

// TestBatchEveryBitFlipRefused: the trailer covers every byte of a message —
// header, items and payloads — so one flipped bit anywhere in a two-item
// strip-write request, or in a read answer with one strip and one verdict,
// is refused as ErrBadFrame: by readMessage when it breaks what a stream
// reader checks, by decodeBatch otherwise.
func TestBatchEveryBitFlipRefused(t *testing.T) {
	answer := []batchItem{{Name: "d0", Strip: 1, Payload: stripOf(0x61, 1, 512)}, {Name: "d1", Strip: 2}}
	answer[1].verdict(fmt.Errorf("%w: device d1", ErrNodeNotFound))
	for _, m := range []struct {
		name  string
		kind  byte
		f     fence
		items []batchItem
	}{
		{"a strip-write request", kindWriteReq, fence{epoch: 7, on: true}, []batchItem{
			{Name: "d0", Strip: 1, Payload: stripOf(0x60, 1, 512)},
			{Name: "d1", Strip: 2, Payload: stripOf(0x60, 2, 1024)},
		}},
		{"a read answer", kindReadResp, fence{}, answer},
	} {
		msg := bytes.Clone(encodeBatch(m.kind, m.f, m.items, nil))
		if _, _, err := decodeBatch(msg, m.kind); err != nil {
			t.Fatalf("%s whole: %v", m.name, err)
		}
		var head [batchLenEnd]byte
		for bit := 0; bit < 8*len(msg); bit++ {
			bad := bytes.Clone(msg)
			bad[bit/8] ^= 1 << (bit % 8)
			got, err := readMessage(bytes.NewReader(bad), &head, batchMaxBytes)
			if err == nil {
				_, _, err = decodeBatch(got, m.kind)
			}
			if !errors.Is(err, ErrBadFrame) {
				t.Errorf("%s, bit %d of byte %d flipped: %v, want ErrBadFrame", m.name, bit%8, bit/8, err)
			}
		}
	}
}

// BenchmarkNetDeviceBatch is one message of n 4 KiB strips against an
// in-process node over a loopback stream; BenchmarkNetDeviceStrip is the
// strip that travels alone.
func BenchmarkNetDeviceBatch(b *testing.B) {
	srv := httptest.NewServer(NewMemNode("n0").Handler())
	defer srv.Close()
	c := NewNodeClient(srv.URL, Options{})
	defer c.Close()
	dev, err := c.CreateDevice("d0", 64, 4096)
	if err != nil {
		b.Fatal(err)
	}
	for _, dir := range []string{"read", "write"} {
		for _, n := range []int{1, 2, 4, 36} {
			b.Run(fmt.Sprintf("%s/%d", dir, n), func(b *testing.B) {
				ops := make([]store.StripOp, n)
				for i := range ops {
					ops[i] = store.StripOp{Dev: dev, Idx: int64(i), Buf: make([]byte, 4096)}
				}
				b.SetBytes(int64(n) * 4096)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if dir == "read" {
						dev.ReadStrips(context.Background(), ops)
					} else {
						dev.WriteStrips(ops)
					}
					for k := range ops {
						if ops[k].Err != nil {
							b.Fatal(ops[k].Err)
						}
					}
				}
			})
		}
	}
}
