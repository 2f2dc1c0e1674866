package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"time"

	"github.com/oiraid/oiraid/internal/bibd"
	"github.com/oiraid/oiraid/internal/cluster"
	"github.com/oiraid/oiraid/internal/core"
	"github.com/oiraid/oiraid/internal/engine"
	"github.com/oiraid/oiraid/internal/layout"
	"github.com/oiraid/oiraid/internal/object"
	"github.com/oiraid/oiraid/internal/server"
	"github.com/oiraid/oiraid/internal/store"
	"github.com/oiraid/oiraid/internal/store/netdev"
)

const bucket = "bench"

// target is one layer's way of doing the workload's op on a unit (a
// strip, a unit-sized byte range, or an object). c is the calling client
// (0 or 1): targets keep one read buffer per client.
type target interface {
	write(c int, unit int64, p []byte) error
	read(c int, unit int64) ([]byte, error)
}

// level is one rung of the ladder: the same op, entered at one layer.
type level struct {
	layer string
	t     target
}

// fixture is one array with the layers stacked on it, bottom first. The
// last level is what a user of the stack calls. All levels share the
// fixture's address space and therefore its oracle.
type fixture struct {
	eng    *engine.Engine
	units  int64
	orc    *oracle
	levels []level
	// stripUnits is set when a unit is one logical data strip, so reads
	// can be aimed at the strips of a failed disk. Otherwise a unit spans
	// every disk and any unit is a degraded read.
	stripUnits bool
	// retire, when set, is called with a failed disk before its rebuild
	// and returns what disposes of the device the disk is leaving.
	retire func(disk int) func() error
}

func (f *fixture) top() target { return f.levels[len(f.levels)-1].t }

// unitsOn lists the units holding data on any of the disks.
func (f *fixture) unitsOn(disks []int) []int64 {
	var out []int64
	arr := f.eng.Array()
	for u := int64(0); u < f.units; u++ {
		if !f.stripUnits {
			out = append(out, u)
			continue
		}
		d := arr.DataStripDisk(u)
		for _, fd := range disks {
			if d == fd {
				out = append(out, u)
				break
			}
		}
	}
	return out
}

// stack is a built workload. Untraced it is the main fixture alone;
// traced, object-1m adds a raw fixture of the same geometry for the
// store and engine rungs, whose raw writes would otherwise land on strips
// the object allocator owns.
type stack struct {
	w        *workload
	an       *core.Analyzer
	fixtures []*fixture // main fixture last
	closers  []func() error
}

func (s *stack) main() *fixture { return s.fixtures[len(s.fixtures)-1] }

func (s *stack) close() error {
	var err error
	for i := len(s.closers) - 1; i >= 0; i-- {
		err = errors.Join(err, s.closers[i]())
	}
	return err
}

type stackOptions struct {
	seed uint64
	// tr, when set, installs the interposers and builds every rung.
	tr *tracer
	// wrapDev overrides the device interposer (the corruption test).
	wrapDev func(disk int, dev store.Device) store.Device
}

func newAnalyzer(disks int) (*core.Analyzer, error) {
	d, err := bibd.ForArray(disks)
	if err != nil {
		return nil, err
	}
	sch, err := layout.NewOIRAID(d)
	if err != nil {
		return nil, err
	}
	return core.NewAnalyzer(sch)
}

// buildStack constructs the workload's stack from the packages' public
// constructors. It does not write data; fill does.
func buildStack(w *workload, o stackOptions) (*stack, error) {
	an, err := newAnalyzer(w.disks)
	if err != nil {
		return nil, err
	}
	s := &stack{w: w, an: an}
	if o.wrapDev == nil && o.tr != nil {
		o.wrapDev = o.tr.wrapDevice
	}
	cycles := w.cycles
	switch w.kind {
	case kindStrip:
		eng, err := s.memEngine(cycles, o)
		if err != nil {
			return nil, err
		}
		s.fixtures = []*fixture{{
			eng: eng, units: eng.Strips(), stripUnits: true,
			orc: newOracle(o.seed, eng.Strips(), w.unitBytes),
			levels: []level{
				{"store", newRangeTarget(arrayRanger{eng.Array()}, w.unitBytes)},
				{"engine", stripTarget{eng}},
			},
		}}
	case kindObject:
		if err := s.buildObject(cycles, o); err != nil {
			s.close()
			return nil, err
		}
	case kindCluster:
		if err := s.buildCluster(cycles, o); err != nil {
			s.close()
			return nil, err
		}
	}
	return s, nil
}

// memEngine builds an engine over in-memory devices and registers its
// Close. Replacement devices are recycled: the device a failed disk
// leaves behind (the array no longer touches it) becomes the next
// replacement, so after the first lap a rebuild allocates nothing and
// rebuild_mbps prices reconstruction, not the first touch of fresh pages.
func (s *stack) memEngine(cycles int64, o stackOptions) (*engine.Engine, error) {
	strips := int64(s.an.SlotsPerDisk()) * cycles
	devs := make([]store.Device, s.w.disks)
	for i := range devs {
		dev, err := store.NewMemDevice(strips, s.w.stripBytes)
		if err != nil {
			return nil, err
		}
		devs[i] = dev
	}
	arr, err := store.NewArray(s.an, append([]store.Device(nil), devs...))
	if err != nil {
		return nil, err
	}
	wrap := func(_ int, dev store.Device) store.Device { return dev }
	if o.wrapDev != nil {
		wrap = o.wrapDev
		arr.InstrumentDevices(wrap)
	}
	var spare store.Device
	eng, err := engine.New(arr, engine.Options{Replace: func(disk int) (store.Device, error) {
		next := spare
		if next == nil {
			var err error
			if next, err = store.NewMemDevice(strips, s.w.stripBytes); err != nil {
				return nil, err
			}
		}
		spare, devs[disk] = devs[disk], next
		return wrap(disk, next), nil
	}})
	if err != nil {
		return nil, err
	}
	s.closers = append(s.closers, eng.Close)
	return eng, nil
}

func (s *stack) buildObject(cycles int64, o stackOptions) error {
	w := s.w
	units := int64(w.objects)
	if o.tr != nil {
		raw, err := s.memEngine(cycles, o)
		if err != nil {
			return err
		}
		if raw.Capacity() < units*int64(w.unitBytes) {
			return fmt.Errorf("raw fixture holds %d bytes, need %d", raw.Capacity(), units*int64(w.unitBytes))
		}
		s.fixtures = append(s.fixtures, &fixture{
			eng: raw, units: units, orc: newOracle(o.seed, units, w.unitBytes),
			levels: []level{
				{"store", newRangeTarget(arrayRanger{raw.Array()}, w.unitBytes)},
				{"engine", newRangeTarget(raw, w.unitBytes)},
			},
		})
	}
	eng, err := s.memEngine(cycles, o)
	if err != nil {
		return err
	}
	objs, err := object.New(eng, object.Options{})
	if err != nil {
		return err
	}
	if err := objs.CreateBucket(context.Background(), bucket); err != nil {
		return err
	}
	srv := server.New(eng, server.Options{Objects: objs})
	handler := srv.Handler()
	var rt http.RoundTripper = http.DefaultTransport.(*http.Transport).Clone()
	if o.tr != nil {
		handler = o.tr.wrapHandler(handler)
		rt = o.tr.wrapTransport(rt)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: handler}
	served := make(chan struct{})
	go func() {
		hs.Serve(l) // returns http.ErrServerClosed after Shutdown
		close(served)
	}()
	s.closers = append(s.closers, func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		err := hs.Shutdown(ctx)
		<-served
		rt.(interface{ CloseIdleConnections() }).CloseIdleConnections()
		return err
	})
	hc := &http.Client{Transport: rt, Timeout: 60 * time.Second}
	cl := server.NewClientWithOptions("http://"+l.Addr().String(), server.ClientOptions{HTTPClient: hc, Seed: int64(o.seed)})

	keys := make([]string, units)
	for i := range keys {
		keys[i] = fmt.Sprintf("obj-%04d", i)
	}
	main := &fixture{eng: eng, units: units, orc: newOracle(o.seed, units, w.unitBytes)}
	if o.tr != nil {
		main.levels = []level{
			{"object", &objectTarget{objs: objs, keys: keys}},
			{"handler", &handlerTarget{h: handler, keys: keys}},
		}
	}
	main.levels = append(main.levels, level{"client", &clientTarget{cl: cl, keys: keys}})
	s.fixtures = append(s.fixtures, main)
	return nil
}

func (s *stack) buildCluster(cycles int64, o stackOptions) error {
	w := s.w
	var specs []cluster.NodeSpec
	for _, id := range []string{"alpha", "beta", "gamma"} {
		node := netdev.NewMemNode(id)
		srv := httptest.NewServer(node.Handler())
		s.closers = append(s.closers, func() error {
			srv.Close()
			return node.Close()
		})
		specs = append(specs, cluster.NodeSpec{ID: id, URL: srv.URL})
	}
	copts := cluster.Options{
		// No Dir: the coordinator's journal and manifest stay in memory.
		// On the reference box an fsync of the virtio disk has a median of
		// 2.5-3.9 ms and a p90 of 4-9 ms, drifting by the minute; with one
		// journal commit per write that noise was the whole write metric.
		Nodes: specs,
		// A long grace window keeps a hiccup from turning into an
		// eviction mid-benchmark.
		Client: netdev.Options{Timeout: 5 * time.Second, MaxAttempts: 2, Grace: time.Hour, Seed: int64(o.seed)},
		Engine: engine.Options{Workers: 4},
		Format: &cluster.FormatSpec{Disks: w.disks, Cycles: cycles, StripBytes: w.stripBytes},
	}
	if o.tr != nil {
		copts.Transport = func(cluster.NodeSpec) http.RoundTripper {
			return o.tr.wrapTransport(http.DefaultTransport.(*http.Transport).Clone())
		}
	}
	c, err := cluster.Open(copts)
	if err != nil {
		return err
	}
	s.closers = append(s.closers, c.Close)
	if o.wrapDev != nil {
		c.Eng.Array().InstrumentDevices(o.wrapDev)
	}
	// The coordinator provisions a replacement device on a node and leaves
	// the failed disk's device where it was. An operator would reclaim
	// it; so does the bench, or node memory grows with every rebuild and
	// mem_peak_mb measures how many rebuilds the run had time for.
	retire := func(disk int) func() error {
		old := c.ManifestSnapshot().Disks[disk]
		return func() error {
			cl := c.Client(old.Node)
			return errors.Join(cl.DeleteDevice(old.Device), cl.DeleteBlob(old.Super))
		}
	}
	s.fixtures = []*fixture{{
		eng: c.Eng, units: c.Eng.Strips(), stripUnits: true, retire: retire,
		orc: newOracle(o.seed, c.Eng.Strips(), w.unitBytes),
		levels: []level{
			{"store", newRangeTarget(arrayRanger{c.Eng.Array()}, w.unitBytes)},
			{"engine", stripTarget{c.Eng}},
		},
	}}
	return nil
}

// fill writes every unit of every fixture once through its top level.
func (s *stack) fill() error {
	for _, f := range s.fixtures {
		t := f.top()
		for u := int64(0); u < f.units; u++ {
			if err := t.write(0, u, f.orc.nextWrite(u)); err != nil {
				return fmt.Errorf("fill unit %d: %w", u, err)
			}
		}
	}
	return nil
}

// byteRanger is the part of store.Array and engine.Engine a rangeTarget
// needs.
type byteRanger interface {
	ReadAt(p []byte, off int64) (int, error)
	WriteAt(p []byte, off int64) (int, error)
}

// arrayRanger is the store rung: it writes through ConcurrentWriteAt, the
// call the engine itself makes under its stripe locks, so that the engine
// rung minus this one is the engine's own time and not also the price of
// the array's exclusive lock. The rung has one caller, which is all the
// exclusion ConcurrentWriteAt asks for.
type arrayRanger struct{ *store.Array }

func (a arrayRanger) WriteAt(p []byte, off int64) (int, error) { return a.ConcurrentWriteAt(p, off) }

// rangeTarget addresses unit u as the byte range [u*unitBytes, +unitBytes).
type rangeTarget struct {
	rw        byteRanger
	unitBytes int64
	bufs      [2][]byte
}

func newRangeTarget(rw byteRanger, unitBytes int) *rangeTarget {
	return &rangeTarget{rw: rw, unitBytes: int64(unitBytes),
		bufs: [2][]byte{make([]byte, unitBytes), make([]byte, unitBytes)}}
}

func (t *rangeTarget) write(_ int, unit int64, p []byte) error {
	_, err := t.rw.WriteAt(p, unit*t.unitBytes)
	return err
}

func (t *rangeTarget) read(c int, unit int64) ([]byte, error) {
	_, err := t.rw.ReadAt(t.bufs[c], unit*t.unitBytes)
	return t.bufs[c], err
}

// stripTarget is the engine's single-strip API.
type stripTarget struct{ eng *engine.Engine }

func (t stripTarget) write(_ int, unit int64, p []byte) error { return t.eng.WriteStrip(unit, p) }
func (t stripTarget) read(_ int, unit int64) ([]byte, error)  { return t.eng.ReadStrip(unit) }

// objectTarget calls the object plane in process.
type objectTarget struct {
	objs *object.Store
	keys []string
	bufs [2]bytes.Buffer
}

func (t *objectTarget) write(_ int, unit int64, p []byte) error {
	_, err := t.objs.PutObject(context.Background(), bucket, t.keys[unit], bytes.NewReader(p), int64(len(p)), nil)
	return err
}

func (t *objectTarget) read(c int, unit int64) ([]byte, error) {
	t.bufs[c].Reset()
	_, err := t.objs.GetObject(context.Background(), bucket, t.keys[unit], &t.bufs[c])
	return t.bufs[c].Bytes(), err
}

// handlerTarget drives the server's handler in process: routing, the
// timeout handler's buffering and the object calls, without a socket.
type handlerTarget struct {
	h    http.Handler
	keys []string
}

func (t *handlerTarget) do(method string, unit int64, body []byte) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	path := "/v1/buckets/" + bucket + "/objects/" + t.keys[unit]
	req := httptest.NewRequest(method, path, rd)
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("handler %s %s: status %d: %s", method, path, rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
	}
	return rec.Body.Bytes(), nil
}

func (t *handlerTarget) write(_ int, unit int64, p []byte) error {
	_, err := t.do(http.MethodPut, unit, p)
	return err
}

func (t *handlerTarget) read(_ int, unit int64) ([]byte, error) {
	return t.do(http.MethodGet, unit, nil)
}

// clientTarget is the product's object path: server.Client over loopback.
type clientTarget struct {
	cl   *server.Client
	keys []string
	bufs [2]bytes.Buffer
}

func (t *clientTarget) write(_ int, unit int64, p []byte) error {
	_, err := t.cl.PutObject(bucket, t.keys[unit], bytes.NewReader(p), int64(len(p)), nil)
	return err
}

func (t *clientTarget) read(c int, unit int64) ([]byte, error) {
	t.bufs[c].Reset()
	_, err := t.cl.GetObject(bucket, t.keys[unit], &t.bufs[c])
	return t.bufs[c].Bytes(), err
}
