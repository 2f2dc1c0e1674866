package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"github.com/oiraid/oiraid/internal/core"
	"github.com/oiraid/oiraid/internal/erasure"
	"github.com/oiraid/oiraid/internal/gf"
	"github.com/oiraid/oiraid/internal/layout"
)

// The traced run prices one op at every rung of the ladder. A cell is
// one (rung, op class): the rung's op timed over cellRounds time-bounded
// rounds (median of the per-round mean), then a fixed, seed-independent
// list of countOps units replayed once with the program's counters read
// before and after, so the counts repeat exactly from run to run.
const (
	cellRounds = 5
	// countOps bounds the counting pass; object ops are 16 strips each,
	// so fewer of them carry the same information.
	countOpsStrip  = 128
	countOpsObject = 8
)

// Op classes, in the order the traced run visits them.
const (
	clsWrite    = "write"
	clsRead     = "read"
	clsDegraded = "degraded_read"
	clsDeep     = "deep_read"
)

// cell is one measured (rung, op class).
type cell struct {
	Layer          string
	Class          string
	RoundUs        []float64 // as measured
	MedianUs       float64   // as measured; the metrics refer it to the yardstick
	P99Ms          float64
	DevTimeFrac    float64 // device-interposer time over op time
	WireTimeFrac   float64 // transport-interposer time over op time
	CountOps       int64
	AllocsPerOp    float64
	DevReadsPerOp  float64
	DevWritesPerOp float64
	RPCsPerOp      float64
	Attempted      int64
	Failed         int64
}

type tracedRun struct {
	w     *workload
	s     *stack
	tr    *tracer
	seed  uint64
	round time.Duration
	ref   yardstick
	refMs []float64 // every yardstick sample of the run
	cells []*cell
	errs  []string
	nCell int
}

// yard takes a yardstick sample and remembers it for machine.ref_ms.
func (t *tracedRun) yard() float64 {
	v := sample3(t.ref)
	t.refMs = append(t.refMs, v)
	return v
}

func (t *tracedRun) fail(format string, a ...any) {
	if len(t.errs) < 8 {
		t.errs = append(t.errs, fmt.Sprintf(format, a...))
	}
}

// opFor returns the cell's op: class cls at level lv of fixture f.
func (t *tracedRun) opFor(f *fixture, lv level, cls string) func(u int64) bool {
	var seq int64
	return func(u int64) bool {
		if cls == clsWrite {
			if err := lv.t.write(0, u, f.orc.nextWrite(u)); err != nil {
				t.fail("%s %s unit %d: %v", lv.layer, cls, u, err)
				return false
			}
			return true
		}
		got, err := lv.t.read(0, u)
		if err != nil {
			t.fail("%s %s unit %d: %v", lv.layer, cls, u, err)
			return false
		}
		if seq++; seq%checkEvery == 0 && !f.orc.check(u, got) {
			t.fail("%s %s unit %d differs from the oracle", lv.layer, cls, u)
			return false
		}
		return len(got) == t.w.unitBytes
	}
}

// timeRound runs op over seeded units until the round's deadline and
// returns the time spent inside ops and their count: the warm-up of a
// cell and the rounds of the overhead measurement.
func (t *tracedRun) timeRound(c *cell, op func(int64) bool, stream *opStream, units []int64) (busy time.Duration, ops int64) {
	deadline := time.Now().Add(t.round)
	for {
		i, _ := stream.pick(0, int64(len(units)))
		s := time.Now()
		ok := op(units[i])
		e := time.Now()
		ops++
		c.Attempted++
		if !ok {
			c.Failed++
		}
		busy += e.Sub(s)
		if !e.Before(deadline) {
			return busy, ops
		}
	}
}

// cellRun is one cell while it is being measured.
type cellRun struct {
	t      *tracedRun
	c      *cell
	f      *fixture
	op     func(int64) bool
	stream *opStream
	units  []int64
	lat    []uint32
	// Sums of the round in progress.
	busy      time.Duration
	dev, wire int64
	ops       int64
}

func (t *tracedRun) newCell(f *fixture, lv level, cls string, units []int64) *cellRun {
	t.nCell++
	return &cellRun{t: t, f: f, units: units,
		c:      &cell{Layer: lv.layer, Class: cls},
		op:     t.opFor(f, lv, cls),
		stream: newOpStream(t.seed, numPhases+t.nCell, 0)}
}

// one runs one op of the cell inside a measured round and adds its time,
// and the interposers' share of it, to the round's sums. With record set
// the op becomes a top-level span, which the interposers parent theirs
// under.
func (r *cellRun) one(record bool) {
	t, c := r.t, r.c
	i, _ := r.stream.pick(0, int64(len(r.units)))
	dev0 := t.tr.devNs.Load()
	_, wire0 := t.tr.rpcTotals()
	var id int64
	if record {
		id = t.tr.nextID.Add(1)
		t.tr.cur.Store(id)
	}
	s := time.Now()
	ok := r.op(r.units[i])
	e := time.Now()
	if record {
		t.tr.cur.Store(0)
		t.tr.add(id, 0, c.Layer+"."+c.Class, s, e)
	}
	c.Attempted++
	if !ok {
		c.Failed++
	}
	_, wire1 := t.tr.rpcTotals()
	r.busy += e.Sub(s)
	r.dev += t.tr.devNs.Load() - dev0
	r.wire += wire1 - wire0
	r.ops++
	r.lat = append(r.lat, uint32(e.Sub(s).Nanoseconds()))
}

// endRound folds the round's sums into the cell.
func (r *cellRun) endRound() {
	c, busy := r.c, float64(r.busy.Nanoseconds())
	c.RoundUs = append(c.RoundUs, busy/1e3/float64(r.ops))
	c.DevTimeFrac += float64(r.dev) / busy / cellRounds
	c.WireTimeFrac += float64(r.wire) / busy / cellRounds
	r.busy, r.dev, r.wire, r.ops = 0, 0, 0, 0
}

// finish reduces the timed rounds and runs the counting pass: the same
// units in the same order on every run, done twice with the smaller delta
// kept, so an allocation by one of the program's background goroutines
// does not land in a count.
func (r *cellRun) finish() {
	t, c, f := r.t, r.c, r.f
	c.MedianUs = median(c.RoundUs)
	sort.Slice(r.lat, func(i, j int) bool { return r.lat[i] < r.lat[j] })
	c.P99Ms = quantileMs(r.lat, 0.99)
	r.lat = nil

	n := countOpsStrip
	if !f.stripUnits {
		n = countOpsObject
	}
	list := sampled(r.units, n)
	arr := f.eng.Array()
	ops := float64(len(list))
	strips := ops * float64(t.w.unitBytes/t.w.stripBytes)
	c.CountOps = int64(len(list))
	for pass := 0; pass < 2; pass++ {
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		io0 := arr.Stats()
		rpc0, _ := t.tr.rpcTotals()
		for _, u := range list {
			c.Attempted++
			if !r.op(u) {
				c.Failed++
			}
		}
		io1 := arr.Stats()
		rpc1, _ := t.tr.rpcTotals()
		runtime.ReadMemStats(&m1)
		keep := func(dst *float64, v float64) {
			if pass == 0 || v < *dst {
				*dst = v
			}
		}
		keep(&c.AllocsPerOp, float64(m1.Mallocs-m0.Mallocs)/ops)
		keep(&c.DevReadsPerOp, float64(io1.ReadOps-io0.ReadOps)/strips)
		keep(&c.DevWritesPerOp, float64(io1.WriteOps-io0.WriteOps)/strips)
		keep(&c.RPCsPerOp, float64(rpc1-rpc0)/ops)
	}
	t.cells = append(t.cells, c)
}

// overhead prices the interposers: rounds of the top rung's write then
// read alternate between interposers idle and recording, so machine
// drift falls on both sides alike, and the result is the recording
// rounds' median time per op over the idle rounds', minus 1.
func (t *tracedRun) overhead(f *fixture, lv level, units []int64) float64 {
	c := &cell{Layer: "overhead", Class: "write+read"}
	t.nCell++
	stream := newOpStream(t.seed, numPhases+t.nCell, 0)
	write, read := t.opFor(f, lv, clsWrite), t.opFor(f, lv, clsRead)
	flip := false
	op := func(u int64) bool {
		if flip = !flip; flip {
			return write(u)
		}
		return read(u)
	}
	was := t.tr.on.Load()
	var per [2][]float64
	t.timeRound(c, op, stream, units) // warm
	for round := 0; round < 2*cellRounds; round++ {
		t.tr.on.Store(round%2 == 1)
		busy, ops := t.timeRound(c, op, stream, units)
		per[round%2] = append(per[round%2], float64(busy.Nanoseconds())/1e3/float64(ops))
	}
	t.tr.on.Store(was)
	c.RoundUs = append(per[0], per[1]...)
	c.MedianUs = median(per[0])
	t.cells = append(t.cells, c)
	return median(per[1])/median(per[0]) - 1
}

// class measures one op class on every rung of every fixture, bottom up,
// over the units holding data on the given disks. The rungs take turns op
// by op: a rung's self time is a difference between two rungs, each some
// tens of microseconds and the difference a few, and the box's speed moves
// by a tenth within a second. Measured one after the other, or even in
// alternating rounds, two rungs sit in different states of the machine and
// their difference comes out negative as often as not; taking turns op by
// op, every rung sees the same machine and the drift cancels.
func (t *tracedRun) class(cls string, disks []int) {
	var runs []*cellRun
	for _, f := range t.s.fixtures {
		units := f.unitsOn(disks)
		for _, lv := range f.levels {
			runs = append(runs, t.newCell(f, lv, cls, units))
		}
	}
	t.yard()
	for _, r := range runs {
		t.timeRound(r.c, r.op, r.stream, r.units) // warm
	}
	for round := 0; round < cellRounds; round++ {
		deadline := time.Now().Add(t.round * time.Duration(len(runs)))
		for turn := int64(0); ; turn++ {
			for _, r := range runs {
				r.one(round == 0 && turn < spanOps)
			}
			if !time.Now().Before(deadline) {
				break
			}
		}
		for _, r := range runs {
			r.endRound()
		}
	}
	t.yard()
	for _, r := range runs {
		r.finish()
	}
	runtime.GC()
}

func allDisks(n int) []int {
	d := make([]int, n)
	for i := range d {
		d[i] = i
	}
	return d
}

func (t *tracedRun) find(layer, cls string) *cell {
	for _, c := range t.cells {
		if c.Layer == layer && c.Class == cls {
			return c
		}
	}
	return &cell{}
}

// runTraced is the per-layer run: the same op at every rung with the
// interposers recording, plus the kernels below the array measured on
// their own.
func runTraced(w *workload, cfg config) (*report, error) {
	rep := newReport(w, cfg)
	tr := newTracer()
	ref := newYardstick(w.yard)
	s, setups, _, err := setup(w, stackOptions{seed: uint64(cfg.seed), tr: tr}, 1, ref)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	rep.SetupS = setups
	rep.ScheduleHash = fmt.Sprintf("%016x", scheduleHash(uint64(cfg.seed), s.main().units))
	rungs := 0
	for _, f := range s.fixtures {
		rungs += len(f.levels)
	}
	// Four classes on every rung, two cells' worth of overhead rounds,
	// and about four cells' worth of kernels, rebuilds and counting
	// passes.
	slots := 4*rungs + 2 + 4
	t := &tracedRun{w: w, s: s, tr: tr, ref: ref, seed: uint64(cfg.seed),
		round: time.Duration(cfg.seconds / float64(slots) / float64(cellRounds+1) * float64(time.Second))}
	rep.Rounds, rep.RoundMs = cellRounds, t.round.Seconds()*1e3

	t.kernels(rep)

	main := s.main()
	top := main.levels[len(main.levels)-1]
	all := main.unitsOn(allDisks(w.disks))

	overhead := t.overhead(main, top, all)

	tr.on.Store(true)
	t.class(clsWrite, allDisks(w.disks))
	t.class(clsRead, allDisks(w.disks))
	onW, onR := t.find(top.layer, clsWrite), t.find(top.layer, clsRead)

	for _, f := range s.fixtures {
		if err := f.eng.FailDisk(0); err != nil {
			t.fail("fail disk 0: %v", err)
		}
	}
	t.class(clsDegraded, []int{0})

	// Rebuild disk 0 of every fixture; the bottom fixture's is reported.
	var rebuildMBps, readsPerRebuilt float64
	for i, f := range s.fixtures {
		arr := f.eng.Array()
		perDisk := int64(arr.Analyzer().SlotsPerDisk()) * arr.Cycles()
		io0 := arr.Stats()
		t.yard()
		t0 := time.Now()
		if err := f.rebuildDisk(0, w.rebuildBatch); err != nil {
			t.fail("%v", err)
			continue
		}
		if i == 0 {
			rebuildMBps = float64(perDisk*int64(w.stripBytes)) / 1e6 / time.Since(t0).Seconds()
			t.yard()
			readsPerRebuilt = float64(arr.Stats().ReadOps-io0.ReadOps) / float64(perDisk)
		}
	}

	for _, f := range s.fixtures {
		for _, d := range w.deep {
			if err := f.eng.FailDisk(d); err != nil {
				t.fail("fail disk %d: %v", d, err)
			}
		}
	}
	t.class(clsDeep, w.deep)
	tr.on.Store(false)

	// Every byte the traced run wrote is still checked, through the top
	// rung of each fixture, with the deep set failed.
	var phases []*phaseStat
	for _, f := range s.fixtures {
		r := &runner{w: w, f: f, t: f.top()}
		r.verifyAll("traced run")
		phases = append(phases, r.phases...)
		t.errs = append(t.errs, r.errs...)
	}
	for _, err := range []error{s.close(), ref.close()} {
		if err != nil {
			t.fail("close: %v", err)
		}
	}
	if err := tr.writeFile(filepath.Join(cfg.out, "trace-"+w.Name+".json")); err != nil {
		t.fail("writing trace: %v", err)
	}

	rep.addPhases(phases, t.errs)
	rep.Cells = t.cells
	for _, c := range t.cells {
		rep.Attempted += c.Attempted
		rep.Failed += c.Failed
	}
	if len(t.errs) > 0 && rep.Failed == 0 {
		rep.Failed = int64(len(t.errs))
	}

	us := func(layer, cls string) float64 { return t.find(layer, cls).MedianUs }
	// self is a rung's time minus the rung below: the median of the
	// round-by-round differences, since the two took turns in each round.
	self := func(upper, lower, cls string) float64 {
		u, l := t.find(upper, cls).RoundUs, t.find(lower, cls).RoundUs
		if len(u) != len(l) {
			return 0
		}
		d := make([]float64, len(u))
		for i := range u {
			d[i] = u[i] - l[i]
		}
		return median(d)
	}
	rep.set("store.write_us", us("store", clsWrite))
	rep.set("store.read_us", us("store", clsRead))
	rep.set("store.degraded_read_us", us("store", clsDegraded))
	rep.set("store.deep_read_us", us("store", clsDeep))
	rep.set("store.rebuild_mbps", rebuildMBps)
	rep.set("store.write_allocs_per_op", t.find("store", clsWrite).AllocsPerOp)
	rep.set("store.deep_read_allocs_per_op", t.find("store", clsDeep).AllocsPerOp)
	rep.set("store.dev_reads_per_write", t.find("store", clsWrite).DevReadsPerOp)
	rep.set("store.dev_writes_per_write", t.find("store", clsWrite).DevWritesPerOp)
	rep.set("store.dev_reads_per_degraded_read", t.find("store", clsDegraded).DevReadsPerOp)
	rep.set("store.dev_reads_per_deep_read", t.find("store", clsDeep).DevReadsPerOp)
	rep.set("store.dev_reads_per_rebuilt_strip", readsPerRebuilt)
	rep.set("store.device_time_frac", t.find("store", clsWrite).DevTimeFrac)
	rep.set("engine.write_self_us", self("engine", "store", clsWrite))
	rep.set("engine.read_self_us", self("engine", "store", clsRead))
	rep.set("engine.write_allocs_per_op", t.find("engine", clsWrite).AllocsPerOp)

	// Layers a workload does not have report 0.
	for _, m := range ladder {
		if _, ok := rep.Metrics[m.Name]; !ok {
			rep.set(m.Name, 0)
		}
	}
	if w.kind == kindObject {
		rep.set("object.put_self_us", self("object", "engine", clsWrite))
		rep.set("object.get_self_us", self("object", "engine", clsRead))
		rep.set("object.put_allocs_per_op", t.find("object", clsWrite).AllocsPerOp)
		rep.set("object.get_allocs_per_op", t.find("object", clsRead).AllocsPerOp)
		rep.set("object.dev_writes_per_put", t.find("object", clsWrite).DevWritesPerOp*float64(w.unitBytes/w.stripBytes))
		rep.set("server.handler_self_us", self("handler", "object", clsWrite)+self("handler", "object", clsRead))
		rep.set("server.client_self_us", self("client", "handler", clsWrite)+self("client", "handler", clsRead))
	}
	if w.kind == kindCluster {
		mean := func(class int) float64 {
			if n := tr.rpcN[class].Load(); n > 0 {
				return float64(tr.rpcNs[class].Load()) / float64(n) / 1e3
			}
			return 0
		}
		rep.set("netdev.read_rtt_us", mean(rpcRead))
		rep.set("netdev.write_rtt_us", mean(rpcWrite))
		rep.set("netdev.rpcs_per_write", onW.RPCsPerOp)
		rep.set("netdev.rpcs_per_read", onR.RPCsPerOp)
		rep.set("cluster.wire_time_frac", onW.WireTimeFrac)
		rep.set("cluster.local_us_per_write", onW.MedianUs*(1-onW.WireTimeFrac))
	}
	rep.set("trace.overhead_frac", overhead)
	// Every time-based number so far is referred to the yardstick through
	// the run's median slowdown (cells are too short to carry their own).
	slow := median(t.refMs) / ref.nominal()
	for name, mv := range rep.Metrics {
		raw := mv.Value
		switch mv.Unit {
		case "MB/s":
			mv.Value *= slow
		case "us", "ns", "ms":
			mv.Value /= slow
		default:
			continue
		}
		rep.Metrics[name] = mv
		if raw != 0 {
			rep.Raw[name] = raw
		}
	}
	// The tails and the yardstick itself are reported as measured.
	rep.set("tail.write_p99_ms", onW.P99Ms)
	rep.set("tail.read_p99_ms", onR.P99Ms)
	rep.set("machine.ref_ms", median(t.refMs))
	return rep, nil
}

// timeLoop reports the median over cellRounds rounds of fn's mean time
// per call, each round lasting about d.
func (t *tracedRun) timeLoop(d time.Duration, fn func()) time.Duration {
	var per []float64
	t.yard()
	for round := 0; round <= cellRounds; round++ {
		t0 := time.Now()
		n := 0
		for time.Since(t0) < d {
			for i := 0; i < 8; i++ {
				fn()
			}
			n += 8
		}
		if round > 0 {
			per = append(per, float64(time.Since(t0).Nanoseconds())/float64(n))
		}
	}
	return time.Duration(median(per))
}

// kernels measures gf, erasure and core on their own, at the workload's
// strip size and geometry.
func (t *tracedRun) kernels(rep *report) {
	w, s := t.w, t.s
	round := t.round / 4
	timeLoop := func(fn func()) time.Duration { return t.timeLoop(round, fn) }
	size := w.stripBytes
	src, dst := make([]byte, size), make([]byte, size)
	r := rng{s: 7}
	for i := range src {
		src[i] = byte(r.next())
	}
	mbps := func(bytes int, per time.Duration) float64 { return float64(bytes) / 1e6 / per.Seconds() }
	rep.set("gf.xor_mbps", mbps(size, timeLoop(func() { gf.XorSlice(src, dst) })))
	rep.set("gf.muladd_mbps", mbps(size, timeLoop(func() { gf.MulAddSlice256(0x1d, src, dst) })))

	shape := s.an.StripeShapes()[0]
	k, m := shape[0], shape[1]
	code, err := erasure.NewCode(k, m)
	if err != nil {
		t.fail("erasure.NewCode(%d,%d): %v", k, m, err)
		return
	}
	shards := erasure.AllocShards(k, m, size)
	for i := 0; i < k; i++ {
		copy(shards[i], src)
	}
	if err := code.Encode(shards); err != nil {
		t.fail("encode: %v", err)
		return
	}
	rep.set("erasure.encode_mbps", mbps(k*size, timeLoop(func() { code.Encode(shards) })))
	present := make([]bool, k+m)
	var sh [][]byte
	reconstruct := func() {
		// The array allocates its shard set per decode; so does this.
		sh = erasure.AllocShards(k, m, size)
		for i := 1; i < k+m; i++ {
			present[i] = true
			copy(sh[i], shards[i])
		}
		present[0] = false
		code.Reconstruct(sh, present)
	}
	rep.set("erasure.reconstruct_mbps", mbps(k*size, timeLoop(reconstruct)))
	if !bytes.Equal(sh[0], shards[0]) {
		t.fail("erasure: reconstructed shard differs from the original")
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < 64; i++ {
		reconstruct()
	}
	runtime.ReadMemStats(&m1)
	rep.set("erasure.reconstruct_allocs_per_op", float64(m1.Mallocs-m0.Mallocs)/64)

	rep.set("core.plan_us", float64(timeLoop(func() { s.an.Plan(w.deep, core.PlanOptions{}) }).Nanoseconds())/1e3)
	var onZero layout.Strip
	arr := s.fixtures[0].eng.Array()
	for u := int64(0); u < s.fixtures[0].eng.Strips(); u++ {
		if arr.DataStripDisk(u) == 0 {
			onZero, _ = arr.LocateDataStrip(u)
			break
		}
	}
	alive := func(d int) bool { return d != 0 }
	rep.set("core.decode_path_ns", float64(timeLoop(func() { s.an.DecodePath(onZero, alive) }).Nanoseconds()))
}
