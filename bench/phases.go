package main

import (
	"fmt"
	"math/bits"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// Round structure: the run is a sequence of laps, and a lap runs one
// round of every timed phase (P1..P6) back to back. Lap 0 is the warm lap
// and is discarded; each phase's number is the median over the measured
// laps. Rounds are time-bounded (each runs its closed loop until the
// round's deadline), so a run takes the same wall time on a slow box and
// after a speed-up. Interleaving matters on a shared box: a neighbour's
// burst lasts seconds and slows whatever runs then by a fifth, so a phase
// whose rounds were contiguous would sit inside one burst whole, while a
// phase whose rounds are spread over the run loses a round or two and
// keeps its median.
const (
	timedPhases = 6 // P1..P6 share -seconds equally
	setupReps   = 5 // set-ups per run; setup_s is their median
	checkEvery  = 16
	// mixedProcs is GOMAXPROCS during P3's rounds: its two clients must be
	// able to run in parallel, or a write-path gain bought with a contended
	// lock or cache line would not show as mixed_mbps falling.
	mixedProcs = 2
)

// roundStat is one measured round. MBps and P50Ms are referred to the
// yardstick (see calib.go); RawMBps is what the clock said.
type roundStat struct {
	Lap      int
	Ops      int64
	Bytes    int64
	Seconds  float64
	RawMBps  float64
	RawP50Ms float64
	Slowdown float64 // of the round's lap
	MBps     float64
	P50Ms    float64
}

// phaseStat is what one phase reports.
type phaseStat struct {
	Name      string
	WallS     float64
	Attempted int64
	Failed    int64
	Rounds    []roundStat
	MedianMB  float64 // median of the rounds' MBps
	P50Ms     float64 // median of the rounds' P50Ms
	P99Ms     float64 // over all ops of the measured rounds, as measured
	Samples   int
	// RawMedianMB and RawP50Ms are the same medians over the rounds'
	// as-measured values.
	RawMedianMB float64
	RawP50Ms    float64
	lat         latHist // ns per op, measured rounds only
}

func (p *phaseStat) column(get func(roundStat) float64) []float64 {
	v := make([]float64, len(p.Rounds))
	for i, r := range p.Rounds {
		v[i] = get(r)
	}
	return v
}

// opFunc does one op for client c. It returns the user bytes moved, the
// time it spent outside the op proper (in-line verification), and whether
// the op succeeded and verified.
type opFunc func(c int) (bytes int64, excluded time.Duration, ok bool)

// runner drives the phase script over one fixture level.
type runner struct {
	w      *workload
	f      *fixture
	t      target
	seed   uint64
	round  time.Duration
	rounds int
	ref    yardstick
	lap    int
	lapRef [][]float64 // yardstick samples, per lap
	// lapPeak is the VmHWM of each measured lap, reset at the lap's start;
	// empty where the kernel does not allow the reset. peak is the
	// process's VmHWM over the whole run.
	lapPeak []float64
	peak    float64
	timed   [numPhases]*phaseStat
	phases  []*phaseStat // in report order
	errMu   sync.Mutex   // the mixed phase's two clients both report errors
	errs    []string
}

func (r *runner) fail(format string, a ...any) {
	r.errMu.Lock()
	defer r.errMu.Unlock()
	if len(r.errs) < 8 {
		r.errs = append(r.errs, fmt.Sprintf(format, a...))
	}
}

// runRound runs one round of a phase: each client calls op in a closed
// loop until the round's deadline, which it looks at every pass ops (a
// phase whose ops differ widely in cost runs whole passes over a fixed
// list, so every round does the same mix). A round with a floor also runs
// on until it has moved that many bytes. Unmeasured (warm-lap) rounds
// count their ops and failures but contribute no numbers.
func (r *runner) runRound(phase, clients, pass int, floor int64, measured bool, op opFunc) {
	ph := r.timed[phase]
	if ph == nil {
		ph = &phaseStat{Name: phaseNames[phase]}
		r.timed[phase] = ph
		r.phases = append(r.phases, ph)
	}
	type clientOut struct {
		ops, bytes, failed int64
		end                time.Time
		lat                []uint32
	}
	outs := make([]clientOut, clients)
	for len(r.lapRef) <= r.lap {
		r.lapRef = append(r.lapRef, nil)
	}
	r.lapRef[r.lap] = append(r.lapRef[r.lap], r.ref.once())
	t0 := time.Now()
	deadline := t0.Add(r.round)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			o := &outs[c]
			for {
				s := time.Now()
				n, excl, ok := op(c)
				e := time.Now()
				o.ops++
				if ok {
					o.bytes += n
				} else {
					o.failed++
				}
				if measured {
					o.lat = append(o.lat, uint32((e.Sub(s) - excl).Nanoseconds()))
				}
				// A failing op moves no bytes; it must not hold the round
				// open for the floor.
				if o.ops%int64(pass) == 0 && !e.Before(deadline) && (o.bytes >= floor || o.failed > 0) {
					o.end = e
					return
				}
			}
		}(c)
	}
	wg.Wait()
	end := t0
	rs := roundStat{Lap: r.lap}
	var lat []uint32
	for i := range outs {
		o := &outs[i]
		ph.Attempted += o.ops
		ph.Failed += o.failed
		rs.Ops += o.ops
		rs.Bytes += o.bytes
		if o.end.After(end) {
			end = o.end
		}
		lat = append(lat, o.lat...)
	}
	rs.Seconds = end.Sub(t0).Seconds()
	r.lapRef[r.lap] = append(r.lapRef[r.lap], r.ref.once())
	ph.WallS += rs.Seconds
	if measured {
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		rs.RawMBps = float64(rs.Bytes) / 1e6 / rs.Seconds
		rs.RawP50Ms = quantileMs(lat, 0.50)
		ph.Rounds = append(ph.Rounds, rs)
		for _, ns := range lat {
			ph.lat.add(ns)
		}
	}
	runtime.GC()
}

// finish turns the accumulated rounds into the phases' numbers. A
// round is referred to the yardstick through its lap's slowdown, the
// median of the dozen samples taken around the lap's rounds: one
// sample is as noisy as a round, their median is not, and a lap is short
// beside the seconds a slow episode lasts.
func (r *runner) finish() {
	for _, ph := range r.timed {
		if ph == nil {
			continue
		}
		for i := range ph.Rounds {
			rs := &ph.Rounds[i]
			rs.Slowdown = median(r.lapRef[rs.Lap]) / r.ref.nominal()
			rs.MBps = rs.RawMBps * rs.Slowdown
			rs.P50Ms = rs.RawP50Ms / rs.Slowdown
		}
		ph.MedianMB = median(ph.column(func(r roundStat) float64 { return r.MBps }))
		ph.P50Ms = median(ph.column(func(r roundStat) float64 { return r.P50Ms }))
		ph.RawMedianMB = median(ph.column(func(r roundStat) float64 { return r.RawMBps }))
		ph.RawP50Ms = median(ph.column(func(r roundStat) float64 { return r.RawP50Ms }))
		ph.Samples = int(ph.lat.n)
		ph.P99Ms = ph.lat.quantileMs(0.99)
	}
}

// latHist counts latencies in buckets 1/32 of a power of two wide, so a
// phase's p99 over millions of ops costs the process a fixed 8 KiB and
// mem_peak_mb does not grow with the number of ops a fast box fits in.
type latHist struct {
	n      int64
	bucket [32 * 32]int32
}

func latBucket(ns uint32) int {
	if ns < 32 {
		return int(ns)
	}
	e := bits.Len32(ns) - 6 // ns>>e has six bits: 32..63
	return (e+1)*32 + int(ns>>uint(e)) - 32
}

func (h *latHist) add(ns uint32) {
	h.n++
	h.bucket[latBucket(ns)]++
}

// quantileMs returns the lower edge of the bucket holding quantile q.
func (h *latHist) quantileMs(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank, seen := int64(q*float64(h.n-1)), int64(0)
	for b, c := range h.bucket {
		if seen += int64(c); seen > rank {
			if b < 32 {
				return float64(b) / 1e6
			}
			e := b/32 - 1
			return float64(uint64(b%32+32)<<uint(e)) / 1e6
		}
	}
	return 0
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func quantileMs(sorted []uint32, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return float64(sorted[int(q*float64(len(sorted)-1))]) / 1e6
}

// write overwrites unit u as client c with its next version.
func (r *runner) write(c int, u int64) (int64, time.Duration, bool) {
	if err := r.t.write(c, u, r.f.orc.nextWrite(u)); err != nil {
		r.fail("write unit %d: %v", u, err)
		return 0, 0, false
	}
	return int64(r.w.unitBytes), 0, true
}

// read reads unit u as client c and verifies one read in checkEvery
// (seq counts the client's reads), outside the op timer.
func (r *runner) read(c int, u int64, seq *int64) (int64, time.Duration, bool) {
	got, err := r.t.read(c, u)
	if err != nil {
		r.fail("read unit %d: %v", u, err)
		return 0, 0, false
	}
	*seq++
	if *seq%checkEvery != 0 {
		return int64(len(got)), 0, len(got) == r.w.unitBytes
	}
	t0 := time.Now()
	ok := r.f.orc.check(u, got)
	if !ok {
		r.fail("read unit %d: content differs from the oracle", u)
	}
	return int64(len(got)), time.Since(t0), ok
}

// verifyAll reads every unit back and compares it with the oracle.
func (r *runner) verifyAll(after string) {
	ph := &phaseStat{Name: "verify after " + after}
	start := time.Now()
	for u := int64(0); u < r.f.units; u++ {
		ph.Attempted++
		got, err := r.t.read(0, u)
		if err != nil {
			ph.Failed++
			r.fail("verify after %s: unit %d: %v", after, u, err)
		} else if !r.f.orc.check(u, got) {
			ph.Failed++
			r.fail("verify after %s: unit %d differs from the oracle", after, u)
		}
	}
	ph.WallS = time.Since(start).Seconds()
	r.phases = append(r.phases, ph)
	runtime.GC()
}

// rebuildDisk fails disk d (if it is not failed already), then replaces
// and rebuilds every failed disk to completion.
func (f *fixture) rebuildDisk(d int, batch int64) error {
	eng := f.eng
	if err := eng.FailDisk(d); err != nil {
		return fmt.Errorf("fail disk %d: %w", d, err)
	}
	var retire []func() error
	if f.retire != nil {
		for _, fd := range eng.Array().FailedDisks() {
			retire = append(retire, f.retire(fd))
		}
	}
	if err := eng.StartRebuild(batch); err != nil {
		return fmt.Errorf("start rebuild of disk %d: %w", d, err)
	}
	if err := eng.RebuildWait(); err != nil {
		return fmt.Errorf("rebuild of disk %d: %w", d, err)
	}
	if failed := eng.Array().FailedDisks(); len(failed) != 0 {
		return fmt.Errorf("rebuild of disk %d left %v failed", d, failed)
	}
	for _, fn := range retire {
		if err := fn(); err != nil {
			return fmt.Errorf("retiring the old device of a rebuilt disk: %w", err)
		}
	}
	return nil
}

// sampled picks at most n of the units, the same ones on every run: a
// fixed-seed shuffle, not a stride, because a stride beats against the
// layout cycle and lands on the same few positions of every cycle.
func sampled(units []int64, n int) []int64 {
	if len(units) <= n {
		return units
	}
	return shuffled(units, 0x5a17)[:n]
}

// shuffled returns a seeded permutation of units.
func shuffled(units []int64, seed uint64) []int64 {
	out := append([]int64(nil), units...)
	r := rng{s: seed}
	for i := len(out) - 1; i > 0; i-- {
		j := r.intn(int64(i) + 1)
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// script runs the laps of P1..P6 on a filled fixture. The full verify
// passes run in the last lap, each in the state its phase leaves.
func (r *runner) script() {
	defer r.notePeak()
	f, units := r.f, r.f.units
	arr := f.eng.Array()
	diskBytes := int64(arr.Analyzer().SlotsPerDisk()) * arr.Cycles() * int64(arr.StripBytes())
	on0 := f.unitsOn([]int{0})
	// A deep read costs 2 to 200 device reads depending on where its
	// strip sits in the layout, so the deep round walks whole passes over
	// a fixed, seed-independent sample of the failed disks' units (the
	// seed only orders it); every round then reads the same mix.
	deep := shuffled(sampled(f.unitsOn(r.w.deep), r.w.deepSample), mix(r.seed, phDeep, 0))
	// Two mixed clients, each on its own half of the units, so a unit's
	// version has one writer and the oracle needs no lock.
	half := units / 2

	ws := newOpStream(r.seed, phWrite, 0)
	rs := newOpStream(r.seed, phRead, 0)
	ms := [2]*opStream{newOpStream(r.seed, phMixed, 0), newOpStream(r.seed, phMixed, 1)}
	ds := newOpStream(r.seed, phDegraded, 0)
	var seq [2]int64
	var nextDisk, deepAt int

	for lap := 0; lap <= r.rounds; lap++ {
		measured, last := lap > 0, lap == r.rounds
		r.lap = lap
		resetPeak := false
		if measured {
			r.notePeak()
			resetPeak = resetPeakMem()
		}

		r.runRound(phWrite, 1, 1, 0, measured, func(int) (int64, time.Duration, bool) {
			u, _ := ws.pick(0, units)
			return r.write(0, u)
		})
		if last {
			r.verifyAll("P1")
		}
		r.runRound(phRead, 1, 1, 0, measured, func(int) (int64, time.Duration, bool) {
			u, _ := rs.pick(0, units)
			return r.read(0, u, &seq[0])
		})
		procs := runtime.GOMAXPROCS(mixedProcs)
		r.runRound(phMixed, 2, 1, 0, measured, func(c int) (int64, time.Duration, bool) {
			u, write := ms[c].pick(int64(c)*half, half)
			if write {
				return r.write(c, u)
			}
			return r.read(c, u, &seq[c])
		})
		runtime.GOMAXPROCS(procs)
		if last {
			r.verifyAll("P3")
		}

		if err := f.eng.FailDisk(0); err != nil {
			r.fail("fail disk 0: %v", err)
			return
		}
		r.runRound(phDegraded, 1, 1, 0, measured, func(int) (int64, time.Duration, bool) {
			i, _ := ds.pick(0, int64(len(on0)))
			return r.read(0, on0[i], &seq[0])
		})
		if last {
			r.verifyAll("P4")
		}

		// Disk 0 is still failed, so the round's first rebuild repairs
		// it; later ones rotate through the disks.
		nextDisk = 0
		r.runRound(phRebuild, 1, 1, r.w.rebuildFloor, measured, func(int) (int64, time.Duration, bool) {
			d := nextDisk
			nextDisk = (nextDisk + 1) % r.w.disks
			if err := f.rebuildDisk(d, r.w.rebuildBatch); err != nil {
				r.fail("%v", err)
				return 0, 0, false
			}
			return diskBytes, 0, true
		})
		if last {
			r.verifyAll("P5")
		}

		for _, d := range r.w.deep {
			if err := f.eng.FailDisk(d); err != nil {
				r.fail("fail disk %d: %v", d, err)
				return
			}
		}
		deepAt = 0
		r.runRound(phDeep, 1, len(deep), 0, measured, func(int) (int64, time.Duration, bool) {
			u := deep[deepAt%len(deep)]
			deepAt++
			return r.read(0, u, &seq[0])
		})
		if last {
			r.verifyAll("P6")
		} else if err := f.rebuildDisk(r.w.deep[0], r.w.rebuildBatch); err != nil {
			// Untimed: one rebuild restores all three disks for the next lap.
			r.fail("%v", err)
			return
		}
		if resetPeak {
			r.lapPeak = append(r.lapPeak, peakMemMiB())
		}
	}
	r.finish()
}

// setup builds and fills the stack reps times and keeps the last one.
// Each build+fill is a setup_s sample; it returns them referred to the
// yardstick like every other time, and as measured.
func setup(w *workload, o stackOptions, reps int, ref yardstick) (s *stack, times, raw []float64, err error) {
	yard := []float64{sample3(ref)}
	for i := 0; ; i++ {
		runtime.GC()
		t0 := time.Now()
		s, err := buildStack(w, o)
		if err != nil {
			return nil, nil, nil, err
		}
		if err := s.fill(); err != nil {
			s.close()
			return nil, nil, nil, err
		}
		raw = append(raw, time.Since(t0).Seconds())
		yard = append(yard, sample3(ref))
		if i == reps-1 {
			slow := median(yard) / ref.nominal()
			for _, t := range raw {
				times = append(times, t/slow)
			}
			return s, times, raw, nil
		}
		if err := s.close(); err != nil {
			return nil, nil, nil, fmt.Errorf("closing set-up %d: %w", i, err)
		}
	}
}

// notePeak folds the current VmHWM into the run's peak; it is called
// before every reset of the mark and when the script ends.
func (r *runner) notePeak() {
	if p := peakMemMiB(); p > r.peak {
		r.peak = p
	}
}

// resetPeakMem restarts the resident-set high-water mark at the current
// resident set (Linux: "5" to clear_refs) and reports whether it could.
func resetPeakMem() bool {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// peakMemMiB reads the process's resident-set high-water mark.
func peakMemMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	var kb float64
	for _, line := range strings.Split(string(data), "\n") {
		if n, _ := fmt.Sscanf(line, "VmHWM: %f kB", &kb); n == 1 {
			return kb / 1024
		}
	}
	return 0
}
