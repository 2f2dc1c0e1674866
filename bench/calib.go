package main

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"time"
)

// The reference box is a shared two-core VM whose speed moves for seconds
// to minutes at a time: a neighbour on the sibling hyperthread or on the
// memory bus slows compute by a fifth, and a busy host makes waking an
// idle vCPU (every loopback round trip needs one) several times slower.
// Those episodes outlast any round and often a whole run, so no
// within-run statistic removes them: ten runs of identical code spread
// (interquartile range over median) 8-24 % on the throughputs as measured.
// What removes about half of it is a yardstick measured beside each round: a fixed
// piece of bench-owned work, timed just before and just after every
// round, to whose nominal speed every time-based number is referred:
//
//	slowdown      = median yardstick ms around the round's lap ÷ nominal ms
//	reported MB/s = measured MB/s × slowdown
//	reported ms   = measured ms   ÷ slowdown
//
// The yardstick is code of the benchmark, not of the program under test,
// so a change to the program cannot move it; it moves only with the
// machine. A workload uses the yardstick that is slowed by what slows the
// workload: compute for the in-process and the 1 MiB object paths, loopback
// round trips for the cluster. Every report prints each number as measured
// ("raw") beside the reported one, and -repeat prints the spread of both,
// which is the evidence BASELINE.md keeps: referring halves the spread on
// every workload. The traced run's machine.ref_ms gives the run's median
// yardstick time.
type yardstick interface {
	// once does the fixed work and returns the milliseconds it took.
	once() float64
	// nominal is the time once() is referred to.
	nominal() float64
	close() error
}

// The nominal times are once() on the reference box (2-core Xeon 2.1 GHz
// VM) in its usual state. They only fix the scale of the reported numbers,
// so that a reported MB/s is close to a measured one on that box; a
// comparison between two commits divides them out. They are not to be
// re-tuned: changing one rescales every number the workload ever reported.
const (
	computeNominalMs  = 2.5
	loopbackNominalMs = 1.45
)

type yardKind int

const (
	yardCompute yardKind = iota
	yardLoopback
)

func newYardstick(k yardKind) yardstick {
	if k == yardLoopback {
		return newLoopbackYard()
	}
	return newComputeYard()
}

// sample3 is the median of three timings, for the places that take only a
// few samples.
func sample3(y yardstick) float64 {
	return median([]float64{y.once(), y.once(), y.once()})
}

// computeYard XORs pseudo-randomly placed 4 KiB blocks of a 32 MiB buffer
// into an accumulator, storing it back every eighth block. Like the
// array's own hot loops it is part streaming XOR, part cache-missing
// address generation, which is why it tracks them.
type computeYard struct {
	buf []uint64
	acc [512]uint64
	r   rng
}

const computeBlocks = 4000

func newComputeYard() *computeYard {
	k := &computeYard{buf: make([]uint64, 32<<20/8), r: rng{s: 99}}
	for i := range k.buf {
		k.buf[i] = uint64(i) * 0x9e3779b97f4a7c15
	}
	return k
}

func (k *computeYard) work() {
	blocks := uint64(len(k.buf) / 512)
	for b := 0; b < computeBlocks; b++ {
		off := (k.r.next() % blocks) * 512
		blk := k.buf[off : off+512]
		for i := range blk {
			k.acc[i] ^= blk[i]
		}
		if b&7 == 0 {
			copy(blk, k.acc[:])
		}
	}
}

// once times the work after one untimed pass of it: the round before has
// pushed the buffer out of the last-level cache, and how far depends on
// the program's footprint, which the yardstick must not.
func (k *computeYard) once() float64 {
	k.work()
	t0 := time.Now()
	k.work()
	return time.Since(t0).Seconds() * 1e3
}

func (k *computeYard) nominal() float64 { return computeNominalMs }
func (k *computeYard) close() error     { return nil }

// loopbackYard does 60 keep-alive HTTP round trips of 4 KiB to a trivial
// handler in this process: the socket, netpoller and thread wake-up path a
// coordinator-to-node RPC takes, with none of the array's code on it.
type loopbackYard struct {
	srv *httptest.Server
	cl  *http.Client
	err error
}

const loopbackTrips = 60

func newLoopbackYard() *loopbackYard {
	body := make([]byte, 4096)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) { w.Write(body) }))
	y := &loopbackYard{srv: srv, cl: &http.Client{Transport: http.DefaultTransport.(*http.Transport).Clone()}}
	y.once() // connect
	return y
}

func (y *loopbackYard) once() float64 {
	t0 := time.Now()
	for i := 0; i < loopbackTrips; i++ {
		resp, err := y.cl.Get(y.srv.URL)
		if err != nil {
			y.err = fmt.Errorf("loopback yardstick: %w", err)
			continue
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	return time.Since(t0).Seconds() * 1e3
}

func (y *loopbackYard) nominal() float64 { return loopbackNominalMs }

// close stops the yardstick's server and reports the first round trip
// that failed, if any: a yardstick that could not run measured nothing.
func (y *loopbackYard) close() error {
	y.cl.CloseIdleConnections()
	y.srv.Close()
	return y.err
}
