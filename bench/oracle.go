package main

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
)

// rng is splitmix64: small, fast, and the same stream for the same seed
// on every platform, so a seed fixes the op schedule.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a value in [0, n).
func (r *rng) intn(n int64) int64 { return int64(r.next() % uint64(n)) }

func mix(a, b, c uint64) uint64 {
	r := rng{s: a ^ (b * 0xd6e8feb86659fd93) ^ (c * 0xca5a826395121157)}
	return r.next()
}

// oracle is the in-memory model every byte is checked against. A unit
// (strip or object) at version v holds a window of a seeded noise pool
// whose offset is a hash of (seed, unit, v): writes hand the stack a
// slice of the pool, so generating content costs the timed loop nothing,
// and the expected content of a read is the same slice.
type oracle struct {
	seed      uint64
	unitBytes int
	pool      []byte
	windows   uint64   // distinct 8-byte-aligned window offsets
	version   []uint32 // per unit; 0 = never written
}

// poolSpan is the range window offsets are drawn from: 2 MiB gives
// 262144 distinct windows, so a misdirected or stale unit matches the
// expected one by chance once in a quarter of a million.
const poolSpan = 2 << 20

func newOracle(seed uint64, units int64, unitBytes int) *oracle {
	o := &oracle{
		seed:      seed,
		unitBytes: unitBytes,
		pool:      make([]byte, poolSpan+unitBytes),
		windows:   poolSpan / 8,
		version:   make([]uint32, units),
	}
	r := rng{s: seed ^ 0x6f69726169642121}
	for i := 0; i+8 <= len(o.pool); i += 8 {
		binary.LittleEndian.PutUint64(o.pool[i:], r.next())
	}
	return o
}

func (o *oracle) payload(unit int64, ver uint32) []byte {
	off := (mix(o.seed, uint64(unit), uint64(ver)) % o.windows) * 8
	return o.pool[off : off+uint64(o.unitBytes)]
}

// nextWrite bumps the unit's version and returns the content to write.
// A unit belongs to one client at a time, so versions need no lock.
func (o *oracle) nextWrite(unit int64) []byte {
	o.version[unit]++
	return o.payload(unit, o.version[unit])
}

// check reports whether got is the unit's current content.
func (o *oracle) check(unit int64, got []byte) bool {
	return bytes.Equal(got, o.payload(unit, o.version[unit]))
}

// Phase identifiers, also the salt of each phase's op stream.
const (
	phSetup = iota
	phWrite
	phRead
	phMixed
	phDegraded
	phRebuild
	phDeep
	numPhases
)

var phaseNames = [numPhases]string{"P0 setup", "P1 write", "P2 read", "P3 mixed", "P4 degraded read", "P5 rebuild", "P6 deep read"}

// opStream is the seeded schedule of one (phase, client): which unit the
// next op touches and, in the mixed phase, whether it writes.
type opStream struct{ r rng }

func newOpStream(seed uint64, phase, client int) *opStream {
	return &opStream{r: rng{s: mix(seed, uint64(phase)+1, uint64(client)+1)}}
}

// pick draws a unit from [lo, lo+n) and a write flag that is set 30 % of
// the time (only the mixed phase looks at it).
func (s *opStream) pick(lo, n int64) (unit int64, write bool) {
	v := s.r.next()
	return lo + int64((v>>8)%uint64(n)), v&0xff < 77
}

// scheduleHash fingerprints the schedule a seed produces: the first 4096
// draws of every (phase, client) stream over the given unit count. Runs
// are time-bounded, so the number of ops consumed differs from run to
// run, but every run walks a prefix of the same streams.
func scheduleHash(seed uint64, units int64) uint64 {
	h := fnv.New64a()
	var b [9]byte
	for ph := 0; ph < numPhases; ph++ {
		for c := 0; c < 2; c++ {
			s := newOpStream(seed, ph, c)
			for i := 0; i < 4096; i++ {
				u, w := s.pick(0, units)
				binary.LittleEndian.PutUint64(b[:8], uint64(u))
				b[8] = 0
				if w {
					b[8] = 1
				}
				h.Write(b[:])
			}
		}
	}
	return h.Sum64()
}
