package store

import (
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// FaultKind selects what a planned (one-shot) fault injection does.
type FaultKind int

const (
	// FaultTransient makes the operation fail with ErrTransient without
	// touching the device.
	FaultTransient FaultKind = iota
	// FaultTorn applies only a prefix of a write before failing with
	// ErrTransient — the on-media state is a mix of new and old bytes, the
	// write hole the journal's redo records exist to close. On reads it
	// degrades to FaultTransient.
	FaultTorn
	// FaultCorrupt flips one bit of the payload silently: the operation
	// reports success but the stored (or returned) bytes are wrong. A
	// An array with a journal turns this into ErrCorrupt on the next read.
	FaultCorrupt
)

// FaultConfig parameterises a FaultDevice. All rates are probabilities in
// [0, 1] drawn per operation from a deterministic seeded stream, so a
// given seed and operation sequence replays the same fault schedule.
type FaultConfig struct {
	// Seed initialises the fault stream (same seed → same faults for the
	// same operation sequence).
	Seed int64
	// TransientRate is the probability that an operation fails with
	// ErrTransient (retrying it succeeds unless it draws again).
	TransientRate float64
	// TornRate is the probability that a write persists only a prefix of
	// the strip and then fails with ErrTransient.
	TornRate float64
	// CorruptRate is the probability that a write silently flips one bit
	// of the stored strip (reported as success).
	CorruptRate float64
	// SlowRate is the probability that an operation is delayed by SlowBy
	// before executing.
	SlowRate float64
	// SlowBy is the injected latency for slow operations.
	SlowBy time.Duration
	// SlowBurstPeriod/SlowBurstLen define a deterministic slow *burst*
	// schedule keyed to the operation counter instead of the rng: every
	// operation whose index modulo SlowBurstPeriod falls below
	// SlowBurstLen sleeps SlowBy. Unlike SlowRate, bursts replay
	// identically for the same operation sequence regardless of wall
	// clock, which is what hedge/quarantine tests need. Both must be
	// positive for bursts to fire.
	SlowBurstPeriod int64
	SlowBurstLen    int64
	// FailAfterOps, when positive, turns the device permanently failed
	// once that many operations have been admitted: every later operation
	// returns ErrPermanent.
	FailAfterOps int64
}

// FaultStats counts the faults a FaultDevice has injected.
type FaultStats struct {
	Ops, Transient, Torn, Corrupt, Slow int64
	Permanent                           bool
}

// FaultDevice wraps a Device with deterministic, seedable fault injection:
// transient errors, torn writes, silent bit-flips, added latency, and a
// transition to permanent failure — the failure taxonomy the self-healing
// stack (the engine's health monitor, auto-rebuild) is built against, and
// which a storage node passes through to its client unchanged. Faults are drawn per operation from the configured rates;
// one-shot faults can additionally be planted per strip with Inject.
type FaultDevice struct {
	inner Device

	mu        sync.Mutex
	cfg       FaultConfig
	rng       *rand.Rand
	planned   map[int64][]FaultKind // per-strip one-shot faults, FIFO
	permanent bool
	stats     FaultStats
}

var _ Device = (*FaultDevice)(nil)

// NewFaultDevice wraps dev with the fault schedule of cfg.
func NewFaultDevice(dev Device, cfg FaultConfig) *FaultDevice {
	return &FaultDevice{
		inner:   dev,
		cfg:     cfg,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		planned: make(map[int64][]FaultKind),
	}
}

// Strips implements Device.
func (f *FaultDevice) Strips() int64 { return f.inner.Strips() }

// StripBytes implements Device.
func (f *FaultDevice) StripBytes() int { return f.inner.StripBytes() }

// Inner exposes the wrapped device.
func (f *FaultDevice) Inner() Device { return f.inner }

// Stats returns a snapshot of the injected-fault counters.
func (f *FaultDevice) Stats() FaultStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	st := f.stats
	st.Permanent = f.permanent
	return st
}

// Inject plants a one-shot fault on strip idx: the next operation touching
// that strip suffers it. Multiple injections queue in FIFO order.
func (f *FaultDevice) Inject(idx int64, kind FaultKind) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.planned[idx] = append(f.planned[idx], kind)
}

// FailNow turns the device permanently failed immediately.
func (f *FaultDevice) FailNow() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.permanent = true
}

// SetTransientRate adjusts the transient-error rate at runtime.
func (f *FaultDevice) SetTransientRate(rate float64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.cfg.TransientRate = rate
}

// SetSlow adjusts the slow-operation injection at runtime: operations are
// delayed by delay with probability rate.
func (f *FaultDevice) SetSlow(rate float64, delay time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.cfg.SlowRate = rate
	f.cfg.SlowBy = delay
}

// SetSlowBurst adjusts the deterministic slow-burst schedule at runtime:
// operations whose index modulo period falls below length sleep delay.
// period <= 0 or length <= 0 disables bursts.
func (f *FaultDevice) SetSlowBurst(period, length int64, delay time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.cfg.SlowBurstPeriod = period
	f.cfg.SlowBurstLen = length
	f.cfg.SlowBy = delay
}

// decision is what admit resolves an operation to, drawn under the lock so
// the stream is deterministic; the fault itself executes outside the lock.
type decision struct {
	err   error
	kind  FaultKind
	fault bool
	sleep time.Duration
}

// admit draws the fault decision for one operation on strip idx.
func (f *FaultDevice) admit(idx int64, write bool) decision {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.stats.Ops++
	if f.cfg.FailAfterOps > 0 && f.stats.Ops > f.cfg.FailAfterOps {
		f.permanent = true
	}
	if f.permanent {
		return decision{err: fmt.Errorf("%w: strip %d", ErrPermanent, idx)}
	}
	var d decision
	if f.cfg.SlowBurstPeriod > 0 && f.cfg.SlowBurstLen > 0 &&
		(f.stats.Ops-1)%f.cfg.SlowBurstPeriod < f.cfg.SlowBurstLen {
		f.stats.Slow++
		d.sleep = f.cfg.SlowBy
	}
	// The rng draw below stays in the stream even when a burst already
	// slowed the op, so enabling bursts never shifts the fault schedule.
	if f.cfg.SlowRate > 0 && f.rng.Float64() < f.cfg.SlowRate && d.sleep == 0 {
		f.stats.Slow++
		d.sleep = f.cfg.SlowBy
	}
	// A planted torn fault only makes sense on a write; reads pass it by
	// and leave it armed for the next write.
	if q := f.planned[idx]; len(q) > 0 && (write || q[0] != FaultTorn) {
		d.kind, d.fault = q[0], true
		if len(q) == 1 {
			delete(f.planned, idx)
		} else {
			f.planned[idx] = q[1:]
		}
	} else if write && f.cfg.TornRate > 0 && f.rng.Float64() < f.cfg.TornRate {
		d.kind, d.fault = FaultTorn, true
	} else if write && f.cfg.CorruptRate > 0 && f.rng.Float64() < f.cfg.CorruptRate {
		d.kind, d.fault = FaultCorrupt, true
	} else if f.cfg.TransientRate > 0 && f.rng.Float64() < f.cfg.TransientRate {
		d.kind, d.fault = FaultTransient, true
	}
	if d.fault {
		switch d.kind {
		case FaultTransient:
			f.stats.Transient++
		case FaultTorn:
			f.stats.Torn++
		case FaultCorrupt:
			f.stats.Corrupt++
		}
	}
	return d
}

// ReadStrip implements Device.
func (f *FaultDevice) ReadStrip(idx int64, p []byte) error {
	d := f.admit(idx, false)
	if d.sleep > 0 {
		time.Sleep(d.sleep)
	}
	if d.err != nil {
		return d.err
	}
	if d.fault {
		switch d.kind {
		case FaultCorrupt:
			// Deliver the real content with one bit flipped.
			if err := f.inner.ReadStrip(idx, p); err != nil {
				return err
			}
			if len(p) > 0 {
				p[0] ^= 0x01
			}
			return nil
		default: // transient (torn degrades to transient on reads)
			return fmt.Errorf("%w: read strip %d", ErrTransient, idx)
		}
	}
	return f.inner.ReadStrip(idx, p)
}

// WriteStrip implements Device.
func (f *FaultDevice) WriteStrip(idx int64, p []byte) error {
	d := f.admit(idx, true)
	if d.sleep > 0 {
		time.Sleep(d.sleep)
	}
	if d.err != nil {
		return d.err
	}
	if d.fault {
		switch d.kind {
		case FaultTorn:
			// Persist the new prefix over the old suffix, then fail: the
			// strip on media is torn, exactly what a power cut mid-write
			// leaves behind.
			old := make([]byte, f.inner.StripBytes())
			if err := f.inner.ReadStrip(idx, old); err == nil {
				copy(old[:len(old)/2], p[:len(p)/2])
				if err := f.inner.WriteStrip(idx, old); err != nil {
					return err
				}
			}
			return fmt.Errorf("%w: torn write of strip %d", ErrTransient, idx)
		case FaultCorrupt:
			bad := append([]byte(nil), p...)
			if len(bad) > 0 {
				bad[0] ^= 0x01
			}
			return f.inner.WriteStrip(idx, bad)
		default:
			return fmt.Errorf("%w: write strip %d", ErrTransient, idx)
		}
	}
	return f.inner.WriteStrip(idx, p)
}

// Close implements Device.
func (f *FaultDevice) Close() error { return f.inner.Close() }
