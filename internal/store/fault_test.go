package store

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"
)

func newFaultMem(t *testing.T, cfg FaultConfig) *FaultDevice {
	t.Helper()
	mem, err := NewMemDevice(8, 64)
	if err != nil {
		t.Fatal(err)
	}
	return NewFaultDevice(mem, cfg)
}

// TestFaultTransientAndPermanent: rate-driven transient errors surface as
// ErrTransient; after FailAfterOps every operation is ErrPermanent.
func TestFaultTransientAndPermanent(t *testing.T) {
	f := newFaultMem(t, FaultConfig{Seed: 1, TransientRate: 0.5, FailAfterOps: 100})
	p := make([]byte, 64)
	var transient int
	for i := 0; i < 100; i++ {
		err := f.ReadStrip(int64(i%8), p)
		switch {
		case err == nil:
		case IsTransient(err):
			transient++
		default:
			t.Fatalf("op %d: unexpected error %v", i, err)
		}
	}
	if transient == 0 || transient == 100 {
		t.Fatalf("transient rate 0.5 produced %d/100 faults", transient)
	}
	// Ops 101+ are permanently failed.
	if err := f.ReadStrip(0, p); !errors.Is(err, ErrPermanent) {
		t.Fatalf("want ErrPermanent after FailAfterOps, got %v", err)
	}
	if err := f.WriteStrip(0, p); !errors.Is(err, ErrPermanent) {
		t.Fatalf("want ErrPermanent write, got %v", err)
	}
	if st := f.Stats(); !st.Permanent || st.Transient != int64(transient) {
		t.Fatalf("stats %+v want permanent with %d transients", st, transient)
	}
}

// TestFaultDeterminism: the same seed replays the same fault schedule.
func TestFaultDeterminism(t *testing.T) {
	run := func() []bool {
		f := newFaultMem(t, FaultConfig{Seed: 42, TransientRate: 0.3})
		p := make([]byte, 64)
		out := make([]bool, 50)
		for i := range out {
			out[i] = f.ReadStrip(int64(i%8), p) != nil
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("schedules diverge at op %d", i)
		}
	}
}

// TestFaultInjectTorn: a planted torn write persists only a prefix and
// reports ErrTransient; re-issuing the write completes it.
func TestFaultInjectTorn(t *testing.T) {
	f := newFaultMem(t, FaultConfig{})
	old := bytes.Repeat([]byte{0xAA}, 64)
	if err := f.WriteStrip(3, old); err != nil {
		t.Fatal(err)
	}
	f.Inject(3, FaultTorn)
	fresh := bytes.Repeat([]byte{0x55}, 64)
	if err := f.WriteStrip(3, fresh); !IsTransient(err) {
		t.Fatalf("want transient torn-write error, got %v", err)
	}
	got := make([]byte, 64)
	if err := f.ReadStrip(3, got); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, old) || bytes.Equal(got, fresh) {
		t.Fatalf("strip should be torn, got uniform %#x", got[0])
	}
	if !bytes.Equal(got[:32], fresh[:32]) || !bytes.Equal(got[32:], old[32:]) {
		t.Fatal("torn strip is not new-prefix/old-suffix")
	}
	// The retried write heals the tear.
	if err := f.WriteStrip(3, fresh); err != nil {
		t.Fatal(err)
	}
	if err := f.ReadStrip(3, got); err != nil || !bytes.Equal(got, fresh) {
		t.Fatalf("retried write not applied: %v", err)
	}
}

// TestFaultCorruptDetectedByChecksum: a silent bit-flip on write surfaces
// as ErrCorrupt through the checksum step of an array with a journal.
func TestFaultCorruptDetectedByChecksum(t *testing.T) {
	arr := journaled(t, newOIArray(t, 9))
	f := NewFaultDevice(arr.devs[2], FaultConfig{})
	arr.devs[2] = f
	p := bytes.Repeat([]byte{7}, testStrip)
	writeMember(t, arr, 2, 2, p)
	f.Inject(2, FaultCorrupt)
	writeMember(t, arr, 2, 2, p) // silent: the write itself reports success
	got := make([]byte, testStrip)
	if err := arr.ProbeDiskStrip(2, 2, got); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("want ErrCorrupt, got %v", err)
	}
}

// TestFaultSlowBurstSchedule: the burst schedule is keyed to the op
// counter — exactly the first SlowBurstLen ops of every SlowBurstPeriod
// window are slow, replaying identically run after run.
func TestFaultSlowBurstSchedule(t *testing.T) {
	f := newFaultMem(t, FaultConfig{
		SlowBurstPeriod: 10,
		SlowBurstLen:    3,
		SlowBy:          time.Microsecond,
	})
	p := make([]byte, 64)
	for i := 0; i < 100; i++ {
		if err := f.ReadStrip(int64(i%8), p); err != nil {
			t.Fatal(err)
		}
	}
	if st := f.Stats(); st.Slow != 30 {
		t.Fatalf("100 ops with 3-in-10 bursts injected %d slow ops, want 30", st.Slow)
	}
	// Disabling the burst stops the injection.
	f.SetSlowBurst(0, 0, 0)
	for i := 0; i < 20; i++ {
		if err := f.ReadStrip(int64(i%8), p); err != nil {
			t.Fatal(err)
		}
	}
	if st := f.Stats(); st.Slow != 30 {
		t.Fatalf("disabled burst still injected: %d slow ops", st.Slow)
	}
}

// TestFaultSlowBurstKeepsFaultSchedule: enabling bursts must not shift
// the rng-driven fault stream — the same seed draws the same transient
// schedule with and without bursts.
func TestFaultSlowBurstKeepsFaultSchedule(t *testing.T) {
	run := func(burst bool) []bool {
		f := newFaultMem(t, FaultConfig{Seed: 42, TransientRate: 0.3})
		if burst {
			f.SetSlowBurst(5, 2, time.Microsecond)
		}
		p := make([]byte, 64)
		out := make([]bool, 80)
		for i := range out {
			out[i] = f.ReadStrip(int64(i%8), p) != nil
		}
		return out
	}
	plain, bursty := run(false), run(true)
	for i := range plain {
		if plain[i] != bursty[i] {
			t.Fatalf("burst shifted the fault schedule at op %d", i)
		}
	}
}

// TestFaultSetSlowConcurrent: SetSlow/SetSlowBurst racing live I/O is
// safe (exercised under -race).
func TestFaultSetSlowConcurrent(t *testing.T) {
	f := newFaultMem(t, FaultConfig{Seed: 7})
	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p := make([]byte, 64)
			for i := 0; i < 300; i++ {
				idx := int64((w + i) % 8)
				if i%2 == 0 {
					_ = f.ReadStrip(idx, p)
				} else {
					_ = f.WriteStrip(idx, p)
				}
			}
		}(w)
	}
	go func() { wg.Wait(); close(done) }()
	for i := 0; ; i++ {
		select {
		case <-done:
			if st := f.Stats(); st.Ops != 4*300 {
				t.Fatalf("workload ran %d ops, want %d", st.Ops, 4*300)
			}
			return
		default:
		}
		f.SetSlow(0.5, time.Microsecond)
		f.SetSlowBurst(4, 1, time.Microsecond)
		f.SetSlow(0, 0)
		f.SetSlowBurst(0, 0, 0)
		_ = f.Stats()
	}
}
