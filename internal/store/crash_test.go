package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// crashRig is a full durable array on crash-faulted media: every device
// write, journal flush, and superblock commit is one admitted operation
// on a shared CrashController, so a sweep can cut power at every one of
// them in turn. Replacement disks registered before ReplaceDisk model a
// physical swap: after the crash, the slot's survivor is the new medium
// whether or not the adoption commit made it to the superblocks.
type crashRig struct {
	t      *testing.T
	an     int // array size v
	cycles int64
	ctl    *CrashController
	devs   []*CrashDevice
	sbs    []*CrashBlob
	j0, j1 *CrashBlob
	repl   map[int]*CrashDevice
	phase  string
	// inflight is the write cut mid-commit, if any. Its redo record may
	// or may not have reached the journal, so after recovery the strip
	// legitimately holds either the old or the new content (atomically —
	// anything else is a bug the verifier catches).
	inflightOff  int64
	inflightData []byte
}

func newCrashRig(t *testing.T, seed int64) *crashRig {
	t.Helper()
	r := &crashRig{
		t:      t,
		an:     9,
		cycles: 2,
		ctl:    NewCrashController(seed),
		repl:   map[int]*CrashDevice{},
		phase:  "format",
	}
	an := oiAnalyzer(t, r.an)
	strips := r.cycles * int64(an.SlotsPerDisk())
	for i := 0; i < an.Disks(); i++ {
		dev, err := NewCrashDevice(r.ctl, strips, testStrip)
		if err != nil {
			t.Fatal(err)
		}
		r.devs = append(r.devs, dev)
		r.sbs = append(r.sbs, NewCrashBlob(r.ctl))
	}
	r.j0, r.j1 = NewCrashBlob(r.ctl), NewCrashBlob(r.ctl)
	return r
}

func (r *crashRig) format() *Mount {
	r.t.Helper()
	devs := make([]Device, len(r.devs))
	for i, d := range r.devs {
		devs[i] = d
	}
	sbs := make([]Blob, len(r.sbs))
	for i, b := range r.sbs {
		sbs[i] = b
	}
	m, err := FormatArray(oiAnalyzer(r.t, r.an), devs, sbs, r.j0, r.j1)
	if err != nil {
		r.t.Fatal(err)
	}
	return m
}

// workload drives a deterministic write/evict/adopt/rebuild sequence,
// recording every acknowledged strip write in oracle. It returns on the
// first error — the simulated power failure when the controller is armed.
func (r *crashRig) workload(m *Mount, oracle map[int64][]byte) error {
	rng := rand.New(rand.NewSource(424242))
	capStrips := m.Array.Capacity() / int64(testStrip)
	write := func() error {
		off := rng.Int63n(capStrips) * int64(testStrip)
		buf := make([]byte, testStrip)
		rng.Read(buf)
		if _, err := m.Array.WriteAt(buf, off); err != nil {
			r.inflightOff, r.inflightData = off, buf
			return err
		}
		oracle[off] = buf
		return nil
	}

	r.phase = "fill"
	for i := 0; i < 30; i++ {
		if err := write(); err != nil {
			return err
		}
	}
	r.phase = "evict"
	if err := m.Array.FailDisk(1); err != nil {
		return err
	}
	r.phase = "degraded"
	for i := 0; i < 10; i++ {
		if err := write(); err != nil {
			return err
		}
	}
	r.phase = "adopt"
	repl, err := NewCrashDevice(r.ctl, r.devs[1].Strips(), testStrip)
	if err != nil {
		return err
	}
	r.repl[1] = repl // physically in the slot from here on
	if err := m.Array.ReplaceDisk(1, repl); err != nil {
		return err
	}
	r.phase = "rebuild"
	if err := m.Array.Rebuild(); err != nil {
		return err
	}
	// A strip write costs the journal two appends, so the sweep's span
	// rests mostly on these writes: 45 of them keep it past 760 persisting
	// operations, which at 220 points cuts every 3rd one.
	r.phase = "final"
	for i := 0; i < 45; i++ {
		if err := write(); err != nil {
			return err
		}
	}
	r.phase = "seal"
	return m.Array.SealMeta()
}

// recover builds the survivors — the durable state of whatever medium is
// physically in each slot — remounts, swaps fresh disks into any slots
// the mount failed, rebuilds, and returns the recovered array.
func (r *crashRig) recover() (*Mount, error) {
	r.t.Helper()
	devs := make([]Device, len(r.devs))
	for i, d := range r.devs {
		src := d
		if rep, ok := r.repl[i]; ok {
			src = rep
		}
		m, err := src.Survivor()
		if err != nil {
			r.t.Fatal(err)
		}
		devs[i] = m
	}
	sbs := make([]Blob, len(r.sbs))
	for i, b := range r.sbs {
		sbs[i] = b.Survivor()
	}
	mnt, err := MountArray(oiAnalyzer(r.t, r.an), devs, sbs, r.j0.Survivor(), r.j1.Survivor())
	if err != nil {
		return nil, err
	}
	for _, d := range mnt.Failed {
		fresh, err := NewMemDevice(devs[d].Strips(), testStrip)
		if err != nil {
			r.t.Fatal(err)
		}
		if err := mnt.Array.ReplaceDisk(d, fresh); err != nil {
			return nil, fmt.Errorf("replace disk %d: %w", d, err)
		}
	}
	if len(mnt.Failed) > 0 {
		if err := mnt.Array.Rebuild(); err != nil {
			return nil, fmt.Errorf("rebuild: %w", err)
		}
	}
	return mnt, nil
}

// verify checks every acknowledged write bit-identical against the
// oracle, then runs a full fsck.
func (r *crashRig) verify(mnt *Mount, oracle map[int64][]byte) error {
	buf := make([]byte, testStrip)
	for off, want := range oracle {
		if _, err := mnt.Array.ReadAt(buf, off); err != nil {
			return fmt.Errorf("read acked strip at %d: %w", off, err)
		}
		if bytes.Equal(buf, want) {
			continue
		}
		// The write cut mid-commit was never acknowledged; recovery may
		// legitimately apply it in full (its redo record was durable).
		if off == r.inflightOff && bytes.Equal(buf, r.inflightData) {
			continue
		}
		return fmt.Errorf("acked write at %d lost or mangled", off)
	}
	rep, err := mnt.Array.Fsck(false)
	if err != nil {
		return fmt.Errorf("fsck: %w", err)
	}
	if !rep.Clean {
		return fmt.Errorf("fsck dirty after recovery: %+v", rep)
	}
	return nil
}

// TestCrashRecoveryNoCrash sanity-checks the rig itself: a workload that
// never loses power remounts clean with every write intact.
func TestCrashRecoveryNoCrash(t *testing.T) {
	r := newCrashRig(t, 1)
	m := r.format()
	oracle := map[int64][]byte{}
	if err := r.workload(m, oracle); err != nil {
		t.Fatalf("disarmed workload failed in %s: %v", r.phase, err)
	}
	mnt, err := r.recover()
	if err != nil {
		t.Fatal(err)
	}
	if !mnt.WasClean {
		t.Error("sealed array remounted as not clean")
	}
	if err := r.verify(mnt, oracle); err != nil {
		t.Fatal(err)
	}
}

// TestCrashSweep is the power-fail chaos suite: it cuts power at every
// k-th persisting operation of the workload — device strip writes,
// journal appends and flushes, superblock commits, from the first fill
// write through eviction, adoption, rebuild, and seal — then remounts
// from the survivors and proves no acknowledged write was lost and the
// array is fsck-clean.
func TestCrashSweep(t *testing.T) {
	// Disarmed dry run sizes the sweep.
	dry := newCrashRig(t, 0)
	mDry := dry.format()
	afterFormat := dry.ctl.Writes()
	if err := dry.workload(mDry, map[int64][]byte{}); err != nil {
		t.Fatalf("dry run failed in %s: %v", dry.phase, err)
	}
	span := dry.ctl.Writes() - afterFormat
	// A fixed stride names each subtest by a cut index that does not move
	// when the workload's count of persisting operations does; the span
	// must then be long enough for 200 points.
	stride := int64(3)
	if testing.Short() {
		stride = 20
	}
	if span < 200*3 {
		t.Fatalf("workload span %d persisting operations, want >= %d for 200 cut points at stride 3", span, 200*3)
	}

	ran := 0
	phases := map[string]int{}
	for cut := int64(0); cut < span; cut += stride {
		cut := cut
		name := fmt.Sprintf("cut=%d", cut)
		t.Run(name, func(t *testing.T) {
			r := newCrashRig(t, cut) // seed the tear geometry per point
			m := r.format()
			oracle := map[int64][]byte{}
			r.ctl.Arm(cut)
			err := r.workload(m, oracle)
			if err == nil {
				t.Fatalf("cut %d inside span %d did not crash", cut, span)
			}
			if !r.ctl.Crashed() {
				t.Fatalf("workload error without crash in %s: %v", r.phase, err)
			}
			phases[r.phase]++
			mnt, err := r.recover()
			if err != nil {
				t.Fatalf("crash in %s: recovery failed: %v", r.phase, err)
			}
			if err := r.verify(mnt, oracle); err != nil {
				t.Fatalf("crash in %s: %v", r.phase, err)
			}
		})
		ran++
	}
	t.Logf("swept %d crash points over %d operations; crash phases: %v", ran, span, phases)
	if !testing.Short() {
		if ran < 200 {
			t.Errorf("only %d crash points, want >= 200", ran)
		}
	}
	if len(phases) < 4 {
		t.Errorf("crash points hit %d phases (%v), want >= 4", len(phases), phases)
	}
}

// survivorImage concatenates what a power cut leaves behind: the durable
// content of every disk slot, then of both journal regions.
func (r *crashRig) survivorImage() []byte {
	r.t.Helper()
	var img []byte
	for _, d := range r.devs {
		m, err := d.Survivor()
		if err != nil {
			r.t.Fatal(err)
		}
		img = append(img, deviceImage(r.t, m)...)
	}
	img = append(img, r.j0.Survivor().Bytes()...)
	return append(img, r.j1.Survivor().Bytes()...)
}

// TestCrashCutReproducible: a cut number names one crash. Every persisting
// operation of a small write — redo record, the closure's device writes in
// write-plan order, checksum records — happens at a fixed position, so two
// rigs armed with the same seed and cut leave byte-identical media and
// journals, and a failing TestCrashSweep point can be replayed.
func TestCrashCutReproducible(t *testing.T) {
	crash := func(cut int64) []byte {
		r := newCrashRig(t, cut)
		m := r.format()
		r.ctl.Arm(cut)
		if err := r.workload(m, map[int64][]byte{}); err == nil || !r.ctl.Crashed() || r.phase != "fill" {
			t.Fatalf("cut %d: workload ended in %s with %v, want a crash during fill", cut, r.phase, err)
		}
		return r.survivorImage()
	}
	// 24 consecutive cuts span several whole small writes, so every
	// position inside a closure commit is cut at least once.
	for cut := int64(5); cut < 29; cut++ {
		if a, b := crash(cut), crash(cut); !bytes.Equal(a, b) {
			t.Errorf("cut %d: two runs left different survivor media", cut)
		}
	}
}
