package store

import (
	"errors"
	"testing"
)

// scrubNext scrubs the cycle at the scrub cursor.
func scrubNext(arr *Array) (done bool, bad int, err error) {
	cycle, _ := arr.ScrubProgress()
	return arr.ScrubCycle(cycle)
}

// scrubRest scrubs from the cursor to the end of the pass.
func scrubRest(arr *Array) (done bool, bad int, err error) {
	for {
		done, n, err := scrubNext(arr)
		bad += n
		if err != nil || done {
			return done, bad, err
		}
	}
}

// TestScrubStepIncremental: slicing a scrub pass cycle-by-cycle finds the
// same inconsistencies as the one-shot Scrub, the cursor advances and
// wraps, and the pass total matches.
func TestScrubStepIncremental(t *testing.T) {
	an := oiAnalyzer(t, 9)
	arr, err := NewMemArray(an, 4, testStrip)
	if err != nil {
		t.Fatal(err)
	}
	fillArray(t, arr, 77)

	// Plant silent corruption: clobber one data strip of each of two
	// cycles directly on the device, bypassing parity maintenance.
	slots := int64(an.SlotsPerDisk())
	garbage := make([]byte, testStrip)
	for i := range garbage {
		garbage[i] = 0xA5
	}
	for _, cycle := range []int64{0, 2} {
		if err := arr.devs[0].WriteStrip(cycle*slots, garbage); err != nil {
			t.Fatal(err)
		}
	}
	wantBad, err := arr.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if wantBad == 0 {
		t.Fatal("planted corruption not detected by Scrub")
	}

	var gotBad int
	steps := 0
	for {
		done, bad, err := scrubNext(arr)
		if err != nil {
			t.Fatal(err)
		}
		gotBad += bad
		steps++
		scanned, total := arr.ScrubProgress()
		if done {
			if scanned != 0 {
				t.Fatalf("cursor after completed pass = %d, want 0", scanned)
			}
			break
		}
		if scanned != int64(steps) || total != 4 {
			t.Fatalf("progress after step %d = %d/%d", steps, scanned, total)
		}
	}
	if steps != 4 {
		t.Fatalf("pass took %d steps, want 4", steps)
	}
	if gotBad != wantBad {
		t.Fatalf("incremental pass found %d bad stripes, Scrub found %d", gotBad, wantBad)
	}

	// Scrubbing to the end of a fresh pass finds them all again.
	if done, bad, err := scrubRest(arr); err != nil || !done || bad != wantBad {
		t.Fatalf("whole-pass step = done %v, %d bad, %v", done, bad, err)
	}
}

// TestScrubStepValidation: a cycle other than the cursor and degraded
// arrays are refused, and a failed disk leaves the cursor untouched so the
// pass resumes after rebuild.
func TestScrubStepValidation(t *testing.T) {
	arr := newOIArray(t, 9)
	fillArray(t, arr, 5)
	if _, _, err := arr.ScrubCycle(1); err == nil {
		t.Fatal("a cycle past the cursor must be refused")
	}
	if done, _, err := scrubNext(arr); err != nil || done {
		t.Fatalf("first slice = done %v, %v", done, err)
	}
	if err := arr.FailDisk(3); err != nil {
		t.Fatal(err)
	}
	if _, _, err := scrubNext(arr); !errors.Is(err, ErrDiskFaulty) {
		t.Fatalf("degraded scrub slice: want ErrDiskFaulty, got %v", err)
	}
	if scanned, _ := arr.ScrubProgress(); scanned != 1 {
		t.Fatalf("cursor moved on refused slice: %d", scanned)
	}
	dev, err := NewMemDevice(arr.devs[3].Strips(), testStrip)
	if err != nil {
		t.Fatal(err)
	}
	if err := arr.ReplaceDisk(3, dev); err != nil {
		t.Fatal(err)
	}
	if err := arr.Rebuild(); err != nil {
		t.Fatal(err)
	}
	if done, bad, err := scrubRest(arr); err != nil || !done || bad != 0 {
		t.Fatalf("resumed pass = done %v, %d bad, %v", done, bad, err)
	}

	// A dark disk is not a sector error: nothing to heal, the slice aborts
	// and the cursor stays put.
	dark := NewFaultDevice(arr.devs[5], FaultConfig{})
	arr.devs[5] = dark
	dark.FailNow()
	if _, _, err := scrubNext(arr); !errors.Is(err, ErrPermanent) {
		t.Fatalf("scrub slice over a dark disk: want ErrPermanent, got %v", err)
	}
	if scanned, _ := arr.ScrubProgress(); scanned != 0 {
		t.Fatalf("cursor moved on aborted slice: %d", scanned)
	}
}

// TestScrubHealsLatentSectorError: the scrubber's job is finding latent
// sector errors, so a strip failing its checksum is healed in place and
// the pass carries on instead of wedging on it.
func TestScrubHealsLatentSectorError(t *testing.T) {
	arr, inner := newChecksummedArray(t, 9)
	want := fillArray(t, arr, 26)
	d, devStrip := arr.locate(0)
	flipByte(t, inner[d], devStrip)

	arr.ResetStats()
	for step := 1; ; step++ {
		done, bad, err := scrubNext(arr)
		if err != nil || bad != 0 {
			t.Fatalf("slice %d: %d bad, %v", step, bad, err)
		}
		if done {
			break
		}
		if scanned, _ := arr.ScrubProgress(); scanned != int64(step) {
			t.Fatalf("cursor after slice %d = %d", step, scanned)
		}
	}
	if scanned, _ := arr.ScrubProgress(); scanned != 0 {
		t.Fatalf("cursor after completed pass = %d, want 0", scanned)
	}
	if st := arr.Stats(); st.ReadRepairs != 1 || st.CorruptStrips != 1 {
		t.Fatalf("first pass: %+v, want one repair", st)
	}
	arr.ResetStats()
	if bad, err := arr.Scrub(); err != nil || bad != 0 {
		t.Fatalf("second pass: %d bad, %v", bad, err)
	}
	if st := arr.Stats(); st.CorruptStrips != 0 || st.ReadRepairs != 0 {
		t.Fatalf("second pass still saw corruption: %+v", st)
	}
	if got := hashArray(t, arr); got != want {
		t.Fatal("content changed by scrub heal")
	}
}
