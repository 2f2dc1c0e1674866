package store

import (
	"fmt"
	"testing"

	"github.com/oiraid/oiraid/internal/layout"
)

// checkWriteCosts rewrites every data strip of arr with zeros and requires
// the exact device cost of each small write: one read and one write per
// closure strip, except that a closure strip on the failed disk (-1: none)
// is not written and costs decodeReads survivor reads to snapshot.
func checkWriteCosts(t *testing.T, arr *Array, failed int, closure, decodeReads int64) {
	t.Helper()
	buf := make([]byte, testStrip)
	hit := 0
	for i := int64(0); i < arr.Capacity()/testStrip; i++ {
		target, _ := arr.LocateDataStrip(i)
		lost := int64(0)
		for _, st := range arr.Analyzer().UpdateStrips(target) {
			if st.Disk == failed {
				lost++
			}
		}
		if lost > 0 {
			hit++
		}
		arr.ResetStats()
		if _, err := arr.WriteAt(buf, i*testStrip); err != nil {
			t.Fatal(err)
		}
		wantR, wantW := closure-lost+lost*decodeReads, closure-lost
		if st := arr.Stats(); st.ReadOps != wantR || st.WriteOps != wantW {
			t.Fatalf("write of strip %d (%d closure strips on failed disk %d): %d reads / %d writes, want %d/%d",
				i, lost, failed, st.ReadOps, st.WriteOps, wantR, wantW)
		}
	}
	if failed >= 0 && hit == 0 {
		t.Fatalf("no closure touches failed disk %d", failed)
	}
}

// TestDeviceOpCounts pins, on one in-memory cycle of each bench geometry,
// the exact device-operation counts the benchmark's store.dev_*_per_*
// metrics report: small write (healthy, and with one closure member on a
// failed disk), one-hop degraded read, deep read under the bench's pinned
// three-disk set, and single-failure rebuild — plus the small write of the
// RAID6 three-strip Reed–Solomon closure.
func TestDeviceOpCounts(t *testing.T) {
	for _, tc := range []struct {
		v, k      int
		deep      []int
		deepReads int64 // device reads to read every data strip of deep once
	}{
		// The structural minimum. Most data strips of the set still decode
		// in one hop, k-1 reads; one with no one-hop path runs the two tasks
		// Plan.For names — an outer-stripe repair (k-1 reads) feeding an
		// inner-stripe repair (k-2 more, the rebuilt strip is not read) —
		// not the plan of the whole set: 42·2 + 6·3 and 276·4 + 12·7.
		{v: 9, k: 3, deep: []int{0, 1, 3}, deepReads: 102},
		{v: 25, k: 5, deep: []int{0, 1, 5}, deepReads: 1188},
	} {
		t.Run(fmt.Sprintf("v=%d", tc.v), func(t *testing.T) {
			an := oiAnalyzer(t, tc.v)
			arr, err := NewMemArray(an, 1, testStrip)
			if err != nil {
				t.Fatal(err)
			}
			fillArray(t, arr, int64(tc.v))
			buf := make([]byte, testStrip)
			strips := arr.Capacity() / testStrip

			checkWriteCosts(t, arr, -1, 4, 0)
			want := hashArray(t, arr)

			// readOn reads every data strip stored on one of disks, once, and
			// reports how many it read and the most device reads one cost.
			readOn := func(disks []int) (n, worst int64) {
				for i := int64(0); i < strips; i++ {
					for _, d := range disks {
						if arr.DataStripDisk(i) == d {
							before := arr.Stats().ReadOps
							if _, err := arr.ReadAt(buf, i*testStrip); err != nil {
								t.Fatal(err)
							}
							n, worst = n+1, max(worst, arr.Stats().ReadOps-before)
						}
					}
				}
				return n, worst
			}

			// One hop: every strip of a lone failed disk decodes through its
			// inner stripe, k-1 survivors each.
			if err := arr.FailDisk(0); err != nil {
				t.Fatal(err)
			}
			arr.ResetStats()
			n, _ := readOn([]int{0})
			if st := arr.Stats(); st.ReadOps != n*int64(tc.k-1) {
				t.Fatalf("%d one-hop degraded reads cost %d device reads, want %d each", n, st.ReadOps, tc.k-1)
			}
			// A small write whose closure has a strip on the failed disk
			// snapshots it through its inner stripe and skips its write.
			checkWriteCosts(t, arr, 0, 4, int64(tc.k-1))

			// Rebuild reads k-1 sources per rebuilt strip (parity included).
			dev, err := NewMemDevice(int64(an.SlotsPerDisk()), testStrip)
			if err != nil {
				t.Fatal(err)
			}
			if err := arr.ReplaceDisk(0, dev); err != nil {
				t.Fatal(err)
			}
			arr.ResetStats()
			if err := arr.Rebuild(); err != nil {
				t.Fatal(err)
			}
			rebuilt := int64(an.SlotsPerDisk())
			if st := arr.Stats(); st.WriteOps != rebuilt || st.ReadOps != rebuilt*int64(tc.k-1) {
				t.Fatalf("rebuild: %d reads / %d writes for %d strips, want %d reads per strip",
					st.ReadOps, st.WriteOps, rebuilt, tc.k-1)
			}

			// Deep: two disks of one group plus one outside force multi-phase
			// reconstruction for part of the set.
			for _, d := range tc.deep {
				if err := arr.FailDisk(d); err != nil {
					t.Fatal(err)
				}
			}
			arr.ResetStats()
			n, worst := readOn(tc.deep)
			if st := arr.Stats(); st.ReadOps != tc.deepReads || worst != int64(2*tc.k-3) {
				t.Fatalf("%d deep reads under %v cost %d device reads, %d the dearest, want %d and %d",
					n, tc.deep, st.ReadOps, worst, tc.deepReads, 2*tc.k-3)
			}
			if got := hashArray(t, arr); got != want {
				t.Fatal("content changed")
			}
		})
	}

	// RAID6: data, P and Q. A lost member is decoded from all five others.
	t.Run("raid6", func(t *testing.T) {
		r6, err := layout.NewRAID6(6)
		arr, err := NewMemArray(analyzerFor(t, r6, err), 1, testStrip)
		if err != nil {
			t.Fatal(err)
		}
		fillArray(t, arr, 6)
		checkWriteCosts(t, arr, -1, 3, 0)
		if err := arr.FailDisk(0); err != nil {
			t.Fatal(err)
		}
		checkWriteCosts(t, arr, 0, 3, 5)
	})
}
