package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"

	"github.com/oiraid/oiraid/internal/store"
)

type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestListMatchesBenchmarkJSON keeps spec.go, -list and the contract file
// at the repository root saying the same thing.
func TestListMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	if bj.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, -seconds defaults to %d", bj.RunSeconds, defaultSeconds)
	}
	if len(workloads) > 8 || len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d workloads / %d end-to-end / %d per-layer exceed 8 / 16 / 128", len(workloads), len(endToEnd), len(perLayer))
	}
	if len(bj.Workloads) != len(workloads) || len(bj.EndToEnd) != len(endToEnd) || len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d/%d/%d entries, spec.go %d/%d/%d", len(bj.Workloads), len(bj.EndToEnd),
			len(bj.PerLayer), len(workloads), len(endToEnd), len(perLayer))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is not [A-Za-z0-9_.-]+", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	var list bytes.Buffer
	printList(&list)
	listed := func(kind, n string) {
		if c := strings.Count(list.String(), kind+" "+n+" "); c != 1 {
			t.Errorf("-list prints %s %s %d times", kind, n, c)
		}
	}
	for i, w := range workloads {
		checkName(w.Name)
		listed("workload  ", w.Name)
		if bj.Workloads[i].Name != w.Name || bj.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json %+v, spec.go %q %q", i, bj.Workloads[i], w.Name, w.Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	hasSetup := false
	for i, m := range endToEnd {
		checkName(m.Name)
		listed("end_to_end", m.Name)
		j := bj.EndToEnd[i]
		if j.Name != m.Name || j.Unit != m.Unit || j.Better != m.Better || j.Bound != m.Bound {
			t.Errorf("end_to_end %d: BENCHMARK.json %+v, spec.go %+v", i, j, m)
		}
		// The issue's bounds: 0.10, memory 0.05. A metric that cannot
		// keep its bound leaves this list; its bound is not widened.
		// setup_s has to stay whatever its spread, with the largest
		// bound the contract allows.
		ceiling := 0.10
		switch m.Name {
		case "setup_s":
			ceiling = 0.25
		case "mem_peak_mb":
			ceiling = 0.05
		}
		if !unit.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > ceiling {
			t.Errorf("end_to_end %s: unit %q bound %v (at most %v)", m.Name, m.Unit, m.Bound, ceiling)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == lower)
	}
	if !hasSetup {
		t.Error("no setup_s (s, lower) among the end-to-end metrics")
	}
	for i, m := range perLayer {
		checkName(m.Name)
		listed("per_layer ", m.Name)
		j := bj.PerLayer[i]
		if j.Name != m.Name || j.Unit != m.Unit || j.Better != m.Better {
			t.Errorf("per_layer %d: BENCHMARK.json %+v, spec.go %+v", i, j, m)
		}
		if !unit.MatchString(m.Unit) || m.Bound != 0 {
			t.Errorf("per_layer %s: unit %q bound %v", m.Name, m.Unit, m.Bound)
		}
	}
}

func TestScheduleHashFollowsSeed(t *testing.T) {
	if a, b := scheduleHash(7, 9216), scheduleHash(7, 9216); a != b {
		t.Errorf("same seed, different schedules: %x %x", a, b)
	}
	if a, b := scheduleHash(7, 9216), scheduleHash(8, 9216); a == b {
		t.Errorf("seeds 7 and 8 give the same schedule %x", a)
	}
	o1, o2 := newOracle(7, 4, 4096), newOracle(8, 4, 4096)
	if bytes.Equal(o1.nextWrite(0), o2.nextWrite(0)) {
		t.Error("seeds 7 and 8 write the same content")
	}
	if !o1.check(0, o1.payload(0, 1)) || o1.check(0, o1.payload(0, 2)) || o1.check(0, o1.payload(1, 1)) {
		t.Error("oracle does not tell a unit's current content from a stale or misdirected one")
	}
}

// flipDevice returns every read of one strip with its first byte
// inverted: silent corruption below the array.
type flipDevice struct {
	store.Device
	strip int64
}

func (d *flipDevice) ReadStrip(idx int64, p []byte) error {
	err := d.Device.ReadStrip(idx, p)
	if idx == d.strip {
		p[0] ^= 0xff
	}
	return err
}

// TestCorruptionFailsTheRun: one flipped byte on one device strip must
// surface as failed ops and a non-zero exit status.
func TestCorruptionFailsTheRun(t *testing.T) {
	cfg := config{workload: "strip-4k", seed: 3, seconds: 0.36, smoke: true, out: t.TempDir()}
	cfg.wrapDev = func(disk int, dev store.Device) store.Device {
		if disk != 4 {
			return dev
		}
		return &flipDevice{Device: dev, strip: 5}
	}
	rep, err := runUntraced(findWorkload(cfg.workload).smokeScale(), cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed == 0 || rep.status() == 0 {
		t.Errorf("corrupted run reports %d failed ops, exit status %d", rep.Failed, rep.status())
	}
	cfg.wrapDev = nil
	rep, err = runUntraced(findWorkload(cfg.workload).smokeScale(), cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 0 || rep.status() != 0 {
		t.Errorf("clean run reports %d failed ops, exit status %d: %v", rep.Failed, rep.status(), rep.Errors)
	}
}

// TestDeepSetsArePinned recomputes each workload's deep failure set: the
// first 3-subset of disks, in lexicographic order, under which some data
// strip of a failed disk has no single-stripe decode path.
func TestDeepSetsArePinned(t *testing.T) {
	done := map[int]bool{}
	for _, w := range workloads {
		if done[w.disks] {
			continue
		}
		done[w.disks] = true
		an, err := newAnalyzer(w.disks)
		if err != nil {
			t.Fatal(err)
		}
		arr, err := store.NewMemArray(an, 1, 512)
		if err != nil {
			t.Fatal(err)
		}
		strips := arr.Capacity() / 512
		deep := func(failed [3]int) bool {
			alive := func(d int) bool { return d != failed[0] && d != failed[1] && d != failed[2] }
			for u := int64(0); u < strips; u++ {
				st, _ := arr.LocateDataStrip(u)
				if alive(st.Disk) {
					continue
				}
				if _, ok := an.DecodePath(st, alive); !ok {
					return true
				}
			}
			return false
		}
		var first []int
	search:
		for a := 0; a < w.disks; a++ {
			for b := a + 1; b < w.disks; b++ {
				for c := b + 1; c < w.disks; c++ {
					if deep([3]int{a, b, c}) {
						first = []int{a, b, c}
						break search
					}
				}
			}
		}
		if len(first) != 3 || first[0] != w.deep[0] || first[1] != w.deep[1] || first[2] != w.deep[2] {
			t.Errorf("v=%d: first deep set is %v, %s pins %v", w.disks, first, w.Name, w.deep)
		}
	}
}

// TestSmoke drives all four stacks through the whole script, untraced and
// traced, at a fiftieth of the scale; the full benchmark never runs under
// go test.
func TestSmoke(t *testing.T) {
	if status := runSmoke(config{out: t.TempDir()}, testWriter{t}); status != 0 {
		t.Errorf("smoke run exited %d", status)
	}
}

type testWriter struct{ t *testing.T }

func (w testWriter) Write(p []byte) (int, error) {
	w.t.Log(strings.TrimRight(string(p), "\n"))
	return len(p), nil
}
