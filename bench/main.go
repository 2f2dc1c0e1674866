// Command bench is the repository's benchmark: four workloads, one phase
// script, ten end-to-end metrics from an untraced run and a per-layer
// ladder from a traced one. See README.md in this directory.
//
//	bench -workload strip-4k -seed 1 -seconds 20 -trace 0
//	bench -list | -smoke | -repeat 3 -workload strip-4k
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"github.com/oiraid/oiraid/internal/store"
)

// defaultSeconds is BENCHMARK.json's run_seconds: the time P1..P6 measure
// for. Each phase gets a sixth of it, each round a tenth of that.
const defaultSeconds = 20

// maxProcs pins the scheduler to one P outside the mixed phase (which
// runs its rounds with mixedProcs). With a single P a goroutine hand-off
// (client to server goroutine, engine to worker) never has to wake an idle
// vCPU, and on the shared reference box that wake-up is what a busy host
// makes several times slower: the same six runs of object-1m spread 9-38 %
// with two Ps and 3-10 % with one, cluster-4k 11-38 % against 5-13 %.
const maxProcs = 1

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	out      string
	smoke    bool
	// wrapDev replaces the device interposer (the corruption test).
	wrapDev func(disk int, dev store.Device) store.Device
}

func main() {
	var cfg config
	var list bool
	var repeat int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run (see -list)")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the op schedule and of all content")
	flag.Float64Var(&cfg.seconds, "seconds", defaultSeconds, "time the six timed phases measure for, in total")
	flag.IntVar(&cfg.trace, "trace", 0, "1: traced run, prints the per-layer metrics; 0: untraced, prints the end-to-end metrics")
	flag.StringVar(&cfg.out, "out", os.TempDir(), "directory the traced run writes trace-<workload>.json to")
	flag.BoolVar(&list, "list", false, "print every workload and metric, then exit")
	flag.BoolVar(&cfg.smoke, "smoke", false, "run every workload (or -workload) briefly, check correctness only")
	flag.IntVar(&repeat, "repeat", 0, "run the workload N times in fresh processes and print each metric's spread")
	flag.Parse()
	runtime.GOMAXPROCS(maxProcs)
	if list {
		printList(os.Stdout)
		return
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(2)
	}
	switch {
	case cfg.smoke:
		os.Exit(runSmoke(cfg, os.Stdout))
	case repeat > 0:
		os.Exit(runRepeat(cfg, repeat))
	default:
		os.Exit(runOne(cfg))
	}
}

// runOne runs one workload once and prints the report and the result line.
func runOne(cfg config) int {
	w := findWorkload(cfg.workload)
	if w == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q (see -list)\n", cfg.workload)
		return 2
	}
	if cfg.seconds <= 0 || (cfg.trace != 0 && cfg.trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	rep, err := run(w, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.Name, err)
		return 1
	}
	rep.print(os.Stdout)
	// The result line carries the metrics of the run's mode and no others:
	// the end-to-end ones untraced, the per-layer ones traced.
	tbl := endToEnd
	if cfg.trace == 1 {
		tbl = perLayer
	}
	res := result{Correct: rep.Failed == 0, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: map[string]metricValue{}}
	for _, m := range tbl {
		res.Metrics[m.Name] = rep.Metrics[m.Name]
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return rep.status()
}

// run is the traced or the untraced run, as cfg.trace says. The phase
// script's numbers that are not end-to-end metrics (see spec.go) are
// per-layer metrics, so the traced run spends the first half of its time
// on the script, on a stack without interposers, and the second half on
// the ladder.
func run(w *workload, cfg config) (*report, error) {
	if cfg.trace == 0 {
		return runUntraced(w, cfg, setupReps)
	}
	cfg.seconds /= 2
	rep, err := runUntraced(w, cfg, 1)
	if err != nil {
		return nil, err
	}
	ladder, err := runTraced(w, cfg)
	if err != nil {
		return nil, err
	}
	rep.merge(ladder)
	return rep, nil
}

// status is the exit status a report earns: non-zero as soon as one op
// was refused, errored or mis-verified.
func (r *report) status() int {
	if r.Failed != 0 {
		return 1
	}
	return 0
}

// runUntraced is the end-to-end run: reps set-ups, then the phase script
// on the stack's top level with no interposer installed.
func runUntraced(w *workload, cfg config, reps int) (*report, error) {
	rep := newReport(w, cfg)
	rounds := w.rounds
	if cfg.smoke {
		reps = 1
	}
	t0 := time.Now()
	ref := newYardstick(w.yard)
	s, setups, rawSetups, err := setup(w, stackOptions{seed: uint64(cfg.seed), wrapDev: cfg.wrapDev}, reps, ref)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	rep.SetupS = setups
	f := s.main()
	rep.ScheduleHash = fmt.Sprintf("%016x", scheduleHash(uint64(cfg.seed), f.units))
	r := &runner{
		w: w, f: f, t: f.top(), seed: uint64(cfg.seed), rounds: rounds, ref: ref,
		round: time.Duration(cfg.seconds / timedPhases / float64(rounds+1) * float64(time.Second)),
	}
	r.phases = append(r.phases, &phaseStat{Name: phaseNames[phSetup], WallS: time.Since(t0).Seconds(),
		Attempted: f.units * int64(reps)})
	r.script()
	for _, err := range []error{s.close(), ref.close()} {
		if err != nil {
			r.fail("close: %v", err)
			r.phases[0].Failed++
		}
	}
	rep.addPhases(r.phases, r.errs)

	ph := func(i int) *phaseStat {
		if p := r.timed[i]; p != nil {
			return p
		}
		return &phaseStat{} // the script stopped before the phase ran
	}
	rep.setTimed("setup_s", median(setups), median(rawSetups))
	rep.setTimed("write_mbps", ph(phWrite).MedianMB, ph(phWrite).RawMedianMB)
	rep.setTimed("read_mbps", ph(phRead).MedianMB, ph(phRead).RawMedianMB)
	rep.setTimed("mixed_mbps", ph(phMixed).MedianMB, ph(phMixed).RawMedianMB)
	rep.setTimed("degraded_read_mbps", ph(phDegraded).MedianMB, ph(phDegraded).RawMedianMB)
	rep.setTimed("rebuild_mbps", ph(phRebuild).MedianMB, ph(phRebuild).RawMedianMB)
	rep.setTimed("deep_read_mbps", ph(phDeep).MedianMB, ph(phDeep).RawMedianMB)
	rep.setTimed("write_p50_ms", ph(phWrite).P50Ms, ph(phWrite).RawP50Ms)
	rep.setTimed("read_p50_ms", ph(phRead).P50Ms, ph(phRead).RawP50Ms)
	rep.LapPeakMiB, rep.PeakMiB = r.lapPeak, r.peak
	if len(r.lapPeak) > 0 {
		rep.set("mem_peak_mb", median(r.lapPeak))
	} else {
		rep.set("mem_peak_mb", rep.PeakMiB)
	}
	for name, mv := range rep.Metrics {
		if mv.Value == 0 {
			rep.Errors = append(rep.Errors, "metric "+name+" was not measured")
			rep.Failed++
		}
	}
	return rep, nil
}

// runSmoke runs every workload (or the one named) for a fraction of a
// second per phase and checks only that every op succeeds and verifies.
// It runs them traced, because the traced run is the phase script
// followed by the ladder: every line of both.
func runSmoke(cfg config, out io.Writer) int {
	cfg.smoke, cfg.trace = true, 1
	cfg.seconds = 2 * 0.36
	status := 0
	for i := range workloads {
		w := &workloads[i]
		if cfg.workload != "" && cfg.workload != w.Name {
			continue
		}
		t0 := time.Now()
		rep, err := run(w.smokeScale(), cfg)
		switch {
		case err != nil:
			fmt.Fprintf(out, "smoke %-14s ERROR %v\n", w.Name, err)
			status = 1
		case rep.Failed != 0:
			fmt.Fprintf(out, "smoke %-14s FAILED %d of %d ops: %v\n", w.Name, rep.Failed, rep.Attempted, rep.Errors)
			status = 1
		default:
			fmt.Fprintf(out, "smoke %-14s ok %d ops in %.1fs\n", w.Name, rep.Attempted, time.Since(t0).Seconds())
		}
	}
	return status
}
