package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// report is everything one run prints before its result line.
type report struct {
	Workload     string
	Seed         int64
	Seconds      float64
	Trace        int
	Rounds       int
	RoundMs      float64
	GoMaxProcs   int
	NumCPU       int
	CPUModel     string
	GoVersion    string
	Commit       string
	ScheduleHash string
	SetupS       []float64
	LapPeakMiB   []float64 // VmHWM of each measured lap
	PeakMiB      float64   // VmHWM of the process at exit
	Phases       []*phaseStat
	Cells        []*cell // ladder: one per (fixture level, op class)
	Ladder       *report // traced run: the ladder's part, after the script's
	Errors       []string
	Attempted    int64
	Failed       int64
	// Metrics holds every number the run measured, whichever table of
	// spec.go names it; the result line keeps those of the run's mode. Raw
	// holds, for the numbers referred to the yardstick, the value as the
	// clock measured it.
	Metrics map[string]metricValue
	Raw     map[string]float64
	start   time.Time
}

func newReport(w *workload, cfg config) *report {
	rounds := w.rounds
	return &report{
		Workload: w.Name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		Rounds:     rounds,
		RoundMs:    cfg.seconds / timedPhases / float64(rounds+1) * 1e3,
		GoMaxProcs: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		CPUModel: cpuModel(), GoVersion: runtime.Version(), Commit: commit(),
		Metrics: map[string]metricValue{}, Raw: map[string]float64{}, start: time.Now(),
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the VCS revision the binary was built from, when the build
// happened inside a git checkout; the driver's checkouts are not one.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func (r *report) set(name string, v float64) {
	for _, tbl := range [][]metric{endToEnd, perLayer} {
		for _, m := range tbl {
			if m.Name == name {
				r.Metrics[name] = metricValue{Value: v, Unit: m.Unit}
				return
			}
		}
	}
	panic("bench: metric " + name + " is not in spec.go")
}

// setTimed sets a number referred to the yardstick, with its as-measured
// counterpart.
func (r *report) setTimed(name string, referred, raw float64) {
	r.set(name, referred)
	r.Raw[name] = raw
}

// merge appends the ladder's report to the phase script's.
func (r *report) merge(ladder *report) {
	r.Ladder = ladder
	r.Errors = append(r.Errors, ladder.Errors...)
	r.Attempted += ladder.Attempted
	r.Failed += ladder.Failed
	for name, mv := range ladder.Metrics {
		r.Metrics[name] = mv
	}
	for name, v := range ladder.Raw {
		r.Raw[name] = v
	}
}

func (r *report) addPhases(phases []*phaseStat, errs []string) {
	r.Phases = append(r.Phases, phases...)
	r.Errors = append(r.Errors, errs...)
	for _, p := range phases {
		r.Attempted += p.Attempted
		r.Failed += p.Failed
	}
}

func (r *report) print(w io.Writer) {
	fmt.Fprintf(w, "workload %s  seed %d  trace %d  seconds %g\n", r.Workload, r.Seed, r.Trace, r.Seconds)
	fmt.Fprintf(w, "GOMAXPROCS %d (%d in P3)  nproc %d  cpu %q  %s  commit %s  schedule %s\n",
		r.GoMaxProcs, mixedProcs, r.NumCPU, r.CPUModel, r.GoVersion, r.Commit, r.ScheduleHash)
	r.printBody(w)
	if r.Ladder != nil {
		r.Ladder.printBody(w)
	}
	fmt.Fprintf(w, "run wall %.2fs\n", time.Since(r.start).Seconds())
	for _, e := range r.Errors {
		fmt.Fprintf(w, "ERROR %s\n", e)
	}
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "metric %-36s %14.4f %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
		if raw, ok := r.Raw[n]; ok {
			fmt.Fprintf(w, "raw    %-36s %14.4f %s\n", n, raw, r.Metrics[n].Unit)
		}
	}
}

// printBody prints the rounds, phases and cells of one part of a run.
func (r *report) printBody(w io.Writer) {
	fmt.Fprintf(w, "rounds 1 warm + %d x %.0f ms\n", r.Rounds, r.RoundMs)
	if len(r.SetupS) > 0 {
		fmt.Fprintf(w, "set-ups (s): %s\n", floats(r.SetupS, 3))
	}
	if r.PeakMiB > 0 {
		fmt.Fprintf(w, "VmHWM (MiB): process %.1f  laps [%s]\n", r.PeakMiB, floats(r.LapPeakMiB, 1))
	}
	for _, p := range r.Phases {
		fmt.Fprintf(w, "%-20s wall %6.2fs  ops %8d  failed %d", p.Name, p.WallS, p.Attempted, p.Failed)
		if len(p.Rounds) > 0 {
			fmt.Fprintf(w, "  median %.2f MB/s  rounds [%s]  measured [%s]  slowdown [%s]", p.MedianMB,
				floats(p.column(func(r roundStat) float64 { return r.MBps }), 2),
				floats(p.column(func(r roundStat) float64 { return r.RawMBps }), 2),
				floats(p.column(func(r roundStat) float64 { return r.Slowdown }), 3))
		}
		if p.Samples > 0 {
			fmt.Fprintf(w, "  p50 %.4f ms  p99 %.4f ms  (%d samples)", p.P50Ms, p.P99Ms, p.Samples)
		}
		fmt.Fprintln(w)
	}
	for _, c := range r.Cells {
		fmt.Fprintf(w, "%-8s %-14s median %10.2f us/op  rounds [%s]  counted %d ops: allocs %.2f dev r/w %.2f/%.2f rpcs %.2f\n",
			c.Layer, c.Class, c.MedianUs, floats(c.RoundUs, 1), c.CountOps, c.AllocsPerOp, c.DevReadsPerOp, c.DevWritesPerOp, c.RPCsPerOp)
	}
}

func floats(v []float64, prec int) string {
	s := make([]string, len(v))
	for i, x := range v {
		s[i] = strconv.FormatFloat(x, 'f', prec, 64)
	}
	return strings.Join(s, " ")
}

// printList prints the benchmark's vocabulary, one line per name.
func printList(w io.Writer) {
	for _, wl := range workloads {
		fmt.Fprintf(w, "workload   %-36s %s\n", wl.Name, wl.Why)
	}
	for _, m := range endToEnd {
		fmt.Fprintf(w, "end_to_end %-36s %-6s %-6s bound %.2f  %s\n", m.Name, m.Unit, m.Better, m.Bound, m.Why)
	}
	for _, m := range perLayer {
		fmt.Fprintf(w, "per_layer  %-36s %-6s %-6s             %s\n", m.Name, m.Unit, m.Better, m.Why)
	}
}

// runRepeat runs the workload n times, each in a fresh process with its
// own seed (so VmHWM and the heap start clean), and prints for every
// number the runs measured its min, median and max, the furthest any run
// lies from the median, and the interquartile spread — of the reported
// values and, for numbers referred to the yardstick, of the values as
// measured. An end-to-end metric whose interquartile spread exceeds its
// bound is flagged.
func runRepeat(cfg config, n int) int {
	w := findWorkload(cfg.workload)
	if w == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q (see -list)\n", cfg.workload)
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	values, raws := map[string][]float64{}, map[string][]float64{}
	status := 0
	for i := 0; i < n; i++ {
		cmd := exec.Command(self, "-workload", w.Name, "-seed", strconv.FormatInt(cfg.seed+int64(i), 10),
			"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-trace", strconv.Itoa(cfg.trace), "-out", cfg.out)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		// Keep the run's full report: the table below shows medians only.
		keep := filepath.Join(cfg.out, fmt.Sprintf("repeat-%s-trace%d-seed%d.txt", w.Name, cfg.trace, cfg.seed+int64(i)))
		if werr := os.WriteFile(keep, out, 0o644); werr != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", werr)
		}
		res, perr := lastResult(out)
		if err != nil || perr != nil || !res.Correct {
			fmt.Fprintf(os.Stderr, "bench: run %d of %s failed: %v %v\n", i, w.Name, err, perr)
			status = 1
			continue
		}
		// The result line has the metrics of the run's mode; the report's
		// "metric" and "raw" lines have everything the run measured.
		for _, line := range strings.Split(string(out), "\n") {
			var kind, name string
			var v float64
			if k, _ := fmt.Sscanf(line, "%s %s %f", &kind, &name, &v); k != 3 {
				continue
			}
			switch kind {
			case "metric":
				values[name] = append(values[name], v)
			case "raw":
				raws[name] = append(raws[name], v)
			}
		}
	}
	fmt.Printf("| %s (%d runs, seeds %d..%d, %gs, trace %d) | unit | min | median | max | furthest run from median | IQR/median | IQR/median as measured | bound | |\n",
		w.Name, n, cfg.seed, cfg.seed+int64(n)-1, cfg.seconds, cfg.trace)
	fmt.Println("|---|---|---|---|---|---|---|---|---|---|")
	for _, tbl := range [][]metric{endToEnd, perLayer} {
		for _, m := range tbl {
			v := values[m.Name]
			if len(v) == 0 {
				continue
			}
			sort.Float64s(v)
			med := median(v)
			far, iqr := 0.0, 0.0
			if med != 0 {
				far = math.Max(med-v[0], v[len(v)-1]-med) / med
				iqr = interquartile(v) / med
			}
			rawIQR := ""
			if rv := raws[m.Name]; len(rv) > 0 {
				sort.Float64s(rv)
				if rmed := median(rv); rmed != 0 {
					rawIQR = strconv.FormatFloat(interquartile(rv)/rmed, 'f', 3, 64)
				}
			}
			flag, bound := "", ""
			if m.Bound > 0 {
				bound = strconv.FormatFloat(m.Bound, 'f', 2, 64)
				if iqr > m.Bound {
					flag = "SPREAD > BOUND"
					status = 1
				}
			}
			fmt.Printf("| %s | %s | %.4f | %.4f | %.4f | %.3f | %.3f | %s | %s | %s |\n",
				m.Name, m.Unit, v[0], med, v[len(v)-1], far, iqr, rawIQR, bound, flag)
		}
	}
	return status
}

// interquartile is Q3-Q1 by the method of Python's statistics.quantiles
// (exclusive), which is what the driver uses. v is sorted.
func interquartile(v []float64) float64 {
	n := len(v)
	if n < 2 {
		return 0
	}
	q := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := pos - float64(j)
		return v[j-1] + d*(v[j]-v[j-1])
	}
	return q(3) - q(1)
}

// lastResult parses the result line a run prints last.
func lastResult(out []byte) (result, error) {
	var last string
	sc := bufio.NewScanner(strings.NewReader(string(out)))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = line
		}
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return res, fmt.Errorf("no result line: %w", err)
	}
	return res, nil
}
