// Command benchjson converts `go test -bench` text output (read from
// stdin) into a machine-readable JSON report. Every benchmark line is
// parsed generically as (name, iterations, value/unit pairs), so custom
// b.ReportMetric units — MB/s, p50-ms, p99-ms, allocs/op — survive
// untouched:
//
//	go test -bench Failover -benchmem -run '^$' ./internal/cluster/ | benchjson -out BENCH_failover.json
//
// `make bench` uses it for the two measurements bench/ has no workload
// for (fail-over, migration); everything else is `bash bench/run.sh
// --workload …`.
//
// The input is echoed to stdout so the human-readable stream stays
// visible when benchjson sits at the end of a pipe.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// Benchmark is one parsed benchmark result line.
type Benchmark struct {
	// Name is the benchmark's name with the -GOMAXPROCS suffix kept (it
	// distinguishes parallel variants).
	Name string `json:"name"`
	// Package is the pkg: line in effect when the benchmark ran.
	Package string `json:"package,omitempty"`
	// Iterations is b.N.
	Iterations int64 `json:"iterations"`
	// Metrics maps unit → value: ns/op, MB/s, B/op, allocs/op, and any
	// custom b.ReportMetric units.
	Metrics map[string]float64 `json:"metrics"`
}

// Report is the top-level JSON document.
type Report struct {
	Goos       string      `json:"goos,omitempty"`
	Goarch     string      `json:"goarch,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	out := flag.String("out", "", "write the JSON report here (default stdout)")
	flag.Parse()

	rep := Report{Benchmarks: []Benchmark{}}
	pkg := ""
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		fmt.Println(line)
		switch {
		case strings.HasPrefix(line, "goos: "):
			rep.Goos = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			rep.Goarch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "cpu: "):
			rep.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "pkg: "):
			pkg = strings.TrimPrefix(line, "pkg: ")
		case strings.HasPrefix(line, "Benchmark"):
			if b, ok := parseBenchLine(line); ok {
				b.Package = pkg
				rep.Benchmarks = append(rep.Benchmarks, b)
			}
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson: read stdin:", err)
		os.Exit(1)
	}

	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %d benchmark(s) to %s\n", len(rep.Benchmarks), *out)
}

// parseBenchLine decodes one result line:
//
//	BenchmarkObjectPut   10   1299548 ns/op   50.43 MB/s   691148 B/op   7706 allocs/op
//
// i.e. name, iteration count, then (value, unit) pairs.
func parseBenchLine(line string) (Benchmark, bool) {
	f := strings.Fields(line)
	if len(f) < 4 {
		return Benchmark{}, false
	}
	iters, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b := Benchmark{
		Name:       strings.TrimPrefix(f[0], "Benchmark"),
		Iterations: iters,
		Metrics:    make(map[string]float64),
	}
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return Benchmark{}, false
		}
		b.Metrics[f[i+1]] = v
	}
	return b, len(b.Metrics) > 0
}
