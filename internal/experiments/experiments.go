// Package experiments regenerates the paper's evaluation: one function
// per table/figure (E1–E11, catalogued in DESIGN.md §3 and EXPERIMENTS.md),
// each returning printable tables. cmd/oirsim is the CLI harness; the
// repository-root benchmarks wrap the same functions.
package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"strings"
	"time"

	"github.com/oiraid/oiraid/internal/bibd"
	"github.com/oiraid/oiraid/internal/core"
	"github.com/oiraid/oiraid/internal/disk"
	"github.com/oiraid/oiraid/internal/layout"
)

// Table is one experiment output: headers plus formatted rows.
type Table struct {
	ID      string
	Title   string
	Headers []string
	Rows    [][]string
	Notes   []string
}

// Add appends a row of stringified cells.
func (t *Table) Add(cells ...string) { t.Rows = append(t.Rows, cells) }

// Fprint renders the table as aligned text.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	line(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// FprintCSV renders the table as RFC-4180 CSV with a leading comment line
// carrying the id/title, for downstream plotting tools.
func (t *Table) FprintCSV(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# %s: %s\n", t.ID, t.Title); err != nil {
		return err
	}
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Headers); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Options tunes experiment scale.
type Options struct {
	// Quick shrinks array sizes and simulated capacities so the full
	// suite finishes in seconds (used by benchmarks and CI).
	Quick bool
}

// runner is one experiment entry point.
type runner struct {
	id    string
	title string
	fn    func(Options) ([]*Table, error)
}

func registry() []runner {
	return []runner{
		{"E1", "Scheme properties (storage, tolerance, update cost, recovery parallelism)", E1Properties},
		{"E2", "Single-failure rebuild time and speedup vs array size", E2RecoverySpeedup},
		{"E3", "Per-disk recovery read load balance", E3LoadBalance},
		{"E4", "Rebuild time vs disk capacity", E4CapacityScaling},
		{"E5", "Reliability: MTTDL and mission data-loss probability", E5Reliability},
		{"E6", "Degraded foreground service during rebuild", E6DegradedService},
		{"E7", "Measured small-write cost on the byte-accurate array", E7UpdateCost},
		{"E8", "Multi-failure recovery", E8MultiFailure},
		{"E9", "Ablations: skew and resolvability", E9Ablations},
		{"E10", "Extension: stronger codes in either layer", E10CodeConfigurations},
		{"E11", "Cascading failures during rebuild (window of vulnerability)", E11CascadingFailures},
	}
}

// IDs lists the experiment identifiers in order.
func IDs() []string {
	rs := registry()
	ids := make([]string, len(rs))
	for i, r := range rs {
		ids[i] = r.id
	}
	return ids
}

// Title returns the experiment title for an id ("" if unknown).
func Title(id string) string {
	for _, r := range registry() {
		if r.id == id {
			return r.title
		}
	}
	return ""
}

// Run executes one experiment by id.
func Run(id string, opt Options) ([]*Table, error) {
	for _, r := range registry() {
		if strings.EqualFold(r.id, id) {
			return r.fn(opt)
		}
	}
	return nil, fmt.Errorf("experiments: unknown id %q (have %s)", id, strings.Join(IDs(), ", "))
}

// --- shared helpers ---

// schemeSet is the comparison set at a given array size. S²-RAID needs a
// prime×m factorisation; nil entries are skipped.
type schemeSet struct {
	v    int
	oi   *core.Analyzer
	oiNS *core.Analyzer // no-skew variant (ablations)
	r5   *core.Analyzer
	r6   *core.Analyzer
	pd   *core.Analyzer
	s2   *core.Analyzer
}

func buildSet(v int) (*schemeSet, error) {
	set := &schemeSet{v: v}
	d, err := bibd.ForArray(v)
	if err != nil {
		return nil, err
	}
	oiScheme, err := layout.NewOIRAID(d)
	if err != nil {
		return nil, err
	}
	if set.oi, err = core.NewAnalyzer(oiScheme); err != nil {
		return nil, err
	}
	noskew, err := layout.NewOIRAID(d, layout.WithSkew(false))
	if err != nil {
		return nil, err
	}
	if set.oiNS, err = core.NewAnalyzer(noskew); err != nil {
		return nil, err
	}
	r5, err := layout.NewRAID5(v)
	if err != nil {
		return nil, err
	}
	if set.r5, err = core.NewAnalyzer(r5); err != nil {
		return nil, err
	}
	r6, err := layout.NewRAID6(v)
	if err != nil {
		return nil, err
	}
	if set.r6, err = core.NewAnalyzer(r6); err != nil {
		return nil, err
	}
	pdD, err := bibd.ForDeclustering(v, d.K)
	if err == nil {
		pdScheme, err := layout.NewParityDecluster(pdD)
		if err != nil {
			return nil, err
		}
		if set.pd, err = core.NewAnalyzer(pdScheme); err != nil {
			return nil, err
		}
	}
	if g, m, ok := s2Factor(v); ok {
		s2, err := layout.NewS2RAID(g, m)
		if err != nil {
			return nil, err
		}
		if set.s2, err = core.NewAnalyzer(s2); err != nil {
			return nil, err
		}
	}
	return set, nil
}

// s2Factor finds a prime g and m ≥ 2 with g·m = v, preferring the largest
// prime g (maximises S²-RAID's recovery parallelism).
func s2Factor(v int) (g, m int, ok bool) {
	best := 0
	for p := 2; p <= v/2; p++ {
		if v%p != 0 || !isPrime(p) {
			continue
		}
		if v/p >= 2 {
			best = p
		}
	}
	if best == 0 {
		return 0, 0, false
	}
	return best, v / best, true
}

func isPrime(n int) bool {
	if n < 2 {
		return false
	}
	for d := 2; d*d <= n; d++ {
		if n%d == 0 {
			return false
		}
	}
	return true
}

// sizes returns the array sizes evaluated at the given scale. 27 = AG(3,3)
// exercises the affine-space catalog extension (r = 13).
func sizes(opt Options) []int {
	if opt.Quick {
		return []int{9, 16}
	}
	return []int{9, 16, 25, 27, 49}
}

// testDisk returns the simulated disk for experiments; Quick shrinks the
// capacity so event counts stay small.
func testDisk(opt Options) disk.Params {
	p := disk.Params{
		BandwidthBps: 150e6,
		Seek:         8500 * time.Microsecond,
	}
	if opt.Quick {
		p.CapacityBytes = 2 << 30
	} else {
		p.CapacityBytes = 32 << 30
	}
	return p
}

func f(format string, args ...interface{}) string { return fmt.Sprintf(format, args...) }
