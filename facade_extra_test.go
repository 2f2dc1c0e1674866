package oiraid

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/oiraid/oiraid/internal/sim"
	"github.com/oiraid/oiraid/internal/workload"
)

func smallSimConfig() SimConfig {
	return SimConfig{
		Disk: DiskParams{CapacityBytes: 1 << 30, BandwidthBps: 150e6, Seek: 8500 * time.Microsecond},
	}
}

func TestGeometryAccessors(t *testing.T) {
	g := testGeometry(t, 9)
	if g.Design().V != 9 {
		t.Fatal("Design accessor wrong")
	}
	if g.Scheme().Disks() != 9 {
		t.Fatal("Scheme accessor wrong")
	}
}

func TestExposureFacade(t *testing.T) {
	g := testGeometry(t, 9)
	e := g.Exposure([]int{0, 1}, 2)
	if !e.Recoverable || len(e.CriticalDisks) != 0 {
		t.Fatalf("exposure = %+v", e)
	}
}

func TestWithOuterParityFacade(t *testing.T) {
	g, err := NewGeometry(16, WithOuterParity(2))
	if err != nil {
		t.Fatal(err)
	}
	if df := g.DataFraction(); df != 0.375 {
		t.Fatalf("data fraction = %v, want 0.375", df)
	}
	if _, err := NewGeometry(9, WithOuterParity(5)); err == nil {
		t.Fatal("excessive outer parity must fail")
	}
}

func TestLayoutJSONRoundTripFacade(t *testing.T) {
	g := testGeometry(t, 9)
	var buf bytes.Buffer
	if err := ExportLayoutJSON(g, &buf); err != nil {
		t.Fatal(err)
	}
	an, err := AnalyzerFromLayoutJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if an.Disks() != 9 {
		t.Fatalf("imported layout has %d disks", an.Disks())
	}
	if got := an.ExactTolerance(3).Guaranteed; got != 3 {
		t.Fatalf("imported layout tolerance = %d", got)
	}
	r5, err := NewRAID5(5)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := ExportLayoutJSONOf(r5, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "raid5(n=5)") {
		t.Fatal("baseline export missing name")
	}
	if _, err := AnalyzerFromLayoutJSON(strings.NewReader("{bad")); err == nil {
		t.Fatal("broken JSON must fail")
	}
	if _, err := AnalyzerFromLayoutJSON(strings.NewReader(`{"disks":2,"slots_per_disk":1,"stripes":[],"data_strips":[]}`)); err == nil {
		t.Fatal("invalid layout must fail validation")
	}
	// Structurally valid, but its two parities feed each other: refused
	// when loaded, not by the first write to an array built on it.
	cyclic := `{"disks":3,"slots_per_disk":1,"data_strips":[[0,0]],"stripes":[` +
		`{"data":2,"strips":[[0,0],[1,0],[2,0]]},{"data":1,"strips":[[2,0],[1,0]]}]}`
	if _, err := AnalyzerFromLayoutJSON(strings.NewReader(cyclic)); err == nil || !strings.Contains(err.Error(), "cyclic") {
		t.Fatalf("cyclic parity graph: %v, want a refusal", err)
	}
}

func TestSimulateBaselineFacade(t *testing.T) {
	g := testGeometry(t, 9)
	gen, err := workload.NewUniform(100000, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallSimConfig()
	cfg.Foreground = &sim.Foreground{Gen: gen, RatePerSec: 100, IOBytes: 64 << 10}
	res, err := SimulateBaseline(g, cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.FG.Served == 0 {
		t.Fatal("baseline served nothing")
	}
	r5, err := NewRAID5(9)
	if err != nil {
		t.Fatal(err)
	}
	gen2, _ := workload.NewUniform(100000, 0, 2)
	cfg.Foreground = &sim.Foreground{Gen: gen2, RatePerSec: 100, IOBytes: 64 << 10}
	res5, err := SimulateBaselineOn(r5, cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res5.FG.Served == 0 {
		t.Fatal("baseline-on served nothing")
	}
}

func TestLossProbabilityFacade(t *testing.T) {
	g := testGeometry(t, 9)
	p := ReliabilityParams{MTTFHours: 100_000, MTTRHours: 10}
	pl, err := LossProbability(g, p, 87_660, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	if pl <= 0 || pl > 1e-6 {
		t.Fatalf("10-year P(loss) = %v, want tiny but positive", pl)
	}
	r5, err := NewRAID5(9)
	if err != nil {
		t.Fatal(err)
	}
	pl5, err := MonteCarloDataLossOn(r5, ReliabilityParams{MTTFHours: 2000, MTTRHours: 200}, 20_000, 300, 5)
	if err != nil {
		t.Fatal(err)
	}
	if pl5 < 0.5 {
		t.Fatalf("raid5 accelerated P(loss) = %v, want high", pl5)
	}
}

// TestFormattedArrayVerifiesFacade: an array with a metadata journal keeps
// per-strip checksums, so a strip corrupted behind its back reads back
// healed from parity (read repair).
func TestFormattedArrayVerifiesFacade(t *testing.T) {
	g := testGeometry(t, 9)
	devs, sbs := make([]Device, g.Disks()), make([]Blob, g.Disks())
	strips := int64(g.Analyzer().SlotsPerDisk())
	for i := range devs {
		mem, err := NewMemDevice(strips, 512)
		if err != nil {
			t.Fatal(err)
		}
		devs[i], sbs[i] = mem, NewMemBlob()
	}
	m, err := FormatArray(g, devs, sbs, NewMemBlob(), NewMemBlob())
	if err != nil {
		t.Fatal(err)
	}
	want := bytes.Repeat([]byte{0x5A}, 512)
	if _, err := m.Array.WriteAt(want, 0); err != nil {
		t.Fatal(err)
	}
	d := m.Array.DataStripDisk(0)
	for idx := int64(0); idx < strips; idx++ { // the strip is somewhere on disk d
		if err := devs[d].WriteStrip(idx, make([]byte, 512)); err != nil {
			t.Fatal(err)
		}
	}
	got := make([]byte, 512)
	if _, err := m.Array.ReadAt(got, 0); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("read of a corrupted strip: %v", err)
	}
	if st := m.Array.Stats(); st.ReadRepairs != 1 {
		t.Fatalf("read repairs %d, want 1", st.ReadRepairs)
	}
}

func TestNewFileDeviceFacade(t *testing.T) {
	dev, err := NewFileDevice(filepath.Join(t.TempDir(), "d.img"), 4, 512)
	if err != nil {
		t.Fatal(err)
	}
	defer dev.Close()
	p := make([]byte, 512)
	if err := dev.WriteStrip(0, p); err != nil {
		t.Fatal(err)
	}
}
