// Package oiraid is a Go implementation of OI-RAID, the two-layer RAID
// architecture of Wang, Xu, Li and Wu ("OI-RAID: A Two-Layer RAID
// Architecture towards Fast Recovery and High Reliability", DSN 2016).
//
// OI-RAID organises v disks by a resolvable Balanced Incomplete Block
// Design: blocks of the design are groups of k disks, and the design's
// parallel classes partition the disks into disjoint groups. RAID5 runs
// in two layers — inside every group (inner) and across the groups of
// each parallel class (outer) — with a skewed data layout. The result:
//
//   - a single failed disk is rebuilt by reading all v-1 survivors in
//     parallel, each contributing one sequential scan of 1/r of a disk
//     (r = (v-1)/(k-1)), an r× rebuild speedup over RAID5;
//   - any three disk failures are tolerated;
//   - a small write costs four strip writes (data, inner parity, outer
//     parity, and the outer parity's inner parity);
//   - storage efficiency (k-1)(c-1)/(k·c) with c = v/k groups per class.
//
// The package exposes three planes built on the same geometry:
//
//   - analysis (NewGeometry): recovery plans, fault-tolerance checks,
//     update costs, scheme properties;
//   - data (NewMemArray / NewFileArray): a byte-accurate array with
//     degraded reads, online writes, rebuild, and scrubbing;
//   - evaluation (SimulateRecovery, EstimateMTTDL, …): the event-driven
//     simulator and reliability models that regenerate the paper's
//     results (see EXPERIMENTS.md and cmd/oirsim).
//
// Baseline arrays from the paper's comparison set — RAID5, RAID6, parity
// declustering, S²-RAID — are available through the same interfaces (see
// baselines.go).
package oiraid

import (
	"fmt"
	"io"

	"github.com/oiraid/oiraid/internal/bibd"
	"github.com/oiraid/oiraid/internal/core"
	"github.com/oiraid/oiraid/internal/disk"
	"github.com/oiraid/oiraid/internal/engine"
	"github.com/oiraid/oiraid/internal/layout"
	"github.com/oiraid/oiraid/internal/reliability"
	"github.com/oiraid/oiraid/internal/server"
	"github.com/oiraid/oiraid/internal/sim"
	"github.com/oiraid/oiraid/internal/store"
)

// Re-exported building blocks. The implementation lives in internal
// packages; these aliases are the supported public names.
type (
	// Design is a balanced incomplete block design (outer-layer input).
	Design = bibd.Design
	// Scheme is a periodic data layout with coding stripes.
	Scheme = layout.Scheme
	// Analyzer answers recovery, tolerance, and update queries about a
	// Scheme.
	Analyzer = core.Analyzer
	// Plan is a multi-phase recovery schedule.
	Plan = core.Plan
	// PlanOptions tunes recovery planning.
	PlanOptions = core.PlanOptions
	// Properties is the analytic scheme comparison record.
	Properties = core.Properties
	// Array is the byte-accurate data plane.
	Array = store.Array
	// Device is a strip-granularity block device backing an Array.
	Device = store.Device
	// DiskParams models one disk for simulation.
	DiskParams = disk.Params
	// SimConfig parameterises the event-driven simulator.
	SimConfig = sim.Config
	// SimResult is a simulation outcome.
	SimResult = sim.Result
	// ReliabilityParams are per-disk MTTF/MTTR figures.
	ReliabilityParams = reliability.Params
	// Exposure is the risk report of a degraded array.
	Exposure = core.Exposure
	// Engine is the concurrency layer over an Array: striped locking,
	// pooled fan-out I/O, counters, and background rebuild.
	Engine = engine.Engine
	// EngineOptions tunes an Engine.
	EngineOptions = engine.Options
	// Server exposes an Engine over HTTP (the oiraidd service).
	Server = server.Server
	// ServerOptions tunes a Server.
	ServerOptions = server.Options
	// FaultConfig parameterises deterministic fault injection.
	FaultConfig = store.FaultConfig
	// FaultInjector is a device wrapper injecting transient errors, torn
	// writes, silent bit-flips, latency, and permanent failure.
	FaultInjector = store.FaultDevice
	// QoSState is the live QoS snapshot (also the JSON body of oiraidd's
	// /v1/qos).
	QoSState = engine.QoSState
	// QoSUpdate is a partial, live update of the QoS knobs.
	QoSUpdate = engine.QoSUpdate
	// Blob is a byte-addressed durable file (superblock/journal media).
	Blob = store.Blob
	// Mount is the result of assembling an array from on-media metadata.
	Mount = store.Mount
)

// SupportedDiskCounts lists array sizes v ≤ limit for which an OI-RAID
// geometry exists in the catalog: v = qⁿ for prime powers q and n ≥ 2
// (affine geometries AG(n,q)), plus v = 15 (the Kirkman triple system).
func SupportedDiskCounts(limit int) []int { return bibd.SupportedArraySizes(limit) }

// Option customises NewGeometry.
type Option func(*config)

type config struct {
	rows        int
	skew        bool
	innerParity int
	outerParity int
}

// WithRows overrides W, the number of inner stripe rows per partition per
// layout cycle (default k·(v/k)).
func WithRows(w int) Option { return func(c *config) { c.rows = w } }

// WithoutSkew disables the outer-layer skew; only useful for ablation
// studies.
func WithoutSkew() Option { return func(c *config) { c.skew = false } }

// WithInnerParity sets the parity strips per inner stripe (default 1 =
// the paper's RAID5 configuration; 2 deploys a RAID6-class Reed–Solomon
// code inside every group, lifting guaranteed tolerance from 3 to 5).
func WithInnerParity(pi int) Option { return func(c *config) { c.innerParity = pi } }

// WithOuterParity sets the parity strips per outer stripe (default 1).
func WithOuterParity(po int) Option { return func(c *config) { c.outerParity = po } }

// Geometry bundles an OI-RAID layout with its analyzer. It is immutable
// and safe for concurrent use.
type Geometry struct {
	design *bibd.Design
	scheme *layout.OIRAID
	an     *core.Analyzer
}

// NewGeometry constructs the OI-RAID geometry for the given number of
// disks. Supported sizes come from SupportedDiskCounts; other sizes
// return an error naming the alternatives.
func NewGeometry(disks int, opts ...Option) (*Geometry, error) {
	cfg := config{skew: true}
	for _, opt := range opts {
		opt(&cfg)
	}
	d, err := bibd.ForArray(disks)
	if err != nil {
		return nil, err
	}
	var lopts []layout.OIRAIDOption
	if cfg.rows > 0 {
		lopts = append(lopts, layout.WithRows(cfg.rows))
	}
	if cfg.innerParity > 0 {
		lopts = append(lopts, layout.WithInnerParity(cfg.innerParity))
	}
	if cfg.outerParity > 0 {
		lopts = append(lopts, layout.WithOuterParity(cfg.outerParity))
	}
	lopts = append(lopts, layout.WithSkew(cfg.skew))
	sch, err := layout.NewOIRAID(d, lopts...)
	if err != nil {
		return nil, err
	}
	an, err := core.NewAnalyzer(sch)
	if err != nil {
		return nil, err
	}
	return &Geometry{design: d, scheme: sch, an: an}, nil
}

// Disks returns v.
func (g *Geometry) Disks() int { return g.design.V }

// GroupSize returns k, the inner RAID5 width.
func (g *Geometry) GroupSize() int { return g.design.K }

// Replication returns r = (v-1)/(k-1), the rebuild speedup factor and the
// number of parallel classes.
func (g *Geometry) Replication() int { return g.design.R() }

// GroupsPerClass returns c = v/k, the outer RAID5 width.
func (g *Geometry) GroupsPerClass() int { return g.design.V / g.design.K }

// DataFraction returns usable capacity / raw capacity.
func (g *Geometry) DataFraction() float64 { return layout.DataFraction(g.scheme) }

// Design returns the underlying block design.
func (g *Geometry) Design() *Design { return g.design }

// Scheme returns the layout.
func (g *Geometry) Scheme() Scheme { return g.scheme }

// Analyzer returns the stripe-graph analyzer.
func (g *Geometry) Analyzer() *Analyzer { return g.an }

// Plan computes a recovery schedule for the failed disks.
func (g *Geometry) Plan(failed []int) *Plan { return g.an.Plan(failed, core.PlanOptions{}) }

// Recoverable reports whether the failure pattern loses no data.
func (g *Geometry) Recoverable(failed []int) bool { return g.an.Recoverable(failed) }

// Properties measures the analytic scheme comparison, checking tolerance
// exhaustively up to maxTolerance.
func (g *Geometry) Properties(maxTolerance int) Properties {
	return g.an.MeasureProperties(maxTolerance)
}

// Exposure reports how close a degraded array is to data loss: which
// further disk failures would be fatal and how many arbitrary additional
// failures remain guaranteed survivable (searched up to maxSlack).
func (g *Geometry) Exposure(failed []int, maxSlack int) Exposure {
	return g.an.MeasureExposure(failed, maxSlack)
}

// String implements fmt.Stringer.
func (g *Geometry) String() string {
	return fmt.Sprintf("oi-raid geometry: v=%d disks, k=%d per group, r=%d classes, c=%d groups/class, %.1f%% usable",
		g.Disks(), g.GroupSize(), g.Replication(), g.GroupsPerClass(), 100*g.DataFraction())
}

// NewMemArray builds a memory-backed byte-accurate array over the
// geometry, holding the given number of layout cycles of stripBytes
// strips.
func NewMemArray(g *Geometry, cycles int64, stripBytes int) (*Array, error) {
	return store.NewMemArray(g.an, cycles, stripBytes)
}

// NewFileArray formats a fresh file-backed array under dir (see FormatDir)
// and returns its data plane.
func NewFileArray(g *Geometry, dir string, cycles int64, stripBytes int) (*Array, error) {
	mnt, err := FormatDir(g, dir, cycles, stripBytes)
	if err != nil {
		return nil, err
	}
	return mnt.Array, nil
}

// DegradedPolicy selects what a mount does when the committed
// failure pattern is beyond the layout's recovery capability: refuse
// (the default), serve the full address space read-only (when every
// data strip is still decodable), or serve the decodable subset.
type DegradedPolicy = store.DegradedPolicy

// FormatOption customises FormatArray and FormatDir; MountOption
// customises MountDir.
type (
	FormatOption = store.FormatOption
	MountOption  = store.MountOption
)

// WithDegradedPolicy stamps the degradation policy into the
// superblocks at format time.
func WithDegradedPolicy(p DegradedPolicy) FormatOption { return store.WithDegradedPolicy(p) }

// WithMountDegradedPolicy overrides the superblock's degradation
// policy for one mount.
func WithMountDegradedPolicy(p DegradedPolicy) MountOption { return store.WithMountDegradedPolicy(p) }

// ParseDegradedPolicy parses "refuse", "read-only", or "partial"
// (empty string means refuse).
func ParseDegradedPolicy(s string) (DegradedPolicy, error) { return store.ParseDegradedPolicy(s) }

// FormatArray initialises the durable metadata plane for an array:
// fresh identities and superblocks on every disk plus the metadata
// journal (j0/j1 are its double-buffered regions). Device content is
// left untouched.
func FormatArray(g *Geometry, devs []Device, sbs []Blob, j0, j1 Blob, opts ...FormatOption) (*Mount, error) {
	return store.FormatArray(g.an, devs, sbs, j0, j1, opts...)
}

// FormatDir formats a fresh array in the local directory format — per
// disk one image and one superblock file, plus the metadata journal's two
// regions — creating dir if needed. It refuses, touching nothing, a
// directory that already holds images or superblocks
// (store.ErrDirNotEmpty).
func FormatDir(g *Geometry, dir string, cycles int64, stripBytes int, opts ...FormatOption) (*Mount, error) {
	return store.FormatDir(g.an, dir, cycles, stripBytes, opts...)
}

// MountDir mounts the array FormatDir left in dir. Geometry comes from
// the on-media superblocks and is returned beside the mount; a directory
// without a loadable superblock is refused (store.ErrNoSuperblock) and
// left untouched.
func MountDir(dir string, opts ...MountOption) (*Mount, *Geometry, error) {
	var g *Geometry
	mnt, err := store.MountDir(dir, func(disks int) (*core.Analyzer, error) {
		var err error
		if g, err = NewGeometry(disks); err != nil {
			return nil, err
		}
		return g.an, nil
	}, opts...)
	if err != nil {
		return nil, nil, err
	}
	return mnt, g, nil
}

// NewMemBlob exposes memory-backed metadata media (tests, ephemeral
// arrays).
func NewMemBlob() Blob { return store.NewMemBlob() }

// NewMemDevice exposes memory-backed devices for custom array assembly
// (e.g. replacement disks for Array.ReplaceDisk).
func NewMemDevice(strips int64, stripBytes int) (Device, error) {
	return store.NewMemDevice(strips, stripBytes)
}

// NewFileDevice exposes file-backed devices for custom array assembly.
func NewFileDevice(path string, strips int64, stripBytes int) (Device, error) {
	return store.NewFileDevice(path, strips, stripBytes)
}

// NewEngine builds the concurrency engine over an array. The engine
// owns the array from here on: all I/O should go through it.
func NewEngine(arr *Array, opts EngineOptions) (*Engine, error) {
	return engine.New(arr, opts)
}

// NewServer builds the HTTP service over an engine; serve it with
// Server.Serve or mount Server.Handler.
func NewServer(eng *Engine, opts ServerOptions) *Server {
	return server.New(eng, opts)
}

// NewFaultDevice wraps a device with deterministic, seedable fault
// injection — the chaos-testing backbone of the self-healing stack.
func NewFaultDevice(dev Device, cfg FaultConfig) *FaultInjector {
	return store.NewFaultDevice(dev, cfg)
}

// SimulateRecovery runs the event-driven simulator for the failure
// pattern on this geometry.
func SimulateRecovery(g *Geometry, failed []int, cfg SimConfig) (*SimResult, error) {
	return sim.RunRecovery(g.an, failed, cfg)
}

// SimulateBaseline runs foreground-only service (no failures) for
// comparison against degraded-mode results.
func SimulateBaseline(g *Geometry, cfg SimConfig, durationSeconds float64) (*SimResult, error) {
	return sim.RunBaseline(g.an, cfg, durationSeconds)
}

// EstimateMTTDL computes the geometry-aware Markov MTTDL (hours). The
// 4-failure loss fraction is estimated with the given sample budget
// (exact for small arrays).
func EstimateMTTDL(g *Geometry, p ReliabilityParams, samples int) (float64, error) {
	f4 := g.an.EstimateUnrecoverable(4, samples, nil)
	return reliability.MTTDL(g.Disks(), p, []float64{0, 0, 0, 0, f4})
}

// ExportLayoutJSON writes the geometry's complete layout — strip map and
// coding relations — as JSON for external tooling.
func ExportLayoutJSON(g *Geometry, w io.Writer) error {
	return layout.Export(g.scheme).WriteJSON(w)
}

// ExportLayoutJSONOf is ExportLayoutJSON for any analyzer (baselines too).
func ExportLayoutJSONOf(a *Analyzer, w io.Writer) error {
	return layout.Export(a.Scheme()).WriteJSON(w)
}

// AnalyzerFromLayoutJSON loads a custom layout (the format written by
// ExportLayoutJSON) and returns an analyzer over it, after validating all
// structural invariants. Custom layouts run through the entire stack:
// analysis, simulation, and byte-accurate arrays.
func AnalyzerFromLayoutJSON(r io.Reader) (*Analyzer, error) {
	dump, err := layout.ReadDump(r)
	if err != nil {
		return nil, err
	}
	scheme, err := dump.Scheme()
	if err != nil {
		return nil, err
	}
	return core.NewAnalyzer(scheme)
}

// LossProbability computes the exact transient Markov probability that
// the geometry loses data within missionHours, using geometry-derived
// per-cardinality loss fractions (sample budget: samples).
func LossProbability(g *Geometry, p ReliabilityParams, missionHours float64, samples int) (float64, error) {
	f4 := g.an.EstimateUnrecoverable(4, samples, nil)
	return reliability.LossProbability(g.Disks(), p, []float64{0, 0, 0, 0, f4}, missionHours)
}

// MonteCarloDataLoss estimates the probability of data loss within the
// mission time by geometry-exact failure/repair simulation.
func MonteCarloDataLoss(g *Geometry, p ReliabilityParams, missionHours float64, trials int, seed int64) (float64, error) {
	res, err := reliability.MonteCarlo(g.an, p, missionHours, trials, seed)
	if err != nil {
		return 0, err
	}
	return res.ProbLoss, nil
}
