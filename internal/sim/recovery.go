package sim

import (
	"errors"
	"fmt"
	"sort"

	"github.com/oiraid/oiraid/internal/core"
	"github.com/oiraid/oiraid/internal/disk"
	"github.com/oiraid/oiraid/internal/layout"
	"github.com/oiraid/oiraid/internal/stats"
	"github.com/oiraid/oiraid/internal/workload"
)

// SpareMode selects where reconstructed strips are written.
type SpareMode int

// Spare modes.
const (
	// SpareDistributed writes rebuilt strips to reserved spare regions
	// spread across the surviving disks (declustered sparing, the natural
	// companion of OI-RAID and parity declustering).
	SpareDistributed SpareMode = iota
	// SpareDedicated writes everything to one dedicated hot-spare disk
	// (the classical RAID5 arrangement); the spare's bandwidth then bounds
	// rebuild.
	SpareDedicated
)

func (m SpareMode) String() string {
	if m == SpareDedicated {
		return "dedicated"
	}
	return "distributed"
}

// InjectedFailure schedules an additional disk failure during the
// simulation — the window-of-vulnerability scenario: does the rebuild
// outrun the next failure?
type InjectedFailure struct {
	// Disk to fail.
	Disk int
	// AtSeconds is the simulated time of the failure.
	AtSeconds float64
}

// Foreground configures open-loop foreground load during the simulation.
type Foreground struct {
	// Gen draws logical data-strip accesses.
	Gen workload.Generator
	// RatePerSec is the mean arrival rate of the Poisson process.
	RatePerSec float64
	// IOBytes is the size of each foreground access.
	IOBytes int64
}

// Config parameterises a simulation run.
type Config struct {
	// Disk is the per-disk service model. Defaults to disk.DefaultParams.
	Disk disk.Params
	// StripBytes is the strip (stripe-unit) size. Default 1 MiB.
	StripBytes int64
	// ChunkBytes is the largest single rebuild I/O issued; long runs are
	// split so foreground traffic can interleave. Default 16 MiB.
	ChunkBytes int64
	// Spare selects the sparing arrangement.
	Spare SpareMode
	// Foreground, when non-nil, injects load during the run.
	Foreground *Foreground
	// InjectFailures schedules additional disk failures mid-run. Each
	// aborts the in-flight rebuild, re-plans against the enlarged failure
	// set, and restarts (conservatively discarding partial progress). An
	// unrecoverable enlarged set marks the result DataLost.
	InjectFailures []InjectedFailure
	// MaxSimSeconds aborts runaway simulations. Default 1e7 (~115 days of
	// simulated time).
	MaxSimSeconds float64
	// RebuildBandwidthFraction throttles rebuild I/O to this share of each
	// disk's bandwidth (the usual knob for trading rebuild speed against
	// foreground latency). 0 or 1 means unthrottled.
	RebuildBandwidthFraction float64
	// MinRebuildShare guarantees rebuild progress under foreground
	// saturation: at least this share of each disk's accesses serve
	// rebuild I/O while rebuild work is queued. Default 0.1; negative
	// means strict foreground priority (rebuild can starve under
	// overload, as a real array without a reservation would).
	MinRebuildShare float64
	// Seed drives all randomness (arrivals). Workload generators carry
	// their own seeds.
	Seed int64
}

func (c *Config) setDefaults() {
	if c.Disk == (disk.Params{}) {
		c.Disk = disk.DefaultParams()
	}
	if c.StripBytes == 0 {
		c.StripBytes = 1 << 20
	}
	if c.ChunkBytes == 0 {
		c.ChunkBytes = 16 << 20
	}
	if c.MaxSimSeconds == 0 {
		c.MaxSimSeconds = 1e7
	}
	if c.MinRebuildShare == 0 {
		c.MinRebuildShare = 0.1
	}
}

func (c *Config) validate() error {
	if err := c.Disk.Validate(); err != nil {
		return err
	}
	if c.StripBytes <= 0 {
		return fmt.Errorf("sim: strip size %d must be positive", c.StripBytes)
	}
	if c.ChunkBytes < c.StripBytes {
		return fmt.Errorf("sim: chunk size %d smaller than strip %d", c.ChunkBytes, c.StripBytes)
	}
	if c.RebuildBandwidthFraction < 0 || c.RebuildBandwidthFraction > 1 {
		return fmt.Errorf("sim: rebuild bandwidth fraction %v out of [0,1]", c.RebuildBandwidthFraction)
	}
	if c.MinRebuildShare > 1 {
		return fmt.Errorf("sim: minimum rebuild share %v above 1", c.MinRebuildShare)
	}
	if c.Foreground != nil {
		if c.Foreground.Gen == nil {
			return errors.New("sim: foreground configured without generator")
		}
		if c.Foreground.RatePerSec <= 0 || c.Foreground.IOBytes <= 0 {
			return errors.New("sim: foreground rate and IO size must be positive")
		}
	}
	return nil
}

// ForegroundResult reports foreground service quality.
type ForegroundResult struct {
	// Served counts completed requests; Dropped counts requests that could
	// not be served (no live reconstruction path).
	Served, Dropped int
	// Latency summarises normal-path request latencies (seconds).
	Latency *stats.Summary
	// DegradedLatency summarises requests that needed reconstruction.
	DegradedLatency *stats.Summary
}

// Result is the outcome of a simulation run.
type Result struct {
	// RebuildSeconds is the simulated wall-clock time to full recovery
	// (0 for baseline runs).
	RebuildSeconds float64
	// TimedOut reports that MaxSimSeconds elapsed first.
	TimedOut bool
	// Cycles is the number of layout cycles the disks held.
	Cycles int
	// EffectiveCapacityBytes is the per-disk capacity actually simulated
	// (a whole number of layout cycles).
	EffectiveCapacityBytes int64
	// ReadBytesPerDisk / WriteBytesPerDisk / BusySecondsPerDisk index by
	// disk id; a dedicated spare appears as the extra last element.
	ReadBytesPerDisk   []int64
	WriteBytesPerDisk  []int64
	BusySecondsPerDisk []float64
	// SeeksPerDisk counts positioning operations per disk.
	SeeksPerDisk []int
	// FG is present when foreground load was configured.
	FG *ForegroundResult
	// DataLost reports that an injected failure pushed the pattern beyond
	// the layout's tolerance; RebuildSeconds is then 0.
	DataLost bool
	// FailuresApplied counts injected failures that fired.
	FailuresApplied int
}

// RunRecovery simulates the recovery of the failed disks and returns the
// rebuild time and load accounting. It returns an error if the failure is
// unrecoverable (data loss) or the configuration is invalid.
func RunRecovery(a *core.Analyzer, failed []int, cfg Config) (*Result, error) {
	cfg.setDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	plan := a.Plan(failed, core.PlanOptions{})
	if !plan.Complete {
		return nil, fmt.Errorf("sim: failure %v is unrecoverable (%d strips lost)", failed, len(plan.Unrecovered))
	}
	s := newSession(a, cfg)
	s.failed = make(map[int]bool, len(failed))
	for _, d := range failed {
		s.failed[d] = true
	}
	s.runPlan(plan)
	for _, inj := range cfg.InjectFailures {
		if inj.Disk < 0 || inj.Disk >= a.Disks() {
			return nil, fmt.Errorf("sim: injected failure disk %d out of range", inj.Disk)
		}
		if inj.AtSeconds <= 0 {
			return nil, fmt.Errorf("sim: injected failure time %v must be positive", inj.AtSeconds)
		}
		inj := inj
		s.eng.at(inj.AtSeconds, func() { s.injectFailure(inj.Disk) })
	}
	if cfg.Foreground != nil {
		s.startForeground()
	}
	s.eng.run()
	res := s.result()
	res.RebuildSeconds = s.rebuildDone
	res.TimedOut = s.eng.timedOut
	res.DataLost = s.dataLost
	res.FailuresApplied = s.failuresApplied
	if s.dataLost {
		res.RebuildSeconds = 0
	}
	return res, nil
}

// RunBaseline simulates foreground-only service (no failure) for the given
// duration, for comparison against degraded-mode results.
func RunBaseline(a *core.Analyzer, cfg Config, duration float64) (*Result, error) {
	cfg.setDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Foreground == nil {
		return nil, errors.New("sim: baseline run needs foreground config")
	}
	if duration <= 0 {
		return nil, errors.New("sim: baseline duration must be positive")
	}
	s := newSession(a, cfg)
	s.failed = map[int]bool{}
	s.arrivalDeadline = duration
	s.startForeground()
	s.eng.run()
	return s.result(), nil
}

// session holds the state of one simulation.
type session struct {
	a   *core.Analyzer
	cfg Config
	eng *engine

	disks     []*simDisk // array disks; dedicated spare appended if used
	spareIdx  int        // index of dedicated spare, -1 otherwise
	failed    map[int]bool
	survivors []int

	slots      int
	bandWidth  int
	cycles     int
	cycleBytes int64

	// recoveredLoc maps a rebuilt strip id (disk*slots+slot) to the disk
	// and byte offset of its spare region (strip × cycles bytes).
	recoveredLoc map[int32][2]int64 // [diskIdx, offset]
	spareCursor  []int64            // next free spare offset per disk

	rebuildDone     float64
	arrivalsStopped bool
	generation      int
	dataLost        bool
	failuresApplied int
	arrivalDeadline float64 // baseline mode: stop arrivals after this time

	fg       *ForegroundResult
	arrivals *workload.Poisson
}

func newSession(a *core.Analyzer, cfg Config) *session {
	s := &session{
		a:            a,
		cfg:          cfg,
		eng:          &engine{limit: cfg.MaxSimSeconds},
		slots:        a.SlotsPerDisk(),
		spareIdx:     -1,
		recoveredLoc: make(map[int32][2]int64),
	}
	s.cycleBytes = int64(s.slots) * cfg.StripBytes
	s.cycles = int(cfg.Disk.CapacityBytes / s.cycleBytes)
	if s.cycles < 1 {
		s.cycles = 1
	}
	s.bandWidth = s.slots
	if b, ok := a.Scheme().(layout.Bander); ok && s.slots%b.BandWidth() == 0 {
		s.bandWidth = b.BandWidth()
	}
	n := a.Disks()
	slowdown := 1.0
	if cfg.RebuildBandwidthFraction > 0 && cfg.RebuildBandwidthFraction < 1 {
		slowdown = 1 / cfg.RebuildBandwidthFraction
	}
	bgEvery := 0
	if cfg.MinRebuildShare > 0 {
		bgEvery = int(1/cfg.MinRebuildShare + 0.5)
	}
	s.disks = make([]*simDisk, n, n+1)
	for i := range s.disks {
		s.disks[i] = newSimDisk(s.eng, cfg.Disk)
		s.disks[i].bgSlowdown = slowdown
		s.disks[i].bgEvery = bgEvery
	}
	s.spareCursor = make([]int64, n+1)
	return s
}

// byteOffset converts (cycle, slot) to the on-disk byte offset under the
// band-major physical format: each band's strips from all cycles are laid
// out contiguously, so band-aligned rebuild reads stay sequential across
// cycle boundaries (OI-RAID reads whole partitions; S²-RAID whole
// sub-partitions).
func (s *session) byteOffset(cycle int, slot int) int64 {
	band := slot / s.bandWidth
	within := slot % s.bandWidth
	idx := (int64(band)*int64(s.cycles)+int64(cycle))*int64(s.bandWidth) + int64(within)
	return idx * s.cfg.StripBytes
}

// addDedicatedSpare appends the spare disk, returning its index.
func (s *session) addDedicatedSpare() int {
	if s.spareIdx < 0 {
		spare := newSimDisk(s.eng, s.cfg.Disk)
		spare.bgSlowdown = s.disks[0].bgSlowdown
		spare.bgEvery = s.disks[0].bgEvery
		s.disks = append(s.disks, spare)
		s.spareIdx = len(s.disks) - 1
	}
	return s.spareIdx
}

// runPlan schedules the plan's phases starting at the current simulated
// time (t=0 for the initial plan; "now" after an injected failure).
func (s *session) runPlan(plan *core.Plan) {
	s.survivors = s.survivors[:0]
	for d := 0; d < s.a.Disks(); d++ {
		if !s.failed[d] {
			s.survivors = append(s.survivors, d)
		}
	}
	if s.cfg.Spare == SpareDedicated {
		s.addDedicatedSpare()
	}
	// Pre-assign spare locations for every target strip so reads of
	// recovered strips and degraded foreground know where data landed.
	regionBytes := s.cfg.StripBytes * int64(s.cycles)
	nextSurvivor := 0
	for _, task := range plan.Tasks {
		for _, tgt := range task.Targets {
			id := int32(tgt.Disk*s.slots + tgt.Slot)
			var target int
			if s.cfg.Spare == SpareDedicated {
				target = s.spareIdx
			} else {
				target = s.survivors[nextSurvivor%len(s.survivors)]
				nextSurvivor++
			}
			base := s.cfg.Disk.CapacityBytes + s.spareCursor[target]
			s.spareCursor[target] += regionBytes
			s.recoveredLoc[id] = [2]int64{int64(target), base}
		}
	}
	gen := s.generation
	s.eng.at(0, func() { s.startPhase(plan, 0, gen) })
}

// startPhase submits phase p's reads; when they complete, its writes; when
// those complete, the next phase. gen pins the rebuild generation: events
// from a plan that an injected failure invalidated are ignored.
func (s *session) startPhase(plan *core.Plan, p int, gen int) {
	if gen != s.generation {
		return
	}
	var tasks []core.RepairTask
	for _, t := range plan.Tasks {
		if t.Phase == p {
			tasks = append(tasks, t)
		}
	}
	if len(tasks) == 0 {
		s.rebuildDone = s.eng.now
		s.arrivalsStopped = true
		return
	}

	// Gather reads: per-disk slot sets for survivor reads, plus reads of
	// previously recovered strips (served from their spare locations).
	readSlots := make(map[int][]int)
	var spareReads [][2]int64 // (disk, offset) regions of strip×cycles
	for _, t := range tasks {
		for _, src := range t.Reads {
			id := int32(src.Disk*s.slots + src.Slot)
			if loc, ok := s.recoveredLoc[id]; ok && s.failed[src.Disk] {
				spareReads = append(spareReads, loc)
				continue
			}
			readSlots[src.Disk] = append(readSlots[src.Disk], src.Slot)
		}
	}

	pending := 0
	var onReadDone func(float64)
	finishReads := func() { s.submitPhaseWrites(plan, p, tasks, gen) }
	onReadDone = func(float64) {
		if gen != s.generation {
			return
		}
		pending--
		if pending == 0 {
			finishReads()
		}
	}

	// Survivor reads: merge each disk's slots into cross-cycle byte
	// ranges, then chunk.
	for d, slots := range readSlots {
		ranges := s.slotRanges(slots)
		for _, rg := range ranges {
			pending += s.submitChunks(s.disks[d], rg[0], rg[1], onReadDone)
		}
	}
	for _, loc := range spareReads {
		pending += s.submitChunks(s.disks[loc[0]], loc[1], s.cfg.StripBytes*int64(s.cycles), onReadDone)
	}
	if pending == 0 {
		finishReads()
	}
}

func (s *session) submitPhaseWrites(plan *core.Plan, p int, tasks []core.RepairTask, gen int) {
	if gen != s.generation {
		return
	}
	// One spare region write per target strip (strip × cycles bytes),
	// grouped per destination disk and merged when contiguous.
	perDisk := make(map[int][][2]int64)
	for _, t := range tasks {
		for _, tgt := range t.Targets {
			id := int32(tgt.Disk*s.slots + tgt.Slot)
			loc := s.recoveredLoc[id]
			perDisk[int(loc[0])] = append(perDisk[int(loc[0])], [2]int64{loc[1], s.cfg.StripBytes * int64(s.cycles)})
		}
	}
	pending := 0
	done := func(float64) {
		if gen != s.generation {
			return
		}
		pending--
		if pending == 0 {
			s.startPhase(plan, p+1, gen)
		}
	}
	for d, regions := range perDisk {
		for _, rg := range mergeRanges(regions) {
			pending += s.submitWriteChunks(s.disks[d], rg[0], rg[1], done)
		}
	}
	if pending == 0 {
		s.startPhase(plan, p+1, gen)
	}
}

// injectFailure applies a scheduled mid-run disk failure: abandon the
// in-flight rebuild, enlarge the failure set, re-plan, and restart (or
// record data loss).
func (s *session) injectFailure(d int) {
	if s.dataLost || s.failed[d] {
		return
	}
	s.failuresApplied++
	s.failed[d] = true
	s.generation++
	// Abandon queued rebuild I/O; in-flight requests finish but their
	// completions are ignored (stale generation).
	for _, disk := range s.disks {
		disk.bg = nil
	}
	failedList := make([]int, 0, len(s.failed))
	for dd := range s.failed {
		failedList = append(failedList, dd)
	}
	sort.Ints(failedList)
	plan := s.a.Plan(failedList, core.PlanOptions{})
	if !plan.Complete {
		s.dataLost = true
		s.arrivalsStopped = true
		return
	}
	// Restart with fresh spare bookkeeping (partial progress discarded —
	// conservative, like the store's incremental rebuild).
	s.recoveredLoc = make(map[int32][2]int64)
	for i := range s.spareCursor {
		s.spareCursor[i] = 0
	}
	s.runPlan(plan)
}

// slotRanges expands per-cycle slots into absolute byte ranges, merged.
func (s *session) slotRanges(slots []int) [][2]int64 {
	ranges := make([][2]int64, 0, len(slots)*s.cycles)
	for _, slot := range slots {
		for c := 0; c < s.cycles; c++ {
			ranges = append(ranges, [2]int64{s.byteOffset(c, slot), s.cfg.StripBytes})
		}
	}
	return mergeRanges(ranges)
}

// mergeRanges sorts (offset, size) ranges and merges adjacent ones.
func mergeRanges(in [][2]int64) [][2]int64 {
	if len(in) == 0 {
		return nil
	}
	sort.Slice(in, func(i, j int) bool { return in[i][0] < in[j][0] })
	out := in[:1]
	for _, r := range in[1:] {
		last := &out[len(out)-1]
		if r[0] == last[0]+last[1] {
			last[1] += r[1]
			continue
		}
		if r[0] < last[0]+last[1] {
			continue // duplicate/overlap: already covered
		}
		out = append(out, r)
	}
	return out
}

// submitChunks splits [offset, offset+size) into chunk-sized rebuild read
// requests, returning how many were submitted.
func (s *session) submitChunks(d *simDisk, offset, size int64, done func(float64)) int {
	return s.chunked(d, offset, size, false, done)
}

// submitWriteChunks is submitChunks for rebuild writes.
func (s *session) submitWriteChunks(d *simDisk, offset, size int64, done func(float64)) int {
	return s.chunked(d, offset, size, true, done)
}

func (s *session) chunked(d *simDisk, offset, size int64, write bool, done func(float64)) int {
	n := 0
	for size > 0 {
		sz := size
		if sz > s.cfg.ChunkBytes {
			sz = s.cfg.ChunkBytes
		}
		d.submit(ioReq{offset: offset, size: sz, write: write, done: done}, false)
		offset += sz
		size -= sz
		n++
	}
	return n
}

func (s *session) result() *Result {
	res := &Result{
		Cycles:                 s.cycles,
		EffectiveCapacityBytes: s.cycleBytes * int64(s.cycles),
		FG:                     s.fg,
	}
	for _, d := range s.disks {
		res.ReadBytesPerDisk = append(res.ReadBytesPerDisk, d.readBytes)
		res.WriteBytesPerDisk = append(res.WriteBytesPerDisk, d.writeBytes)
		res.BusySecondsPerDisk = append(res.BusySecondsPerDisk, d.busySeconds)
		res.SeeksPerDisk = append(res.SeeksPerDisk, d.seeks)
	}
	return res
}
