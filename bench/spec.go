package main

// The benchmark's vocabulary: workloads, end-to-end metrics and per-layer
// metrics. BENCHMARK.json at the repository root repeats these tables;
// TestListMatchesBenchmarkJSON keeps the two from drifting.

const (
	higher = "higher"
	lower  = "lower"
)

// metric is one reported number. Bound is the regression bound of an
// end-to-end metric (share of the parent's median) and 0 for per-layer
// metrics, which are never gated.
type metric struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	Why    string
}

type stackKind int

const (
	kindStrip   stackKind = iota // in-process engine, single-strip ops
	kindObject                   // HTTP client → server → object → engine
	kindCluster                  // coordinator over three loopback netdev nodes
)

// workload is one stack plus the geometry the phase script runs on.
type workload struct {
	Name string
	Why  string

	kind       stackKind
	disks      int
	stripBytes int
	cycles     int64 // layout cycles
	unitBytes  int   // user bytes moved by one op
	objects    int   // object-1m: keys in the working set
	// deep is the pinned 3-disk failure set of P6: the first 3-subset in
	// lexicographic order that leaves some data strip on a failed disk
	// without a single-stripe decode path (TestDeepSetsArePinned).
	deep []int
	// deepSample bounds the fixed list of failed-disk units the deep-read
	// round walks, sized so one pass fits a round.
	deepSample int
	// rounds is the number of measured laps. Nine everywhere except on the
	// cluster, where a lap's rebuild speed falls into one of two modes a
	// factor of two apart (read round trips of 60 or 120 us, depending on
	// how the lap's replacements spread the disks over the nodes) and the
	// median needs twice the laps to stay in one of them.
	rounds int
	// yard is the yardstick the workload's times are referred to: the one
	// slowed by what slows the workload (see calib.go).
	yard yardKind
	// rebuildBatch is the layout-cycle batch handed to StartRebuild.
	rebuildBatch int64
	// rebuildFloor is the least a rebuild round reconstructs, however
	// early its deadline falls: whole-disk rebuilds are milliseconds long
	// and a round of two or three of them is all start-up cost.
	rebuildFloor int64
	flush        string
}

var workloads = []workload{
	{
		Name: "object-1m",
		Why:  "1 MiB PUT/GET through loopback HTTP, object plane and engine: bandwidth-bound whole-stripe extents, where parity kernels, PUT allocations and server copies show",
		kind: kindObject, disks: 9, stripBytes: 64 << 10, cycles: 5,
		unitBytes: 1 << 20, objects: 24, deep: []int{0, 1, 3}, deepSample: 24, rebuildBatch: 1, rebuildFloor: 64 << 20, rounds: 9,
		flush: "in-memory devices and journal: nothing is flushed",
	},
	{
		Name: "strip-4k",
		Why:  "in-process 4 KiB single-strip ops on 9 disks: per-op overhead (locks, allocs, planning) weighs most here, so it is the target for plan caching, scratch pooling and the deep-read cliff",
		kind: kindStrip, disks: 9, stripBytes: 4 << 10, cycles: 64,
		unitBytes: 4 << 10, deep: []int{0, 1, 3}, deepSample: 1024, rebuildBatch: 8, rebuildFloor: 64 << 20, rounds: 9,
		flush: "in-memory devices: nothing is flushed",
	},
	{
		Name: "strip-64k-v25",
		Why:  "in-process 64 KiB strips on the 25-disk AG(2,5) geometry: kernel- and memory-bandwidth-bound, puts declustered rebuild and degraded reads on a second geometry",
		kind: kindStrip, disks: 25, stripBytes: 64 << 10, cycles: 1,
		unitBytes: 64 << 10, deep: []int{0, 1, 5}, deepSample: 24, rebuildBatch: 1, rebuildFloor: 64 << 20, rounds: 9,
		flush: "in-memory devices: nothing is flushed",
	},
	{
		Name: "cluster-4k",
		Why:  "volatile coordinator (journal in memory, no fsync) over three loopback netdev nodes: wire round-trips dominate, so closure fan-out shows only here and gf/store CPU is noise",
		kind: kindCluster, disks: 9, stripBytes: 4 << 10, cycles: 1,
		unitBytes: 4 << 10, deep: []int{0, 1, 3}, deepSample: 48, rebuildBatch: 1, rebuildFloor: 2 << 20, rounds: 18, yard: yardLoopback,
		flush: "nothing is flushed: coordinator journal and manifest in memory (cluster.Options.Dir empty), node media in memory",
	},
}

// smokeScale returns the workload shrunk for -smoke: the same stack and
// script on a geometry small enough that all four finish in seconds.
func (w workload) smokeScale() *workload {
	switch w.Name {
	case "object-1m":
		w.cycles, w.objects = 2, 4
	case "strip-4k":
		w.cycles = 4
	case "strip-64k-v25":
		w.stripBytes, w.unitBytes = 4<<10, 4<<10
	}
	w.rounds, w.rebuildFloor = 3, 0
	return &w
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// The phase script measures ten numbers a user of the array sees. The
// issue that defined the benchmark fixed their regression bounds at 0.10
// (0.05 for memory) and ruled that a number which does not repeat within
// its bound is not given a wider one: it leaves the gated end-to-end list
// and is reported, ungated, with the per-layer metrics. BASELINE.md has the
// measurements the split below rests on. setup_s is the exception the
// driver's contract makes: it must be an end-to-end metric whatever its
// spread, with the largest bound.
//
// endToEnd is the gated list; every workload reports all of it from the
// untraced run.
var endToEnd = []metric{
	{"setup_s", "s", lower, 0.25, "build the stack and write every strip/object once (median of the set-ups of one run)"},
	{"mem_peak_mb", "MiB", lower, 0.05, "VmHWM of the benchmark process: median over the measured laps, the mark reset at each lap's start"},
}

// demoted is the rest of the script's numbers. On the shared reference box
// none of them repeats within 0.10: between two sets of ten runs of the
// same code some workload's medians differ by about a tenth, and single
// runs lie up to a quarter from their set's median, even after every time
// is referred to the yardstick (as measured the spread is twice that). The
// traced run reports them, from the script run on a stack without
// interposers for half of the run's time.
var demoted = []metric{
	{"write_mbps", "MB/s", higher, 0, "P1: one client, uniform-random overwrites (small-write RMW on strips, whole-stripe extents on objects)"},
	{"read_mbps", "MB/s", higher, 0, "P2: one client, uniform-random healthy reads"},
	{"mixed_mbps", "MB/s", higher, 0, "P3: two clients in parallel on disjoint halves, 70% reads / 30% writes: a write gain bought with reader contention shows here"},
	{"degraded_read_mbps", "MB/s", higher, 0, "P4: disk 0 failed, reads aimed at its data: single-stripe reconstruction"},
	{"rebuild_mbps", "MB/s", higher, 0, "P5: fail, replace, rebuild to completion, rotating disks: rebuilt bytes over wall time, the paper's headline"},
	{"deep_read_mbps", "MB/s", higher, 0, "P6: pinned 3-disk set failed, reads aimed at its data: multi-phase reconstruction"},
	{"write_p50_ms", "ms", lower, 0, "median latency of the P1 writes"},
	{"read_p50_ms", "ms", lower, 0, "median latency of the P2 reads"},
}

// perLayer is what the traced run reports: the script's ungated numbers,
// then the ladder's.
var perLayer = append(append([]metric(nil), demoted...), ladder...)

// ladder lists the numbers of the traced half of the traced run, bottom
// layer first. Times are ladder differences (a layer's op time minus the
// layer below); counts come from a fixed, seed-independent op list so they
// repeat exactly.
var ladder = []metric{
	{"gf.xor_mbps", "MB/s", higher, 0, "gf.XorSlice at the workload's strip size"},
	{"gf.muladd_mbps", "MB/s", higher, 0, "gf.MulAddSlice256 at the workload's strip size"},
	{"erasure.encode_mbps", "MB/s", higher, 0, "inner-stripe parity encode, data bytes per second"},
	{"erasure.reconstruct_mbps", "MB/s", higher, 0, "inner-stripe single-shard reconstruct, data bytes per second"},
	{"erasure.reconstruct_allocs_per_op", "count", lower, 0, "heap allocations of one reconstruct incl. AllocShards"},
	{"core.plan_us", "us", lower, 0, "Analyzer.Plan for the pinned deep set"},
	{"core.decode_path_ns", "ns", lower, 0, "Analyzer.DecodePath for a strip on disk 0 with disk 0 failed"},
	{"store.write_us", "us", lower, 0, "Array.ConcurrentWriteAt of one op's bytes, the call the engine makes"},
	{"store.read_us", "us", lower, 0, "Array.ReadAt of one op's bytes, healthy"},
	{"store.degraded_read_us", "us", lower, 0, "Array.ReadAt with disk 0 failed"},
	{"store.deep_read_us", "us", lower, 0, "Array.ReadAt with the deep set failed"},
	{"store.rebuild_mbps", "MB/s", higher, 0, "engine-driven rebuild of one disk under the device interposer"},
	{"store.write_allocs_per_op", "count", lower, 0, "heap allocations per Array.ConcurrentWriteAt"},
	{"store.deep_read_allocs_per_op", "count", lower, 0, "heap allocations per deep Array.ReadAt"},
	{"store.dev_reads_per_write", "count", lower, 0, "device strip reads per strip written"},
	{"store.dev_writes_per_write", "count", lower, 0, "device strip writes per strip written"},
	{"store.dev_reads_per_degraded_read", "count", lower, 0, "device strip reads per strip read with disk 0 failed"},
	{"store.dev_reads_per_deep_read", "count", lower, 0, "device strip reads per strip read with the deep set failed"},
	{"store.dev_reads_per_rebuilt_strip", "count", lower, 0, "device strip reads per strip rebuilt"},
	{"store.device_time_frac", "frac", lower, 0, "share of the array's write time spent inside devices"},
	{"engine.write_self_us", "us", lower, 0, "engine write minus the array's write: locks, admission, fan-out"},
	{"engine.read_self_us", "us", lower, 0, "engine read minus Array.ReadAt"},
	{"engine.write_allocs_per_op", "count", lower, 0, "heap allocations per engine write"},
	{"object.put_self_us", "us", lower, 0, "PutObject minus the engine write of the same bytes (0 without an object plane)"},
	{"object.get_self_us", "us", lower, 0, "GetObject minus the engine read of the same bytes"},
	{"object.put_allocs_per_op", "count", lower, 0, "heap allocations per PutObject"},
	{"object.get_allocs_per_op", "count", lower, 0, "heap allocations per GetObject"},
	{"object.dev_writes_per_put", "count", lower, 0, "device strip writes per PutObject"},
	{"server.handler_self_us", "us", lower, 0, "in-process handler PUT+GET minus the object calls (0 without a server)"},
	{"server.client_self_us", "us", lower, 0, "loopback client PUT+GET minus the in-process handler"},
	{"netdev.read_rtt_us", "us", lower, 0, "mean round trip of a strip-read RPC (0 without a wire)"},
	{"netdev.write_rtt_us", "us", lower, 0, "mean round trip of a strip-write RPC"},
	{"netdev.rpcs_per_write", "count", lower, 0, "RPCs one coordinator strip write issues"},
	{"netdev.rpcs_per_read", "count", lower, 0, "RPCs one coordinator strip read issues"},
	{"cluster.wire_time_frac", "frac", lower, 0, "share of coordinator write time spent inside the transport"},
	{"cluster.local_us_per_write", "us", lower, 0, "coordinator write time outside the transport: journal records and CPU"},
	{"machine.ref_ms", "ms", lower, 0, "median time of the bench-owned yardstick during the ladder, as measured; every other time but the tails is referred to its nominal speed"},
	{"tail.write_p99_ms", "ms", lower, 0, "p99 of the top-level writes, as measured; scheduler noise on a shared box"},
	{"tail.read_p99_ms", "ms", lower, 0, "p99 of the top-level reads, as measured"},
	{"trace.overhead_frac", "frac", lower, 0, "top-rung write+read time with the interposers recording over the same with them idle, minus 1 (alternating rounds)"},
}
