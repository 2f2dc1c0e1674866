// Command oiraidd serves an OI-RAID array over HTTP: the concurrency
// engine (internal/engine) fronted by the strip API (internal/server).
//
// Usage:
//
//	oiraidd -addr :7979 -disks 9 -cycles 4 -strip 4096           # memory-backed
//	oiraidd -addr :7979 -disks 9 -cycles 4 -strip 4096 -dir a    # file-backed
//
// With -dir the daemon persists one device image per disk under the
// directory, reopening existing images on restart; without it the array
// lives in memory and vanishes on exit. The process shuts down
// gracefully on SIGINT/SIGTERM: in-flight requests complete, a running
// rebuild finishes its current batch, and the engine drains.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"os/signal"
	"syscall"
	"time"

	"github.com/oiraid/oiraid"
	"github.com/oiraid/oiraid/internal/engine"
	"github.com/oiraid/oiraid/internal/object"
	"github.com/oiraid/oiraid/internal/server"
	"github.com/oiraid/oiraid/internal/store"
)

type config struct {
	addr     string
	disks    int
	cycles   int64
	strip    int
	dir      string
	workers  int
	batch    int64
	timeout  time.Duration
	degraded string // beyond-tolerance policy: "", "refuse", "read-only", "partial"

	// Self-healing knobs.
	retries    int           // per-device retry attempts for transient errors (0: no retry layer)
	evictAfter int64         // hard errors before auto-eviction (0: no auto-heal)
	spares     int           // hot spares registered at boot
	slowOp     time.Duration // latency above which an op counts as slow (0: off)

	// Tail-tolerance knobs (see engine.HealthPolicy).
	hedgeMult    float64       // hedge timer as a multiple of per-disk p99 (0: hedging off)
	hedgeFloor   time.Duration // hedge timer lower bound (0: 1ms default)
	hedgeCeil    time.Duration // hedge timer upper bound (0: 50ms default)
	quarSlowFrac float64       // slow-op fraction EWMA that quarantines a disk (0: off)
	quarProbe    time.Duration // recovery probe interval for quarantined disks
	quarEscalate int64         // quarantine cycles before escalating to eviction

	// QoS knobs (see engine.QoSConfig).
	opTimeout     time.Duration // per-op engine deadline (0: bounded only by -timeout)
	admitDepth    int           // admission queue depth (0: no admission control)
	admitWait     time.Duration // admission wait budget before shedding with 429
	rebuildRate   float64       // rebuild batches/sec when idle (0: unpaced)
	minRate       float64       // pacing floor under load (0: rebuildRate/10)
	scrubRate     float64       // background scrub layout cycles/sec when idle (0: scrubber off)
	latencyTarget time.Duration // foreground-latency EWMA target (0: no adaptation)
}

// buildServer assembles geometry → array → engine → server from flags.
// Split from main so the end-to-end test can boot the identical stack on
// a loopback listener.
func buildServer(cfg config) (*server.Server, error) {
	g, err := oiraid.NewGeometry(cfg.disks)
	if err != nil {
		return nil, err
	}
	if _, err := oiraid.ParseDegradedPolicy(cfg.degraded); err != nil {
		return nil, err
	}
	var arr *oiraid.Array
	// engineOpts (shared with the cluster coordinator) covers health and
	// QoS; the local-device path adds the retry layer on top.
	opts := engineOpts(cfg)
	if cfg.retries > 0 {
		opts.Retry = &store.RetryPolicy{MaxAttempts: cfg.retries}
	}
	if cfg.dir != "" {
		mnt, err := openDurableArray(g, cfg)
		if err != nil {
			return nil, err
		}
		// Replacement disks for rebuilds are fresh image files, not the
		// engine's default in-memory devices.
		arr, opts.Replace = mnt.Array, mnt.Replace
	} else {
		arr, err = oiraid.NewMemArray(g, cfg.cycles, cfg.strip)
		if err != nil {
			return nil, err
		}
	}
	eng, err := engine.New(arr, opts)
	if err != nil {
		return nil, err
	}
	if cfg.spares > 0 {
		// Spares materialise through opts.Replace, so with -dir they land
		// as image files a restart can reopen.
		eng.AddSpares(cfg.spares)
	}
	// The bucket/object plane mounts over the engine: with -dir its
	// metadata rides the array's durable journal (buckets and objects
	// survive restarts); memory-backed arrays get a volatile journal.
	objs, err := object.New(eng, object.Options{})
	if err != nil {
		eng.Close()
		return nil, fmt.Errorf("object plane: %w", err)
	}
	return server.New(eng, server.Options{
		RequestTimeout: cfg.timeout,
		OpTimeout:      cfg.opTimeout,
		Objects:        objs,
	}), nil
}

// openDurableArray boots the array from the image directory with the
// durable metadata plane.
//
// Superblocks present: the on-media geometry is authoritative (flags
// merely warn when they differ) and the array is mounted — foreign,
// stale, or missing disks are failed, the metadata journal is replayed,
// and an unmountable array refuses to serve rather than serving
// silently-corrupt state. Nothing there: a fresh array is created and
// formatted. Images without a loadable superblock are refused and left
// untouched.
func openDurableArray(g *oiraid.Geometry, cfg config) (*oiraid.Mount, error) {
	pol, err := oiraid.ParseDegradedPolicy(cfg.degraded)
	if err != nil {
		return nil, err
	}
	var mos []oiraid.MountOption
	if cfg.degraded != "" {
		mos = append(mos, oiraid.WithMountDegradedPolicy(pol))
	}
	mnt, _, err := oiraid.MountDir(cfg.dir, mos...)
	if errors.Is(err, store.ErrNoSuperblock) {
		mnt, err = oiraid.FormatDir(g, cfg.dir, cfg.cycles, cfg.strip, oiraid.WithDegradedPolicy(pol))
		if err != nil {
			return nil, fmt.Errorf("no loadable superblock in %s; format: %w", cfg.dir, err)
		}
		log.Printf("oiraidd: formatted array %s (degraded policy %q)", mnt.Meta.UUIDString(), pol)
		return mnt, nil
	}
	if err != nil {
		return nil, fmt.Errorf("mount %s: %w", cfg.dir, err)
	}
	if sb := mnt.Super; sb.Disks != cfg.disks || sb.Cycles != cfg.cycles || sb.StripBytes != cfg.strip {
		log.Printf("oiraidd: flags say %d disks × %d cycles × %dB strips, superblock says %d × %d × %dB; using the superblock",
			cfg.disks, cfg.cycles, cfg.strip, sb.Disks, sb.Cycles, sb.StripBytes)
	}
	if len(mnt.Blank) > 0 {
		log.Printf("oiraidd: images of disks %v unusable; attached blank devices", mnt.Blank)
	}
	log.Printf("oiraidd: mounted array %s epoch %d (clean=%v, failed=%v, newly detected=%v, closures replayed=%d)",
		mnt.Meta.UUIDString(), mnt.Meta.Epoch(), mnt.WasClean, mnt.Failed, mnt.Detected, mnt.Replayed)
	if mnt.ReadOnly {
		log.Printf("oiraidd: array is beyond tolerance (%s); serving degraded under policy %q",
			mnt.Availability.Describe(), cfg.degraded)
	}
	return mnt, nil
}

func main() {
	var cfg config
	flag.StringVar(&cfg.addr, "addr", "127.0.0.1:7979", "listen address")
	flag.IntVar(&cfg.disks, "disks", 9, "number of disks")
	flag.Int64Var(&cfg.cycles, "cycles", 4, "layout cycles per disk")
	flag.IntVar(&cfg.strip, "strip", 4096, "strip size in bytes")
	flag.StringVar(&cfg.dir, "dir", "", "device-image directory (empty: memory-backed)")
	flag.IntVar(&cfg.workers, "workers", 0, "I/O pool size (0: engine default)")
	flag.Int64Var(&cfg.batch, "rebuild-batch", 1, "layout cycles per rebuild grant, each rebuilt under its own cycle lock")
	flag.DurationVar(&cfg.timeout, "timeout", 30*time.Second, "per-request timeout")
	flag.StringVar(&cfg.degraded, "degraded-policy", "", "beyond-tolerance serving policy: refuse, read-only, or partial (empty: refuse / superblock's word)")
	flag.IntVar(&cfg.retries, "retry", 4, "device retry attempts for transient errors (0: disable)")
	flag.Int64Var(&cfg.evictAfter, "evict-after", 3, "hard device errors before auto-eviction (0: disable auto-heal)")
	flag.IntVar(&cfg.spares, "spares", 0, "hot spares to register at boot")
	flag.DurationVar(&cfg.slowOp, "slow-op", 0, "latency above which a device op counts as slow (0: off)")
	flag.Float64Var(&cfg.hedgeMult, "hedge-mult", 0, "hedge reads at this multiple of per-disk p99 latency (0: off)")
	flag.DurationVar(&cfg.hedgeFloor, "hedge-floor", 0, "hedge timer lower bound (0: 1ms default)")
	flag.DurationVar(&cfg.hedgeCeil, "hedge-ceil", 0, "hedge timer upper bound (0: 50ms default)")
	flag.Float64Var(&cfg.quarSlowFrac, "quarantine-slow-frac", 0, "slow-op fraction that quarantines a disk; needs -slow-op (0: off)")
	flag.DurationVar(&cfg.quarProbe, "quarantine-probe", 0, "recovery probe interval for quarantined disks (0: 250ms default)")
	flag.Int64Var(&cfg.quarEscalate, "quarantine-escalate", 0, "quarantine cycles before escalating to eviction (0: 3 default)")
	flag.DurationVar(&cfg.opTimeout, "op-timeout", 0, "per-operation engine deadline, 504 when exceeded (0: off)")
	flag.IntVar(&cfg.admitDepth, "admit-depth", 0, "admission queue depth, full queue sheds with 429 (0: off)")
	flag.DurationVar(&cfg.admitWait, "admit-wait", 0, "admission wait budget before shedding (0: 50ms default)")
	flag.Float64Var(&cfg.rebuildRate, "rebuild-rate", 0, "rebuild batches/sec when idle (0: unpaced)")
	flag.Float64Var(&cfg.minRate, "min-rebuild-rate", 0, "rebuild pacing floor under load (0: rebuild-rate/10)")
	flag.Float64Var(&cfg.scrubRate, "scrub-rate", 0, "background scrub layout cycles/sec when idle (0: scrubber off)")
	flag.DurationVar(&cfg.latencyTarget, "latency-target", 0, "foreground-latency target driving adaptive pacing (0: off)")
	var ccfg clusterConfig
	flag.BoolVar(&ccfg.node, "node", false, "run as a storage node exporting local blobs (cluster mode)")
	flag.StringVar(&ccfg.nodeID, "node-id", "node0", "storage node identity, verified by the coordinator")
	flag.StringVar(&ccfg.nodes, "nodes", "", "coordinator mode: comma-separated id=url storage nodes")
	flag.DurationVar(&ccfg.grace, "grace", 15*time.Second, "window before an unreachable node counts as lost (heal engages)")
	flag.DurationVar(&ccfg.netTimeout, "net-timeout", 5*time.Second, "per-attempt deadline for storage-node operations")
	flag.StringVar(&ccfg.coordID, "coord-id", "", "HA coordinator identity: replicate metadata to a node quorum under a fenced lease (empty: classic coordinator)")
	flag.BoolVar(&ccfg.standby, "standby", false, "run as a standby coordinator: watch the lease, take over when the leader dies (needs -coord-id and -nodes)")
	flag.DurationVar(&ccfg.leaseRenew, "lease-renew", 250*time.Millisecond, "lease renewal interval (leader) and heartbeat poll interval (standby)")
	flag.DurationVar(&ccfg.failoverAfter, "failover-after", 2*time.Second, "heartbeat silence before a standby takes over")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	var err error
	switch {
	case ccfg.node && ccfg.nodes != "":
		err = fmt.Errorf("-node and -nodes are mutually exclusive")
	case ccfg.standby && ccfg.nodes == "":
		err = fmt.Errorf("-standby requires -nodes")
	case ccfg.standby && ccfg.coordID == "":
		err = fmt.Errorf("-standby requires -coord-id")
	case ccfg.node:
		err = runNode(ctx, cfg, ccfg)
	case ccfg.standby:
		err = runStandby(ctx, cfg, ccfg)
	case ccfg.nodes != "":
		err = runCoordinator(ctx, cfg, ccfg)
	default:
		err = run(ctx, cfg)
	}
	if err != nil {
		log.Fatalf("oiraidd: %v", err)
	}
}

func run(ctx context.Context, cfg config) error {
	srv, err := buildServer(cfg)
	if err != nil {
		return err
	}
	return serve(ctx, cfg.addr, srv, fmt.Sprintf("serving %d disks", cfg.disks))
}

// stack is what a mode serves: *http.Server and *server.Server both are
// one.
type stack interface {
	Serve(net.Listener) error
	Shutdown(context.Context) error
}

// serve is the daemon's one serve path: it listens on addr and serves srv
// until ctx ends (a signal) or serving fails. Every exit — a failed listen
// included — then shuts srv down, draining in-flight requests for up to a
// minute, and runs closers, so no mode leaves the stack it built unsealed.
// banner names what is served in the log.
func serve(ctx context.Context, addr string, srv stack, banner string, closers ...func() error) error {
	l, err := net.Listen("tcp", addr)
	if err == nil {
		log.Printf("oiraidd: %s on http://%s", banner, l.Addr())
		errc := make(chan error, 1)
		go func() { errc <- srv.Serve(l) }()
		select {
		case err = <-errc:
		case <-ctx.Done():
			log.Printf("oiraidd: shutting down")
		}
	}
	sctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	errs := []error{err, srv.Shutdown(sctx)}
	for _, c := range closers {
		errs = append(errs, c())
	}
	return errors.Join(errs...)
}
