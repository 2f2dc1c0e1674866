// Cluster modes of oiraidd: the same binary runs either half of a
// multi-node OI-RAID deployment.
//
// Storage node — exports local blobs as strip devices over HTTP:
//
//	oiraidd -node -node-id alpha -addr :7980 -dir /data/alpha
//
// Coordinator — mounts the array across storage nodes and serves the
// strip/object API over it:
//
//	oiraidd -nodes alpha=http://h1:7980,beta=http://h2:7980,gamma=http://h3:7980 \
//	        -dir /data/coord -disks 9 -cycles 4 -strip 4096
//
// The coordinator distinguishes a node that is *unreachable* (transient:
// operations retry, reads degrade to reconstruction) from one that is
// *lost* (the -grace window elapsed: its disks are evicted and rebuilt
// onto the surviving nodes). See DESIGN.md §13.
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net/http"
	"os"
	"strings"
	"time"

	"github.com/oiraid/oiraid/internal/cluster"
	"github.com/oiraid/oiraid/internal/engine"
	"github.com/oiraid/oiraid/internal/object"
	"github.com/oiraid/oiraid/internal/server"
	"github.com/oiraid/oiraid/internal/store"
	"github.com/oiraid/oiraid/internal/store/netdev"
)

// clusterConfig holds the flags specific to the two cluster modes.
type clusterConfig struct {
	node       bool          // run as a storage node
	nodeID     string        // this node's identity (verified by clients)
	nodes      string        // coordinator: "id=url,id=url,..."
	grace      time.Duration // unreachable → lost promotion window
	netTimeout time.Duration // per-attempt deadline for node operations

	// HA coordinator knobs (see DESIGN.md §14).
	coordID       string        // HA identity; empty runs the classic un-replicated coordinator
	standby       bool          // watch the lease and take over when the leader dies
	leaseRenew    time.Duration // lease renewal / standby poll interval
	failoverAfter time.Duration // heartbeat stall that triggers takeover
}

// parseNodeSpecs parses the -nodes flag ("id=url,id=url,...").
func parseNodeSpecs(s string) ([]cluster.NodeSpec, error) {
	var specs []cluster.NodeSpec
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, url, ok := strings.Cut(part, "=")
		if !ok || id == "" || url == "" {
			return nil, fmt.Errorf("bad node spec %q (want id=url)", part)
		}
		specs = append(specs, cluster.NodeSpec{ID: id, URL: url})
	}
	if len(specs) == 0 {
		return nil, errors.New("no node specs in -nodes")
	}
	return specs, nil
}

// buildNode assembles a storage node from flags: dir-backed when -dir is
// set (blobs persist and reopen across restarts), memory-backed otherwise.
func buildNode(cfg config, ccfg clusterConfig) (*netdev.Node, error) {
	if cfg.dir != "" {
		return netdev.NewDirNode(ccfg.nodeID, cfg.dir)
	}
	return netdev.NewMemNode(ccfg.nodeID), nil
}

// runNode serves a storage node until ctx ends.
func runNode(ctx context.Context, cfg config, ccfg clusterConfig) error {
	n, err := buildNode(cfg, ccfg)
	if err != nil {
		return err
	}
	hs := &http.Server{
		Handler:           n.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	return serve(ctx, cfg.addr, hs, fmt.Sprintf("storage node %q serving", ccfg.nodeID), n.Close)
}

// coordinatorOptions derives the cluster options shared by the leader
// and standby coordinator modes.
func coordinatorOptions(cfg config, ccfg clusterConfig) (cluster.Options, error) {
	specs, err := parseNodeSpecs(ccfg.nodes)
	if err != nil {
		return cluster.Options{}, err
	}
	if cfg.dir != "" {
		if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
			return cluster.Options{}, err
		}
	}
	pol, err := store.ParseDegradedPolicy(cfg.degraded)
	if err != nil {
		return cluster.Options{}, err
	}
	return cluster.Options{
		Dir:   cfg.dir,
		Nodes: specs,
		Client: netdev.Options{
			Timeout:     ccfg.netTimeout,
			MaxAttempts: cfg.retries,
			Grace:       ccfg.grace,
		},
		Engine:     engineOpts(cfg),
		Format:     &cluster.FormatSpec{Disks: cfg.disks, Cycles: cfg.cycles, StripBytes: cfg.strip, Degraded: pol},
		Holder:     ccfg.coordID,
		LeaseRenew: ccfg.leaseRenew,
	}, nil
}

// assembleClusterServer fronts a mounted cluster with the strip/object
// API.
func assembleClusterServer(cfg config, c *cluster.Cluster) (*server.Server, error) {
	objs, err := object.New(c.Eng, object.Options{})
	if err != nil {
		c.Close()
		return nil, fmt.Errorf("object plane: %w", err)
	}
	return server.New(c.Eng, server.Options{
		RequestTimeout: cfg.timeout,
		OpTimeout:      cfg.opTimeout,
		Objects:        objs,
		Membership:     c,
	}), nil
}

// buildClusterServer assembles coordinator mode: cluster mount → engine →
// strip/object API. Split from runCoordinator so the end-to-end test can
// boot the identical stack on a loopback listener.
func buildClusterServer(cfg config, ccfg clusterConfig) (*server.Server, *cluster.Cluster, error) {
	copts, err := coordinatorOptions(cfg, ccfg)
	if err != nil {
		return nil, nil, err
	}
	c, err := cluster.Open(copts)
	if err != nil {
		return nil, nil, err
	}
	srv, err := assembleClusterServer(cfg, c)
	if err != nil {
		return nil, nil, err
	}
	return srv, c, nil
}

// engineOpts derives engine options from the shared flag set. It leaves
// Retry unset: the single-process path adds a device retry layer on top,
// while the coordinator relies on the NetDevice's own wire retries
// (netdev.Options.MaxAttempts) — stacking both would multiply attempts.
func engineOpts(cfg config) engine.Options {
	opts := engine.Options{Workers: cfg.workers}
	if cfg.evictAfter > 0 || cfg.hedgeMult > 0 || cfg.quarSlowFrac > 0 {
		opts.Health = &engine.HealthPolicy{
			EvictAfter: cfg.evictAfter,
			SlowOp:     cfg.slowOp,

			HedgeMultiple: cfg.hedgeMult,
			HedgeFloor:    cfg.hedgeFloor,
			HedgeCeiling:  cfg.hedgeCeil,

			QuarantineSlowFrac: cfg.quarSlowFrac,
			QuarantineProbe:    cfg.quarProbe,
			QuarantineEscalate: cfg.quarEscalate,
		}
	}
	// A zero QoSConfig is no QoS; -rebuild-batch is the scheduler's batch.
	opts.QoS = &engine.QoSConfig{
		AdmitDepth:     cfg.admitDepth,
		AdmitWait:      cfg.admitWait,
		RebuildRate:    cfg.rebuildRate,
		MinRebuildRate: cfg.minRate,
		RebuildBatch:   cfg.batch,
		ScrubRate:      cfg.scrubRate,
		LatencyTarget:  cfg.latencyTarget,
	}
	return opts
}

// runCoordinator serves the cluster array until ctx ends.
func runCoordinator(ctx context.Context, cfg config, ccfg clusterConfig) error {
	srv, c, err := buildClusterServer(cfg, ccfg)
	if err != nil {
		return err
	}
	m := c.ManifestSnapshot()
	banner := fmt.Sprintf("coordinator serving %d disks across %d nodes", len(m.Disks), len(m.Nodes))
	if ccfg.coordID != "" {
		banner = fmt.Sprintf("coordinator %q (epoch %d) serving %d disks across %d nodes",
			ccfg.coordID, c.Epoch(), len(m.Disks), len(m.Nodes))
	}
	return serve(ctx, cfg.addr, srv, banner, c.Close)
}

// runStandby watches the cluster's lease heartbeat and becomes the
// coordinator when the leader dies: fenced takeover at a higher epoch,
// metadata reassembled from the node quorum, then the same API surface
// as a primary coordinator.
func runStandby(ctx context.Context, cfg config, ccfg clusterConfig) error {
	copts, err := coordinatorOptions(cfg, ccfg)
	if err != nil {
		return err
	}
	// A standby never formats: it only ever takes over an array that a
	// leader has already established on the quorum — otherwise a
	// never-started cluster would be "taken over" into a fresh format.
	copts.Format = nil

	log.Printf("oiraidd: standby %q watching the lease (takeover after %v of heartbeat silence)",
		ccfg.coordID, ccfg.failoverAfter)
	c, err := cluster.Standby(ctx, copts, cluster.StandbyOptions{
		Poll:          ccfg.leaseRenew,
		FailoverAfter: ccfg.failoverAfter,
	})
	if err != nil {
		if errors.Is(err, context.Canceled) {
			log.Printf("oiraidd: standby %q shutting down without taking over", ccfg.coordID)
			return nil
		}
		return err
	}
	srv, err := assembleClusterServer(cfg, c)
	if err != nil {
		return err
	}
	banner := fmt.Sprintf("standby %q took over at epoch %d, serving", ccfg.coordID, c.Epoch())
	return serve(ctx, cfg.addr, srv, banner, c.Close)
}
