package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"testing"
	"time"

	"github.com/oiraid/oiraid"
	"github.com/oiraid/oiraid/internal/cluster"
	"github.com/oiraid/oiraid/internal/server"
	"github.com/oiraid/oiraid/internal/store"
	"github.com/oiraid/oiraid/internal/store/netdev"
)

// bootStorageNode starts one storage-node half of the binary on a
// loopback port and returns its URL plus a hard-stop func (simulating a
// node crash: connections drop, nothing is drained).
func bootStorageNode(t *testing.T, id, dir string) (url string, kill func()) {
	t.Helper()
	n, err := buildNode(config{dir: dir}, clusterConfig{nodeID: id})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: n.Handler()}
	go hs.Serve(l)
	killed := false
	kill = func() {
		if killed {
			return
		}
		killed = true
		hs.Close()
		n.Close()
	}
	t.Cleanup(kill)
	return "http://" + l.Addr().String(), kill
}

// TestClusterEndToEnd boots three storage nodes and a coordinator — the
// exact stacks the -node and -nodes flags assemble — and drives writes,
// a node kill, degraded reads, and a clean shutdown through the public
// HTTP API.
func TestClusterEndToEnd(t *testing.T) {
	const strip = 512
	specs := ""
	var kills []func()
	for i, id := range []string{"alpha", "beta", "gamma"} {
		url, kill := bootStorageNode(t, id, t.TempDir())
		if i > 0 {
			specs += ","
		}
		specs += fmt.Sprintf("%s=%s", id, url)
		kills = append(kills, kill)
	}

	cfg := config{
		disks: 9, cycles: 2, strip: strip, dir: t.TempDir(),
		batch: 1, timeout: 10 * time.Second, retries: 3,
		evictAfter: 3,
	}
	ccfg := clusterConfig{
		nodes:      specs,
		grace:      30 * time.Second, // transient-only in this test: no heal
		netTimeout: 2 * time.Second,
	}
	srv, _, err := buildClusterServer(cfg, ccfg)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(l) }()
	shutdown := func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			return err
		}
		if err := <-errc; err != http.ErrServerClosed {
			return err
		}
		return nil
	}

	c := server.NewClient("http://" + l.Addr().String())
	st, err := c.StatusCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Disks != 9 || st.StripBytes != strip {
		t.Fatalf("cluster status geometry: %+v", st)
	}

	rng := rand.New(rand.NewSource(99))
	want := make(map[int64][]byte)
	for addr := int64(0); addr < st.Strips; addr += 3 {
		p := make([]byte, strip)
		rng.Read(p)
		if err := c.PutStripCtx(context.Background(), addr, p); err != nil {
			t.Fatalf("put strip %d: %v", addr, err)
		}
		want[addr] = p
	}

	// Kill one storage node outright. Its three disks become unreachable
	// (transient under the long grace window), and every read must still
	// succeed via degraded reconstruction across the survivors.
	kills[2]()
	deadline := time.Now().Add(10 * time.Second)
	for addr, p := range want {
		var got []byte
		var err error
		for {
			got, err = c.GetStripCtx(context.Background(), addr)
			if err == nil || time.Now().After(deadline) {
				break
			}
			time.Sleep(50 * time.Millisecond)
		}
		if err != nil {
			t.Fatalf("degraded get %d: %v", addr, err)
		}
		if !bytes.Equal(got, p) {
			t.Fatalf("degraded strip %d differs", addr)
		}
	}

	// Shutdown commits a clean-shutdown superblock epoch across the
	// disks; with a node dead that commit is necessarily partial, and the
	// unreachable error it surfaces is the designed outcome (the next
	// mount sees an unclean shutdown and replays). Anything else is a bug.
	if err := shutdown(); err != nil && !store.IsTransient(err) {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestClusterStandbyTakeover drives the HA pair the -coord-id/-standby
// flags assemble: a leader coordinator serving writes, a standby
// watching the lease, leader death, and the standby taking over at a
// higher epoch with every acked strip intact — all through the public
// HTTP API, against the same storage nodes.
func TestClusterStandbyTakeover(t *testing.T) {
	const strip = 512
	specs := ""
	for i, id := range []string{"alpha", "beta", "gamma"} {
		url, _ := bootStorageNode(t, id, t.TempDir())
		if i > 0 {
			specs += ","
		}
		specs += fmt.Sprintf("%s=%s", id, url)
	}
	baseCfg := config{
		disks: 9, cycles: 2, strip: strip,
		batch: 1, timeout: 10 * time.Second, retries: 3,
	}
	baseCcfg := clusterConfig{
		nodes:      specs,
		grace:      30 * time.Second,
		netTimeout: 2 * time.Second,
		leaseRenew: 25 * time.Millisecond,
	}

	// Leader: the stack `oiraidd -nodes ... -coord-id coord-a` builds.
	cfgA, ccfgA := baseCfg, baseCcfg
	cfgA.dir = t.TempDir()
	ccfgA.coordID = "coord-a"
	srvA, cA, err := buildClusterServer(cfgA, ccfgA)
	if err != nil {
		t.Fatal(err)
	}
	lA, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	errcA := make(chan error, 1)
	go func() { errcA <- srvA.Serve(lA) }()

	cl := server.NewClient("http://" + lA.Addr().String())
	st, err := cl.StatusCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(41))
	want := make(map[int64][]byte)
	for addr := int64(0); addr < st.Strips; addr += 5 {
		p := make([]byte, strip)
		rng.Read(p)
		if err := cl.PutStripCtx(context.Background(), addr, p); err != nil {
			t.Fatalf("put strip %d: %v", addr, err)
		}
		want[addr] = p
	}

	// Standby: the stack `oiraidd -standby -coord-id coord-b` builds —
	// coordinatorOptions minus the format spec, then cluster.Standby.
	cfgB, ccfgB := baseCfg, baseCcfg
	cfgB.dir = t.TempDir()
	ccfgB.coordID = "coord-b"
	coptsB, err := coordinatorOptions(cfgB, ccfgB)
	if err != nil {
		t.Fatal(err)
	}
	coptsB.Format = nil
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	type takeover struct {
		c   *cluster.Cluster
		err error
	}
	tookOver := make(chan takeover, 1)
	go func() {
		c, err := cluster.Standby(ctx, coptsB, cluster.StandbyOptions{
			Poll:          20 * time.Millisecond,
			FailoverAfter: 300 * time.Millisecond,
		})
		tookOver <- takeover{c, err}
	}()

	// Kill the leader: stop serving and tear the coordinator down (its
	// renewal loop dies with it, as it would with the process).
	sctx, scancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer scancel()
	if err := srvA.Shutdown(sctx); err != nil {
		t.Fatalf("leader shutdown: %v", err)
	}
	if err := <-errcA; err != http.ErrServerClosed {
		t.Fatalf("leader serve: %v", err)
	}
	cA.Close()

	to := <-tookOver
	if to.err != nil {
		t.Fatalf("standby takeover: %v", to.err)
	}
	cB := to.c
	if cB.Epoch() < 2 {
		t.Fatalf("successor epoch %d, want ≥ 2 (above the leader's)", cB.Epoch())
	}

	// The successor fronts the same API surface; every strip the leader
	// acked reads back bit-identical, and new writes land.
	srvB, err := assembleClusterServer(cfgB, cB)
	if err != nil {
		t.Fatal(err)
	}
	lB, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	errcB := make(chan error, 1)
	go func() { errcB <- srvB.Serve(lB) }()
	clB := server.NewClient("http://" + lB.Addr().String())
	for addr, p := range want {
		got, err := clB.GetStripCtx(context.Background(), addr)
		if err != nil {
			t.Fatalf("get strip %d after takeover: %v", addr, err)
		}
		if !bytes.Equal(got, p) {
			t.Fatalf("strip %d differs after takeover", addr)
		}
	}
	p := make([]byte, strip)
	rng.Read(p)
	if err := clB.PutStripCtx(context.Background(), 1, p); err != nil {
		t.Fatalf("write through successor: %v", err)
	}
	sctxB, scancelB := context.WithTimeout(context.Background(), 30*time.Second)
	defer scancelB()
	if err := srvB.Shutdown(sctxB); err != nil {
		t.Fatalf("successor shutdown: %v", err)
	}
	if err := <-errcB; err != http.ErrServerClosed {
		t.Fatalf("successor serve: %v", err)
	}
}

// TestStandbyShutdownBeforeTakeover pins the clean-exit path of
// runStandby: a standby interrupted while the leader is healthy stops
// without taking over and without error.
func TestStandbyShutdownBeforeTakeover(t *testing.T) {
	specs := ""
	for i, id := range []string{"alpha", "beta", "gamma"} {
		url, _ := bootStorageNode(t, id, t.TempDir())
		if i > 0 {
			specs += ","
		}
		specs += fmt.Sprintf("%s=%s", id, url)
	}
	cfg := config{disks: 9, cycles: 2, strip: 512, dir: t.TempDir(),
		batch: 1, timeout: 5 * time.Second, retries: 2}
	ccfg := clusterConfig{nodes: specs, grace: 30 * time.Second,
		netTimeout: time.Second, coordID: "coord-b", leaseRenew: 20 * time.Millisecond}
	copts, err := coordinatorOptions(cfg, ccfg)
	if err != nil {
		t.Fatal(err)
	}
	copts.Format = nil
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(150 * time.Millisecond)
		cancel()
	}()
	_, err = cluster.Standby(ctx, copts, cluster.StandbyOptions{
		Poll: 20 * time.Millisecond, FailoverAfter: time.Hour,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted standby: %v, want context.Canceled", err)
	}
}

// TestParseNodeSpecs pins the -nodes flag grammar.
func TestParseNodeSpecs(t *testing.T) {
	specs, err := parseNodeSpecs("a=http://h1:1, b=http://h2:2 ,c=http://h3:3")
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 3 || specs[1].ID != "b" || specs[1].URL != "http://h2:2" {
		t.Fatalf("specs: %+v", specs)
	}
	for _, bad := range []string{"", "nourl", "=x", "a="} {
		if _, err := parseNodeSpecs(bad); err == nil {
			t.Fatalf("parseNodeSpecs(%q) accepted", bad)
		}
	}
}

// TestModesStopOnCancel: every mode serves until its context ends and then
// shuts down cleanly — without error, and with what it built closed: the
// single-host array and the coordinator's array sealed, the storage node's
// directory reopenable, the standby gone without taking over.
func TestModesStopOnCancel(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := config{addr: "127.0.0.1:0", disks: 9, cycles: 2, strip: 512, batch: 1, timeout: 10 * time.Second, retries: 2}

	t.Run("single-host", func(t *testing.T) {
		cfg := cfg
		cfg.dir = t.TempDir()
		if err := run(cancelled, cfg); err != nil {
			t.Fatalf("run: %v", err)
		}
		mnt, _, err := oiraid.MountDir(cfg.dir)
		if err != nil {
			t.Fatal(err)
		}
		defer mnt.Array.SealMeta()
		if !mnt.WasClean {
			t.Fatal("array left unsealed")
		}
	})

	t.Run("node", func(t *testing.T) {
		cfg := cfg
		cfg.dir = t.TempDir()
		if err := runNode(cancelled, cfg, clusterConfig{nodeID: "alpha"}); err != nil {
			t.Fatalf("runNode: %v", err)
		}
		n, err := netdev.NewDirNode("alpha", cfg.dir)
		if err != nil {
			t.Fatalf("reopen the node's directory: %v", err)
		}
		n.Close()
	})

	specs := ""
	for i, id := range []string{"alpha", "beta", "gamma"} {
		url, _ := bootStorageNode(t, id, t.TempDir())
		if i > 0 {
			specs += ","
		}
		specs += fmt.Sprintf("%s=%s", id, url)
	}
	ccfg := clusterConfig{nodes: specs, grace: 30 * time.Second, netTimeout: time.Second,
		coordID: "coord-a", leaseRenew: 20 * time.Millisecond, failoverAfter: time.Hour}
	cfg.dir = t.TempDir()

	t.Run("coordinator", func(t *testing.T) {
		if err := runCoordinator(cancelled, cfg, ccfg); err != nil {
			t.Fatalf("runCoordinator: %v", err)
		}
		_, c, err := buildClusterServer(cfg, ccfg)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if !c.Mount.WasClean {
			t.Fatal("cluster array left unsealed")
		}
	})

	t.Run("standby", func(t *testing.T) {
		ccfg := ccfg
		ccfg.coordID, ccfg.standby = "coord-b", true
		if err := runStandby(cancelled, cfg, ccfg); err != nil {
			t.Fatalf("runStandby: %v", err)
		}
	})
}
