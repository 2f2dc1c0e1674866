package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/oiraid/oiraid"
	"github.com/oiraid/oiraid/internal/server"
	"github.com/oiraid/oiraid/internal/store"
)

// boot starts the daemon's full stack on a loopback port and returns a
// client plus a shutdown func.
func boot(t *testing.T, cfg config) (*server.Client, func() error) {
	t.Helper()
	srv, err := buildServer(cfg)
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
	return server.NewClient("http://" + l.Addr().String()), shutdown
}

func imgPath(dir string, i int) string { return filepath.Join(dir, fmt.Sprintf("disk%02d.img", i)) }

// counter extracts one metric value from the text dump.
func counter(t *testing.T, metrics, name string) int64 {
	t.Helper()
	for _, line := range strings.Split(metrics, "\n") {
		fields := strings.Fields(line)
		if len(fields) == 2 && fields[0] == name {
			v, err := strconv.ParseInt(fields[1], 10, 64)
			if err != nil {
				t.Fatalf("metric %s: %v", name, err)
			}
			return v
		}
	}
	t.Fatalf("metric %s not found in:\n%s", name, metrics)
	return 0
}

// TestEndToEnd boots oiraidd on a loopback port and drives the full
// lifecycle through the HTTP client: write strips, read them back, fail
// a disk, read degraded, rebuild via the API, and verify data integrity
// plus advancing metrics counters.
func TestEndToEnd(t *testing.T) {
	const strip = 512
	c, shutdown := boot(t, config{
		disks: 9, cycles: 2, strip: strip,
		batch: 1, timeout: 10 * time.Second,
	})

	st, err := c.StatusCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Disks != 9 || st.StripBytes != strip || st.Strips == 0 {
		t.Fatalf("status geometry: %+v", st)
	}

	rng := rand.New(rand.NewSource(42))
	want := make(map[int64][]byte)
	for addr := int64(0); addr < st.Strips; addr += 2 {
		p := make([]byte, strip)
		rng.Read(p)
		if err := c.PutStripCtx(context.Background(), addr, p); err != nil {
			t.Fatalf("put strip %d: %v", addr, err)
		}
		want[addr] = p
	}
	for addr, p := range want {
		got, err := c.GetStripCtx(context.Background(), addr)
		if err != nil {
			t.Fatalf("get strip %d: %v", addr, err)
		}
		if !bytes.Equal(got, p) {
			t.Fatalf("strip %d round-trip differs", addr)
		}
	}

	if err := c.FailDiskCtx(context.Background(), 5); err != nil {
		t.Fatal(err)
	}
	st, err = c.StatusCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Failed) != 1 || !st.Exposure.Recoverable {
		t.Fatalf("degraded status: %+v", st)
	}
	for addr, p := range want { // degraded reads reconstruct through parity
		got, err := c.GetStripCtx(context.Background(), addr)
		if err != nil {
			t.Fatalf("degraded get %d: %v", addr, err)
		}
		if !bytes.Equal(got, p) {
			t.Fatalf("degraded strip %d differs", addr)
		}
	}

	if err := c.RebuildCtx(context.Background(), true); err != nil {
		t.Fatal(err)
	}
	st, err = c.StatusCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Failed) != 0 || st.Rebuilding {
		t.Fatalf("post-rebuild status: %+v", st)
	}
	for addr, p := range want {
		got, err := c.GetStripCtx(context.Background(), addr)
		if err != nil {
			t.Fatalf("post-rebuild get %d: %v", addr, err)
		}
		if !bytes.Equal(got, p) {
			t.Fatalf("post-rebuild strip %d differs", addr)
		}
	}

	metrics, err := c.MetricsCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"oiraid_engine_reads_total",
		"oiraid_engine_writes_total",
		"oiraid_engine_degraded_reads_total",
		"oiraid_engine_rebuild_batches_total",
		"oiraid_engine_device_writes_total",
	} {
		if v := counter(t, metrics, name); v == 0 {
			t.Fatalf("%s still zero after lifecycle:\n%s", name, metrics)
		}
	}

	if err := shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// The drained engine refuses further work.
	if _, err := c.GetStripCtx(context.Background(), 0); err == nil {
		t.Fatal("read succeeded after shutdown")
	}
}

// TestFileBackedRestart boots a file-backed daemon, writes, restarts the
// whole process stack over the same directory, and reads the data back.
func TestFileBackedRestart(t *testing.T) {
	const strip = 512
	cfg := config{
		disks: 9, cycles: 2, strip: strip, dir: t.TempDir(),
		batch: 1, timeout: 10 * time.Second,
	}
	c, shutdown := boot(t, cfg)
	p := make([]byte, strip)
	rand.New(rand.NewSource(7)).Read(p)
	if err := c.PutStripCtx(context.Background(), 3, p); err != nil {
		t.Fatal(err)
	}
	if err := shutdown(); err != nil {
		t.Fatal(err)
	}

	c, shutdown = boot(t, cfg)
	defer shutdown()
	got, err := c.GetStripCtx(context.Background(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, p) {
		t.Fatal("strip lost across restart")
	}
}

// TestDurableRestartDetectsOfflineCorruption flips bits in a device image
// while the daemon is down, reboots over the same directory, and proves
// the damage is caught by the durable checksums and repairable through
// the remote fsck endpoint.
func TestDurableRestartDetectsOfflineCorruption(t *testing.T) {
	const strip = 512
	cfg := config{
		disks: 9, cycles: 2, strip: strip, dir: t.TempDir(),
		batch: 1, timeout: 10 * time.Second,
	}
	c, shutdown := boot(t, cfg)
	p := make([]byte, strip)
	rand.New(rand.NewSource(11)).Read(p)
	if err := c.PutStripCtx(context.Background(), 0, p); err != nil {
		t.Fatal(err)
	}
	st, err := c.StatusCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.ArrayUUID == "" || st.MetaEpoch == 0 {
		t.Fatalf("durable daemon status lacks identity: %+v", st)
	}
	uuid := st.ArrayUUID
	if err := shutdown(); err != nil {
		t.Fatal(err)
	}

	// Flip bits under logical strip 0 (data strip 0 of cycle 0) directly
	// in the image file — the array is down, nothing can notice.
	g, err := oiraid.NewGeometry(cfg.disks)
	if err != nil {
		t.Fatal(err)
	}
	target := g.Analyzer().Scheme().DataStrips()[0]
	img, err := os.OpenFile(imgPath(cfg.dir, target.Disk), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	garbage := make([]byte, strip)
	for i := range garbage {
		garbage[i] = 0x5a
	}
	if _, err := img.WriteAt(garbage, int64(target.Slot)*strip); err != nil {
		t.Fatal(err)
	}
	if err := img.Close(); err != nil {
		t.Fatal(err)
	}

	c, shutdown = boot(t, cfg)
	defer shutdown()
	st, err = c.StatusCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.ArrayUUID != uuid {
		t.Fatalf("array identity changed across restart: %s != %s", st.ArrayUUID, uuid)
	}
	rep, err := c.FsckCtx(context.Background(), false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean || rep.ChecksumErrors == 0 {
		t.Fatalf("offline corruption not detected: %+v", rep)
	}
	rep, err = c.FsckCtx(context.Background(), true)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean {
		t.Fatalf("remote repair left damage: %+v", rep)
	}
	got, err := c.GetStripCtx(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, p) {
		t.Fatal("strip content wrong after repair")
	}
}

// TestMountRefusesImagesWithoutSuperblock: a -dir holding device images
// but no loadable superblock is refused by name — never formatted over —
// and nothing in it changes.
func TestMountRefusesImagesWithoutSuperblock(t *testing.T) {
	dir := t.TempDir()
	img := bytes.Repeat([]byte{0xd1}, 4096)
	if err := os.WriteFile(imgPath(dir, 0), img, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := buildServer(config{disks: 9, cycles: 2, strip: 512, dir: dir, batch: 1})
	if !errors.Is(err, store.ErrDirNotEmpty) {
		t.Fatalf("err %v, want ErrDirNotEmpty", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(imgPath(dir, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || !bytes.Equal(got, img) {
		t.Fatalf("directory changed: %d entries, image intact=%v", len(entries), bytes.Equal(got, img))
	}
}

// TestQoSFlagsWired boots the daemon with the QoS flags set, confirms the
// knobs land in /v1/qos, tunes them live over HTTP, and drives a scrub
// pass through the API.
func TestQoSFlagsWired(t *testing.T) {
	const strip = 512
	c, shutdown := boot(t, config{
		disks: 9, cycles: 2, strip: strip,
		batch: 1, timeout: 10 * time.Second,
		admitDepth:    16,
		admitWait:     20 * time.Millisecond,
		rebuildRate:   50,
		scrubRate:     1.0 / 3600, // enabled but effectively manual
		latencyTarget: 5 * time.Millisecond,
		opTimeout:     5 * time.Second,
	})
	defer shutdown()

	st, err := c.QoSCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.AdmitDepth != 16 || st.RebuildRate != 50 || st.LatencyTarget != 5*time.Millisecond {
		t.Fatalf("qos state from flags: %+v", st)
	}

	rate := 7.5
	st, err = c.SetQoSCtx(context.Background(), oiraid.QoSUpdate{RebuildRate: &rate})
	if err != nil {
		t.Fatal(err)
	}
	if st.RebuildRate != 7.5 || st.AdmitDepth != 16 {
		t.Fatalf("qos state after live update: %+v", st)
	}

	if err := c.PutStripCtx(context.Background(), 0, make([]byte, strip)); err != nil {
		t.Fatal(err)
	}
	if n, err := c.ScrubCtx(context.Background()); err != nil || n != 0 {
		t.Fatalf("scrub = %d, %v", n, err)
	}
	metrics, err := c.MetricsCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if v := counter(t, metrics, "oiraid_engine_scrub_passes_total"); v == 0 {
		t.Fatalf("scrub pass not counted:\n%s", metrics)
	}
}

// TestRunSealsWhenListenFails: a -dir daemon has formatted its array by the
// time it listens. When the address is taken, run must still close the
// stack it built, so the array is sealed and the next mount is clean.
func TestRunSealsWhenListenFails(t *testing.T) {
	taken, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer taken.Close()
	cfg := config{
		addr: taken.Addr().String(), disks: 9, cycles: 2, strip: 512, dir: t.TempDir(),
		batch: 1, timeout: 10 * time.Second,
	}
	if err := run(context.Background(), cfg); err == nil {
		t.Fatal("run on a taken address returned no error")
	}
	mnt, _, err := oiraid.MountDir(cfg.dir)
	if err != nil {
		t.Fatal(err)
	}
	defer mnt.Array.SealMeta()
	if !mnt.WasClean {
		t.Fatal("the array run formatted was left unsealed when the listen failed")
	}
}
