package server

import (
	"context"
	"math/rand"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/oiraid/oiraid/internal/bibd"
	"github.com/oiraid/oiraid/internal/core"
	"github.com/oiraid/oiraid/internal/engine"
	"github.com/oiraid/oiraid/internal/layout"
	"github.com/oiraid/oiraid/internal/store"
)

// newDurableTestServer serves an array formatted with the durable
// metadata plane (superblocks + journal-backed checksums) and returns
// the raw devices so the test can corrupt media behind the checksums.
func newDurableTestServer(t testing.TB) (*Client, []*store.MemDevice, *store.Mount) {
	t.Helper()
	d, err := bibd.ForArray(9)
	if err != nil {
		t.Fatal(err)
	}
	sch, err := layout.NewOIRAID(d)
	if err != nil {
		t.Fatal(err)
	}
	an, err := core.NewAnalyzer(sch)
	if err != nil {
		t.Fatal(err)
	}
	raw := make([]*store.MemDevice, an.Disks())
	devs := make([]store.Device, an.Disks())
	sbs := make([]store.Blob, an.Disks())
	for i := range raw {
		raw[i], err = store.NewMemDevice(2*int64(an.SlotsPerDisk()), testStrip)
		if err != nil {
			t.Fatal(err)
		}
		devs[i] = raw[i]
		sbs[i] = store.NewMemBlob()
	}
	mnt, err := store.FormatArray(an, devs, sbs, store.NewMemBlob(), store.NewMemBlob())
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engine.New(mnt.Array, engine.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(eng, Options{RequestTimeout: 10 * time.Second})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		eng.Close()
	})
	return NewClient(ts.URL), raw, mnt
}

// TestRemoteFsck: a deliberately inconsistent array is diagnosed over
// the wire — the report names the damaged strip — and repaired remotely.
func TestRemoteFsck(t *testing.T) {
	c, raw, mnt := newDurableTestServer(t)
	content := make([]byte, testStrip)
	rand.New(rand.NewSource(9)).Read(content)
	if err := c.PutStripCtx(context.Background(), 0, content); err != nil {
		t.Fatal(err)
	}

	// Corrupt logical strip 0's media directly, bypassing the checksum
	// wrapper: data strip 0 of cycle 0 per the layout.
	st := mnt.Array.Analyzer().Scheme().DataStrips()[0]
	garbage := make([]byte, testStrip)
	for i := range garbage {
		garbage[i] = 0x77
	}
	if err := raw[st.Disk].WriteStrip(int64(st.Slot), garbage); err != nil {
		t.Fatal(err)
	}

	rep, err := c.FsckCtx(context.Background(), false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean || rep.ChecksumErrors != 1 {
		t.Fatalf("report %+v, want exactly one checksum error", rep)
	}
	found := false
	for _, is := range rep.Issues {
		if is.Kind == "checksum" && is.Cycle == 0 && is.Disk == st.Disk && is.Slot == st.Slot {
			found = true
		}
	}
	if !found {
		t.Fatalf("report does not name (cycle 0, disk %d, slot %d): %+v", st.Disk, st.Slot, rep.Issues)
	}

	rep, err = c.FsckCtx(context.Background(), true)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean || rep.Repaired == 0 {
		t.Fatalf("remote repair left damage: %+v", rep)
	}
	rep, err = c.FsckCtx(context.Background(), false)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean {
		t.Fatalf("array dirty after remote repair: %+v", rep)
	}

	// The repaired strip serves the original content.
	got, err := c.GetStripCtx(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != content[i] {
			t.Fatalf("byte %d differs after repair", i)
		}
	}

	// The new counters surface through /v1/metrics and /v1/status.
	m, err := c.MetricsCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"oiraid_engine_corrupt_strips_total", "oiraid_engine_fsck_runs_total"} {
		if !strings.Contains(m, want) {
			t.Errorf("metrics missing %s", want)
		}
	}
	status, err := c.StatusCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if status.ArrayUUID == "" || status.MetaEpoch == 0 {
		t.Errorf("status missing metadata identity: %+v", status)
	}
}
