package main

import (
	"bytes"
	"context"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/oiraid/oiraid/internal/cluster"
	"github.com/oiraid/oiraid/internal/engine"
	"github.com/oiraid/oiraid/internal/server"
	"github.com/oiraid/oiraid/internal/store/netdev"
)

// memNode serves a fresh in-memory storage node on loopback.
func memNode(t *testing.T, id string) cluster.NodeSpec {
	t.Helper()
	n := netdev.NewMemNode(id)
	srv := httptest.NewServer(n.Handler())
	t.Cleanup(func() {
		srv.Close()
		n.Close()
	})
	return cluster.NodeSpec{ID: id, URL: srv.URL}
}

// TestRemoteNode drives `oiraidctl node … -remote` against a coordinator over
// three storage nodes: add a fourth, see it in status, rejoin a node that
// never left, drain the new one, and find no migration in flight — with the
// verbs' refusals of missing flags and unknown subcommands.
func TestRemoteNode(t *testing.T) {
	c, err := cluster.Open(cluster.Options{
		Nodes:  []cluster.NodeSpec{memNode(t, "alpha"), memNode(t, "beta"), memNode(t, "gamma")},
		Client: netdev.Options{Timeout: 5 * time.Second, MaxAttempts: 2, Grace: time.Hour},
		Engine: engine.Options{Workers: 2},
		Format: &cluster.FormatSpec{Disks: 9, Cycles: 1, StripBytes: 512},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	ts := httptest.NewServer(server.New(c.Eng, server.Options{Membership: c}).Handler())
	t.Cleanup(ts.Close)
	cl := server.NewClient(ts.URL)
	node := func(sub, id, url string) string {
		t.Helper()
		var out bytes.Buffer
		if err := remoteNodeCmd(context.Background(), cl, sub, id, url, &out); err != nil {
			t.Fatalf("node %s: %v", sub, err)
		}
		return out.String()
	}

	delta := memNode(t, "delta")
	if out := node("add", delta.ID, delta.URL); !strings.HasPrefix(out, "node delta joined; migrated disks [") {
		t.Errorf("add printed %q", out)
	}
	if out := node("status", "", ""); strings.Count(out, "\n") != 4 || !strings.Contains(out, "node delta      ok") {
		t.Errorf("status printed %q", out)
	}
	if out := node("rejoin", "alpha", ""); out != "node alpha rejoined with zero movement (inside grace window)\n" {
		t.Errorf("rejoin printed %q", out)
	}
	if out := node("drain", delta.ID, ""); !strings.HasPrefix(out, "node delta drained and removed; migrated disks [") {
		t.Errorf("drain printed %q", out)
	}
	if out := node("migrations", "", ""); out != "no migrations in flight\n" {
		t.Errorf("migrations printed %q", out)
	}
	for _, bad := range [][3]string{{"add", "epsilon", ""}, {"drain", "", ""}, {"rejoin", "", ""}, {"evict", "alpha", ""}} {
		if err := remoteNodeCmd(context.Background(), cl, bad[0], bad[1], bad[2], &bytes.Buffer{}); err == nil {
			t.Errorf("node %s -id %q -url %q: no error", bad[0], bad[1], bad[2])
		}
	}
}
