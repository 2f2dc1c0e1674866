package server

import (
	"context"
	"errors"
	"net/http/httptest"
	"slices"
	"testing"
	"time"

	"github.com/oiraid/oiraid/internal/cluster"
	"github.com/oiraid/oiraid/internal/engine"
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

// TestMembershipHTTP drives the membership plane end to end: a volatile
// coordinator over three nodes behind a server with Options.Membership, a
// fourth node added through the client and listed, a rejoin of a node that
// never left, the new node drained with no migration left behind — and the
// requests a caller gets wrong decoded back into cluster.ErrBadMember.
func TestMembershipHTTP(t *testing.T) {
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
	ts := httptest.NewServer(New(c.Eng, Options{Membership: c}).Handler())
	t.Cleanup(ts.Close)
	cl := NewClient(ts.URL)
	ctx := context.Background()

	delta := memNode(t, "delta")
	rep, err := cl.NodeAddCtx(ctx, delta.ID, delta.URL)
	if err != nil || len(rep.Moved) == 0 {
		t.Fatalf("add: %+v, %v", rep, err)
	}
	nodes, err := cl.NodesCtx(ctx)
	if err != nil {
		t.Fatal(err)
	}
	i := slices.IndexFunc(nodes, func(n cluster.NodeInfo) bool { return n.ID == delta.ID })
	if len(nodes) != 4 || i < 0 || nodes[i].State != "ok" || len(nodes[i].Disks) != len(rep.Moved) {
		t.Fatalf("nodes after the add: %+v (moved %v)", nodes, rep.Moved)
	}
	if rep, err := cl.NodeRejoinCtx(ctx, "alpha", ""); err != nil || len(rep.Moved) != 0 {
		t.Fatalf("rejoin of a node that never left: %+v, %v", rep, err)
	}
	if rep, err := cl.NodeDrainCtx(ctx, delta.ID); err != nil || len(rep.Moved) != len(nodes[i].Disks) {
		t.Fatalf("drain: %+v, %v", rep, err)
	}
	if migs, err := cl.MigrationsCtx(ctx); err != nil || len(migs) != 0 {
		t.Fatalf("migrations after the drain: %+v, %v", migs, err)
	}
	if nodes, err := cl.NodesCtx(ctx); err != nil || len(nodes) != 3 {
		t.Fatalf("nodes after the drain: %+v, %v", nodes, err)
	}

	if _, err := cl.NodeDrainCtx(ctx, "nobody"); !errors.Is(err, cluster.ErrBadMember) {
		t.Errorf("drain of an unknown node: %v, want ErrBadMember", err)
	}
	if _, err := cl.NodeAddCtx(ctx, "epsilon", "http://[::1"); !errors.Is(err, cluster.ErrBadMember) {
		t.Errorf("add with a malformed URL: %v, want ErrBadMember", err)
	}
}
