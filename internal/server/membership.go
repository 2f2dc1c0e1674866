// Membership-plane handlers: the HTTP face of online node add, drain,
// and rejoin. The operations are synchronous — the response reports the
// disks that moved — so they run under the request timeout; large
// arrays should watch GET /v1/migrations for progress after a timeout,
// since a parked migration resumes on its own.

package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"

	"github.com/oiraid/oiraid/internal/cluster"
)

func (s *Server) nodes(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.opts.Membership.NodeStatus())
}

func (s *Server) migrations(w http.ResponseWriter, r *http.Request) {
	migs := s.opts.Membership.Migrations()
	if migs == nil {
		migs = []cluster.MigrationStatus{}
	}
	writeJSON(w, migs)
}

// nodeSpec reads the node reference for a membership op: the ID from
// the path, the URL (when needed) from the JSON body.
func (s *Server) nodeSpec(r *http.Request) (cluster.NodeSpec, error) {
	spec := cluster.NodeSpec{ID: r.PathValue("id")}
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<16))
	if err != nil {
		return spec, err
	}
	if len(body) > 0 {
		var req struct {
			URL string `json:"url"`
		}
		if err := json.Unmarshal(body, &req); err != nil {
			return spec, err
		}
		spec.URL = req.URL
	}
	return spec, nil
}

func (s *Server) nodeAdd(w http.ResponseWriter, r *http.Request) {
	spec, err := s.nodeSpec(r)
	if err != nil {
		catalogue.Encode(cluster.ErrBadMember).Write(w, err)
		return
	}
	rep, err := s.opts.Membership.AddNode(spec)
	if err != nil {
		s.fail(w, err)
		return
	}
	writeJSON(w, rep)
}

func (s *Server) nodeDrain(w http.ResponseWriter, r *http.Request) {
	rep, err := s.opts.Membership.DrainNode(r.PathValue("id"))
	if err != nil {
		s.fail(w, err)
		return
	}
	writeJSON(w, rep)
}

func (s *Server) nodeRejoin(w http.ResponseWriter, r *http.Request) {
	spec, err := s.nodeSpec(r)
	if err != nil {
		catalogue.Encode(cluster.ErrBadMember).Write(w, err)
		return
	}
	rep, err := s.opts.Membership.RejoinNode(spec)
	if err != nil {
		s.fail(w, err)
		return
	}
	writeJSON(w, rep)
}

// --- client side ---

// NodesCtx lists the cluster's member nodes with state and placements.
func (c *Client) NodesCtx(ctx context.Context) ([]cluster.NodeInfo, error) {
	var nodes []cluster.NodeInfo
	err := c.callJSON(ctx, http.MethodGet, "/v1/nodes", nil, nil, &nodes, "nodes")
	return nodes, err
}

// MigrationsCtx lists in-flight strip migrations.
func (c *Client) MigrationsCtx(ctx context.Context) ([]cluster.MigrationStatus, error) {
	var migs []cluster.MigrationStatus
	err := c.callJSON(ctx, http.MethodGet, "/v1/migrations", nil, nil, &migs, "migrations")
	return migs, err
}

func (c *Client) nodeOp(ctx context.Context, op, id, url string) (cluster.MoveReport, error) {
	var body []byte
	if url != "" {
		body, _ = json.Marshal(map[string]string{"url": url})
	}
	var rep cluster.MoveReport
	err := c.callJSON(ctx, http.MethodPost, "/v1/nodes/"+id+"/"+op, body, nil, &rep, op+" report")
	return rep, err
}

// NodeAddCtx joins a new node and rebalances onto it.
func (c *Client) NodeAddCtx(ctx context.Context, id, url string) (cluster.MoveReport, error) {
	return c.nodeOp(ctx, "add", id, url)
}

// NodeDrainCtx migrates every disk off a node and removes it.
func (c *Client) NodeDrainCtx(ctx context.Context, id string) (cluster.MoveReport, error) {
	return c.nodeOp(ctx, "drain", id, "")
}

// NodeRejoinCtx brings a known node back (url optional: manifest's).
func (c *Client) NodeRejoinCtx(ctx context.Context, id, url string) (cluster.MoveReport, error) {
	return c.nodeOp(ctx, "rejoin", id, url)
}
