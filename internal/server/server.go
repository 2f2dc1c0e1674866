// Package server exposes an engine.Engine over HTTP — the oiraidd network
// service. The API is strip-granularity and deliberately small:
//
//	PUT  /v1/strips/{addr}     store one data strip (binary body)
//	GET  /v1/strips/{addr}     fetch one data strip (binary)
//	POST /v1/disks/{id}/fail   inject a disk failure (idempotent)
//	POST /v1/disks/{id}/quarantine  quarantine a slow disk (reads avoid it)
//	POST /v1/disks/{id}/release     lift a quarantine
//	POST /v1/rebuild           start a background rebuild (?wait=1 blocks)
//	POST /v1/scrub             drive an incremental scrub pass to completion
//	POST /v1/spares            register hot spares (?count=N, default 1)
//	GET  /v1/health            per-disk health counters + healing totals
//	GET  /v1/status            operational snapshot incl. exposure report
//	GET  /v1/metrics           engine counters, text format
//	GET  /v1/qos               live QoS knob + pacing snapshot
//	POST /v1/qos               partial live update of the QoS knobs
//
// With an object store configured (Options.Objects) the bucket/object
// plane is served too — see registerObjectRoutes in object.go.
//
// Sentinel errors cross the wire through one table (catalogue): each
// answers its row's status plus an X-Oiraid-Err code the bundled client
// decodes back into the sentinel, so remote callers branch with errors.Is
// the same way local ones do. Transient conditions answer 503 with a
// Retry-After header; requests shed by admission control answer 429 with
// Retry-After; an expired request or op deadline answers 504. The client
// retries the rows marked retryable (and transport errors) through
// internal/retry.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"github.com/oiraid/oiraid/internal/cluster"
	"github.com/oiraid/oiraid/internal/engine"
	"github.com/oiraid/oiraid/internal/object"
	"github.com/oiraid/oiraid/internal/retry"
	"github.com/oiraid/oiraid/internal/store"
)

// Options tunes a Server.
type Options struct {
	// RequestTimeout is each request's deadline (default 30s): it bounds
	// the request context every handler runs under, and an operation still
	// waiting when it expires answers 504.
	RequestTimeout time.Duration
	// OpTimeout bounds each strip operation's engine time, nested inside
	// the request deadline so client disconnects cancel too. An op that
	// exceeds it answers 504. 0 leaves ops bounded only by
	// RequestTimeout.
	OpTimeout time.Duration
	// Objects, when set, enables the bucket/object plane of the API
	// (/v1/buckets/...) over the given store. Nil leaves the server
	// strip-only.
	Objects *object.Store
	// Membership, when set (cluster mode), enables the node membership
	// plane of the API (/v1/nodes/...): online add, drain, rejoin, and
	// status. Nil leaves the routes unregistered — a single-host daemon
	// has no membership to change.
	Membership Membership
}

// Membership is the node membership plane a cluster coordinator
// implements (*cluster.Cluster satisfies it).
type Membership interface {
	AddNode(spec cluster.NodeSpec) (cluster.MoveReport, error)
	DrainNode(id string) (cluster.MoveReport, error)
	RejoinNode(spec cluster.NodeSpec) (cluster.MoveReport, error)
	NodeStatus() []cluster.NodeInfo
	Migrations() []cluster.MigrationStatus
}

// Server serves one engine over HTTP.
type Server struct {
	eng    *engine.Engine
	opts   Options
	mux    *http.ServeMux
	hs     *http.Server
	panics atomic.Int64 // handler panics converted to 500s
}

// New builds a server over the engine.
func New(eng *engine.Engine, opts Options) *Server {
	if opts.RequestTimeout <= 0 {
		opts.RequestTimeout = 30 * time.Second
	}
	s := &Server{eng: eng, opts: opts, mux: http.NewServeMux()}
	s.mux.HandleFunc("PUT /v1/strips/{addr}", s.putStrip)
	s.mux.HandleFunc("GET /v1/strips/{addr}", s.getStrip)
	s.mux.HandleFunc("POST /v1/disks/{id}/fail", s.diskOp(eng.FailDisk))
	s.mux.HandleFunc("POST /v1/disks/{id}/quarantine", s.diskOp(eng.QuarantineDisk))
	s.mux.HandleFunc("POST /v1/disks/{id}/release", s.diskOp(eng.ReleaseDisk))
	s.mux.HandleFunc("POST /v1/rebuild", s.rebuild)
	s.mux.HandleFunc("POST /v1/scrub", s.scrub)
	s.mux.HandleFunc("POST /v1/fsck", s.fsck)
	s.mux.HandleFunc("POST /v1/spares", s.addSpares)
	s.mux.HandleFunc("GET /v1/health", s.health)
	s.mux.HandleFunc("GET /v1/status", s.status)
	s.mux.HandleFunc("GET /v1/metrics", s.metrics)
	s.mux.HandleFunc("GET /v1/qos", s.qosGet)
	s.mux.HandleFunc("POST /v1/qos", s.qosSet)
	if opts.Objects != nil {
		s.registerObjectRoutes()
	}
	if opts.Membership != nil {
		s.mux.HandleFunc("GET /v1/nodes", s.nodes)
		s.mux.HandleFunc("GET /v1/migrations", s.migrations)
		s.mux.HandleFunc("POST /v1/nodes/{id}/add", s.nodeAdd)
		s.mux.HandleFunc("POST /v1/nodes/{id}/drain", s.nodeDrain)
		s.mux.HandleFunc("POST /v1/nodes/{id}/rejoin", s.nodeRejoin)
	}
	s.hs = &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       opts.RequestTimeout + 10*time.Second,
		WriteTimeout:      opts.RequestTimeout + 10*time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	return s
}

// Handler returns the routed handler with panic recovery and the one
// request deadline: RequestTimeout bounds the context every handler runs
// under, so an operation that outlives it fails with
// context.DeadlineExceeded and answers the catalogue's 504. Nothing is
// buffered — a response body reaches the client as the handler writes it.
func (s *Server) Handler() http.Handler {
	return s.recoverPanics(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), s.opts.RequestTimeout)
		defer cancel()
		s.mux.ServeHTTP(w, r.WithContext(ctx))
	}))
}

// recoverPanics converts a handler panic into a 500 and a counter bump
// instead of a crashed daemon: one poisoned request must not take the
// array offline. http.ErrAbortHandler passes through — it is the
// sanctioned way to abort a response, not a bug.
func (s *Server) recoverPanics(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			v := recover()
			if v == nil {
				return
			}
			if v == http.ErrAbortHandler {
				panic(v)
			}
			s.panics.Add(1)
			// Best-effort: if the handler already wrote, this is a no-op
			// on the status line and the client sees a torn body.
			http.Error(w, fmt.Sprintf("internal error: %v", v), http.StatusInternalServerError)
		}()
		next.ServeHTTP(w, r)
	})
}

// Serve accepts connections on l until Shutdown. It always returns a
// non-nil error; after Shutdown the error is http.ErrServerClosed.
func (s *Server) Serve(l net.Listener) error { return s.hs.Serve(l) }

// Shutdown gracefully stops Serve: in-flight requests complete (bounded
// by ctx), then the engine drains. A Serve that had not started yet
// returns at once.
func (s *Server) Shutdown(ctx context.Context) error {
	err := s.hs.Shutdown(ctx)
	if cerr := s.eng.Close(); err == nil {
		err = cerr
	}
	return err
}

// catalogue is the coordinator API's error table (see retry.Catalogue):
// fail encodes every error through it and Client decodes the X-Oiraid-Err
// code back into the same sentinel, so remote callers branch with
// errors.Is exactly as local ones do. A sentinel that wraps another
// precedes it; an error no row matches answers a bare 500.
var catalogue = retry.Catalogue{
	{Err: context.DeadlineExceeded, Code: "deadline", Status: http.StatusGatewayTimeout, Retryable: true},
	{Err: store.ErrOverloaded, Code: "overloaded", Status: http.StatusTooManyRequests, Retryable: true},
	// The caller went away mid-op; nothing was torn, a retry is safe.
	{Err: context.Canceled, Code: "canceled", Status: http.StatusServiceUnavailable, Retryable: true},
	// This coordinator was deposed mid-operation; the successor resumes
	// what it parked. The client must re-target, not retry.
	{Err: store.ErrStaleEpoch, Code: "stale-epoch", Status: http.StatusConflict},
	{Err: cluster.ErrBadMember, Code: "bad-member", Status: http.StatusBadRequest},

	{Err: store.ErrStripOutOfRange, Code: "out-of-range", Status: http.StatusNotFound},
	{Err: store.ErrNoSuchDisk, Code: "no-such-disk", Status: http.StatusNotFound},
	{Err: object.ErrNoSuchBucket, Code: "no-such-bucket", Status: http.StatusNotFound},
	{Err: object.ErrNoSuchObject, Code: "no-such-object", Status: http.StatusNotFound},
	{Err: object.ErrNoSuchUpload, Code: "no-such-upload", Status: http.StatusNotFound},

	{Err: store.ErrShortBuffer, Code: "short-buffer", Status: http.StatusBadRequest},
	{Err: store.ErrNegativeOffset, Code: "negative-offset", Status: http.StatusBadRequest},
	{Err: store.ErrBadGeometry, Code: "bad-geometry", Status: http.StatusBadRequest},
	{Err: object.ErrBadName, Code: "bad-name", Status: http.StatusBadRequest},
	{Err: object.ErrBadUpload, Code: "bad-upload", Status: http.StatusBadRequest},

	{Err: store.ErrNotFailed, Code: "not-failed", Status: http.StatusConflict},
	{Err: store.ErrNoReplacement, Code: "no-replacement", Status: http.StatusConflict},
	{Err: engine.ErrRebuildRunning, Code: "rebuild-running", Status: http.StatusConflict},
	{Err: object.ErrBucketExists, Code: "bucket-exists", Status: http.StatusConflict},
	{Err: object.ErrBucketNotEmpty, Code: "bucket-not-empty", Status: http.StatusConflict},

	{Err: object.ErrNoSpace, Code: "no-space", Status: http.StatusInsufficientStorage},
	// Before ErrTooManyFailures, which it wraps: the strip is undecodable
	// under the current failure pattern — gone until a heal restores
	// disks, not worth retrying against this epoch.
	{Err: store.ErrStripUnavailable, Code: "strip-unavailable", Status: http.StatusGone},
	// The array is fenced (read-only or partial-read mode); a retry
	// succeeds once the mode promotes. fail adds X-Oiraid-Mode so callers
	// can tell the fence from a fault.
	{Err: store.ErrReadOnly, Code: "read-only", Status: http.StatusServiceUnavailable, Retryable: true},
	// Data loss: nothing a retry can do.
	{Err: store.ErrTooManyFailures, Code: "too-many-failures", Status: http.StatusInternalServerError},
	{Err: object.ErrCorruptObject, Code: "corrupt-object", Status: http.StatusInternalServerError},
	{Err: object.ErrMetaCorrupt, Code: "corrupt-meta", Status: http.StatusInternalServerError},

	{Err: store.ErrDiskFaulty, Code: "disk-faulty", Status: http.StatusServiceUnavailable, Retryable: true},
	{Err: engine.ErrClosed, Code: "closed", Status: http.StatusServiceUnavailable, Retryable: true},
	// Both wrap ErrTransient and so precede it.
	{Err: store.ErrUnreachable, Code: "unreachable", Status: http.StatusServiceUnavailable, Retryable: true},
	{Err: store.ErrIntentConflict, Code: "intent-conflict", Status: http.StatusServiceUnavailable, Retryable: true},
	{Err: store.ErrTransient, Code: "transient", Status: http.StatusServiceUnavailable, Retryable: true},
	// Permanent device errors are still retryable here: the self-healing
	// loop is evicting the disk, and the op will succeed once it has.
	{Err: store.ErrPermanent, Code: "permanent", Status: http.StatusServiceUnavailable, Retryable: true},
}

// fail answers err as its catalogue row prescribes, plus the serving mode
// on a fenced write and Retry-After on the back-off statuses.
func (s *Server) fail(w http.ResponseWriter, err error) {
	row := catalogue.Encode(err)
	if errors.Is(err, store.ErrReadOnly) {
		w.Header().Set("X-Oiraid-Mode", s.eng.Mode().String())
	}
	if row.Status == http.StatusServiceUnavailable || row.Status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", "1")
	}
	row.Write(w, err)
}

// opCtx derives the context strip operations run under: the request
// context (client disconnects and the request deadline cancel it) bounded
// by OpTimeout when configured.
func (s *Server) opCtx(r *http.Request) (context.Context, context.CancelFunc) {
	if s.opts.OpTimeout > 0 {
		return context.WithTimeout(r.Context(), s.opts.OpTimeout)
	}
	return r.Context(), func() {}
}

func (s *Server) stripAddr(r *http.Request) (int64, error) {
	addr, err := strconv.ParseInt(r.PathValue("addr"), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("%w: bad strip address %q", store.ErrStripOutOfRange, r.PathValue("addr"))
	}
	return addr, nil
}

func (s *Server) putStrip(w http.ResponseWriter, r *http.Request) {
	addr, err := s.stripAddr(r)
	if err != nil {
		s.fail(w, err)
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, int64(s.eng.StripBytes())+1))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	ctx, cancel := s.opCtx(r)
	defer cancel()
	if err := s.eng.WriteStripCtx(ctx, addr, body); err != nil {
		s.fail(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) getStrip(w http.ResponseWriter, r *http.Request) {
	addr, err := s.stripAddr(r)
	if err != nil {
		s.fail(w, err)
		return
	}
	ctx, cancel := s.opCtx(r)
	defer cancel()
	p, err := s.eng.ReadStripCtx(ctx, addr)
	if err != nil {
		s.fail(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(p)
}

// diskOp serves a POST /v1/disks/{id}/... verb: parse the id, run op,
// answer 204.
func (s *Server) diskOp(op func(id int) error) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.Atoi(r.PathValue("id"))
		if err != nil {
			err = fmt.Errorf("%w: bad disk id %q", store.ErrNoSuchDisk, r.PathValue("id"))
		} else {
			err = op(id)
		}
		if err != nil {
			s.fail(w, err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	}
}

func (s *Server) rebuild(w http.ResponseWriter, r *http.Request) {
	// Batch 0: the engine's QoSConfig.RebuildBatch cycles per grant.
	if err := s.eng.StartRebuild(0); err != nil {
		s.fail(w, err)
		return
	}
	if r.URL.Query().Get("wait") != "" {
		if err := s.eng.RebuildWait(); err != nil {
			s.fail(w, err)
			return
		}
		w.WriteHeader(http.StatusOK)
		return
	}
	w.WriteHeader(http.StatusAccepted)
}

func (s *Server) scrub(w http.ResponseWriter, r *http.Request) {
	bad, err := s.eng.ScrubPass(r.Context())
	if err != nil {
		s.fail(w, err)
		return
	}
	writeJSON(w, map[string]int{"bad_stripes": bad})
}

func (s *Server) fsck(w http.ResponseWriter, r *http.Request) {
	repair := r.URL.Query().Get("repair") != ""
	rep, err := s.eng.Fsck(r.Context(), repair)
	if err != nil {
		s.fail(w, err)
		return
	}
	writeJSON(w, rep)
}

func (s *Server) qosGet(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.eng.QoS())
}

func (s *Server) qosSet(w http.ResponseWriter, r *http.Request) {
	// A knob this server does not have is refused by name, not dropped.
	var u engine.QoSUpdate
	dec := json.NewDecoder(io.LimitReader(r.Body, 1<<16))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&u); err != nil {
		http.Error(w, "bad QoS update: "+err.Error(), http.StatusBadRequest)
		return
	}
	st, err := s.eng.SetQoS(u)
	if err != nil {
		s.fail(w, err)
		return
	}
	writeJSON(w, st)
}

func (s *Server) addSpares(w http.ResponseWriter, r *http.Request) {
	count := 1
	if q := r.URL.Query().Get("count"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 1 || n > 1024 {
			http.Error(w, fmt.Sprintf("bad spare count %q", q), http.StatusBadRequest)
			return
		}
		count = n
	}
	s.eng.AddSpares(count)
	writeJSON(w, map[string]int{"spares": s.eng.SpareCount()})
}

func (s *Server) health(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.eng.Health())
}

func (s *Server) status(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.eng.Status())
}

func (s *Server) metrics(w http.ResponseWriter, r *http.Request) {
	st := s.eng.Stats()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	for _, c := range []struct {
		name string
		v    int64
	}{
		{"oiraid_engine_reads_total", st.Reads},
		{"oiraid_engine_writes_total", st.Writes},
		{"oiraid_engine_degraded_reads_total", st.DegradedReads},
		{"oiraid_engine_read_repairs_total", st.ReadRepairs},
		{"oiraid_engine_corrupt_strips_total", st.CorruptStrips},
		{"oiraid_engine_fsck_runs_total", st.FsckRuns},
		{"oiraid_engine_device_reads_total", st.DeviceReads},
		{"oiraid_engine_device_writes_total", st.DeviceWrites},
		{"oiraid_engine_rebuild_batches_total", st.RebuildBatches},
		{"oiraid_engine_lock_wait_ns_total", st.LockWaitNs},
		{"oiraid_engine_evictions_total", st.Evictions},
		{"oiraid_engine_auto_rebuilds_total", st.AutoRebuilds},
		{"oiraid_engine_spares_available", st.SparesAvailable},
		{"oiraid_engine_spares_used_total", st.SparesUsed},
		{"oiraid_engine_admit_shed_total", st.AdmitShed},
		{"oiraid_engine_admit_queued_total", st.AdmitQueued},
		{"oiraid_engine_admit_inflight", st.AdmitInflight},
		{"oiraid_engine_rebuild_throttle_ns_total", st.RebuildThrottleNs},
		{"oiraid_engine_scrub_batches_total", st.ScrubBatches},
		{"oiraid_engine_scrub_passes_total", st.ScrubPasses},
		{"oiraid_engine_scrub_bad_stripes_total", st.ScrubBadStripes},
		{"oiraid_engine_hedge_fired_total", st.HedgeFired},
		{"oiraid_engine_hedge_won_total", st.HedgeWon},
		{"oiraid_engine_hedge_wasted_total", st.HedgeWasted},
		{"oiraid_engine_hedge_shed_total", st.HedgeShed},
		{"oiraid_engine_quarantined_reads_total", st.QuarantinedReads},
		{"oiraid_engine_quarantines_total", st.Quarantines},
		{"oiraid_engine_quarantine_releases_total", st.QuarantineReleases},
		{"oiraid_engine_quarantine_escalations_total", st.QuarantineEscalations},
		{"oiraid_engine_writes_fenced_total", st.WritesFenced},
		{"oiraid_engine_mode_changes_total", st.ModeChanges},
		{"oiraid_engine_mode", int64(s.eng.Mode())},
		{"oiraid_server_panics_total", s.panics.Load()},
	} {
		fmt.Fprintf(w, "%s %d\n", c.name, c.v)
	}
	fmt.Fprintf(w, "oiraid_engine_foreground_ewma_us %g\n", st.ForegroundEWMAUs)
	fmt.Fprintf(w, "oiraid_engine_effective_rebuild_rate %g\n", st.EffectiveRebuildRate)
	for _, d := range s.eng.Health().Disks {
		fmt.Fprintf(w, "oiraid_disk_ops_total{disk=\"%d\"} %d\n", d.Disk, d.Ops)
		fmt.Fprintf(w, "oiraid_disk_errors_total{disk=\"%d\"} %d\n", d.Disk, d.Errors)
		fmt.Fprintf(w, "oiraid_disk_corrupt_reads_total{disk=\"%d\"} %d\n", d.Disk, d.CorruptReads)
		fmt.Fprintf(w, "oiraid_disk_slow_ops_total{disk=\"%d\"} %d\n", d.Disk, d.SlowOps)
		fmt.Fprintf(w, "oiraid_disk_p99_latency_us{disk=\"%d\"} %g\n", d.Disk, d.P99LatencyUs)
	}
}
