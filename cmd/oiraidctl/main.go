// Command oiraidctl manages a file-backed OI-RAID array — per disk one
// device image and one superblock, plus the metadata journal — through
// the full lifecycle: create, write/read, fail disks, rebuild, scrub.
//
// Usage:
//
//	oiraidctl create  -dir a -disks 9 -cycles 4 -strip 4096
//	oiraidctl status  -dir a
//	oiraidctl write   -dir a -off 0 < file
//	oiraidctl read    -dir a -off 0 -len 4096 > out
//	oiraidctl fail    -dir a -disk 3
//	oiraidctl rebuild -dir a
//	oiraidctl scrub   -dir a
//	oiraidctl fsck    -dir a -repair
//	oiraidctl fsck    -remote http://127.0.0.1:7979 -repair
//	oiraidctl scrub   -remote http://127.0.0.1:7979
//	oiraidctl qos     -remote http://127.0.0.1:7979 -rebuild-rate 8
//	oiraidctl plan    -disks 25 -fail 0,7,13
//	oiraidctl info    -disks 25
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/url"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"github.com/oiraid/oiraid"
	"github.com/oiraid/oiraid/internal/engine"
	"github.com/oiraid/oiraid/internal/server"
	"github.com/oiraid/oiraid/internal/store"
)

func main() {
	if len(os.Args) < 2 {
		usage(os.Stderr)
		os.Exit(2)
	}
	cmd := os.Args[1]
	args := os.Args[2:]
	// `node <add|drain|rejoin|status|migrations>` carries a subverb
	// before the flags.
	nodeSub := ""
	if cmd == "node" {
		if len(args) == 0 {
			usage(os.Stderr)
			os.Exit(2)
		}
		nodeSub = args[0]
		args = args[1:]
	}
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	var (
		dir      = fs.String("dir", "", "array directory")
		disks    = fs.Int("disks", 9, "number of disks")
		cycles   = fs.Int64("cycles", 4, "layout cycles per disk")
		strip    = fs.Int("strip", 4096, "strip size in bytes")
		off      = fs.Int64("off", 0, "byte offset in the data space")
		length   = fs.Int64("len", 0, "bytes to read")
		diskID   = fs.Int("disk", -1, "disk id")
		failIn   = fs.String("fail", "", "comma-separated disk ids")
		remote   = fs.String("remote", "", "oiraidd base URL; run the command against a server instead of -dir")
		fallback = fs.String("fallback", "", "standby coordinator URL; retried once when -remote is unreachable")
		count    = fs.Int("count", 1, "spares to register (spare command)")
		repair   = fs.Bool("repair", false, "fsck: reconstruct damaged strips from redundancy")

		// node-plane flags (node add/drain/rejoin).
		nodeID  = fs.String("id", "", "node commands: node ID")
		nodeURL = fs.String("url", "", "node commands: node base URL (add; optional for rejoin)")

		// Object-plane flags (mb/put/get/rm/ls/stat).
		bucket  = fs.String("bucket", "", "object commands: bucket name")
		key     = fs.String("key", "", "object commands: object key")
		prefix  = fs.String("prefix", "", "ls: only keys with this prefix")
		maxKeys = fs.Int("max", 0, "ls: page size (0: server default)")

		// qos command knobs; -1 leaves a knob unchanged on the server.
		qosRate   = fs.Float64("rebuild-rate", -1, "qos: rebuild batches/sec when idle (0: unpaced, -1: unchanged)")
		qosMin    = fs.Float64("min-rebuild-rate", -1, "qos: rebuild pacing floor under load (-1: unchanged)")
		qosScrub  = fs.Float64("scrub-rate", -1, "qos: background scrub layout cycles/sec when idle (0: off, -1: unchanged)")
		qosTarget = fs.Duration("latency-target", -1, "qos: foreground-latency target (0: no adaptation, -1: unchanged)")
		qosWait   = fs.Duration("admit-wait", -1, "qos: admission wait budget before shedding (-1: unchanged)")
	)
	fs.Parse(args)

	var qu oiraid.QoSUpdate
	if *qosRate >= 0 {
		qu.RebuildRate = qosRate
	}
	if *qosMin >= 0 {
		qu.MinRebuildRate = qosMin
	}
	if *qosScrub >= 0 {
		qu.ScrubRate = qosScrub
	}
	if *qosTarget >= 0 {
		qu.LatencyTarget = qosTarget
	}
	if *qosWait >= 0 {
		qu.AdmitWait = qosWait
	}

	var err error
	if *remote != "" {
		// Remote commands are interruptible: ^C cancels the in-flight
		// request (and its retry loop) instead of orphaning it.
		ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
		defer stop()
		// Buffer stdin up front for body-carrying commands so a fallback
		// retry replays the same bytes instead of a drained pipe.
		var body []byte
		if cmd == "write" || cmd == "put" {
			if body, err = io.ReadAll(os.Stdin); err != nil {
				fmt.Fprintln(os.Stderr, "oiraidctl:", err)
				os.Exit(1)
			}
		}
		run := func(base string) error {
			in := io.Reader(bytes.NewReader(body))
			if isObjectCmd(cmd) {
				return objectCmd(ctx, remotePlane{server.NewClient(base)}, cmd, *bucket, *key, *prefix, *maxKeys, in, os.Stdout)
			}
			if cmd == "node" {
				return remoteNodeCmd(ctx, server.NewClient(base), nodeSub, *nodeID, *nodeURL, os.Stdout)
			}
			return remoteCmd(ctx, server.NewClient(base), cmd, *off, *length, *diskID, *count, *repair, qu, in, os.Stdout)
		}
		err = remoteWithFallback(ctx, *remote, *fallback, run)
		if err != nil {
			fmt.Fprintln(os.Stderr, "oiraidctl:", renderErr(err))
			os.Exit(exitCode(err))
		}
		return
	}
	if isObjectCmd(cmd) {
		ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
		defer stop()
		if err := localObjectCmd(ctx, *dir, cmd, *bucket, *key, *prefix, *maxKeys, os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "oiraidctl:", err)
			os.Exit(1)
		}
		return
	}
	switch cmd {
	case "node":
		err = fmt.Errorf("node commands need -remote (they talk to a cluster coordinator)")
	case "create":
		err = create(*dir, *disks, *cycles, *strip)
	case "status":
		err = status(*dir)
	case "write":
		err = writeCmd(*dir, *off, os.Stdin)
	case "read":
		err = readCmd(*dir, *off, *length, os.Stdout)
	case "fail":
		err = failCmd(*dir, *diskID)
	case "rebuild":
		err = rebuildCmd(*dir)
	case "scrub":
		err = scrubCmd(*dir)
	case "fsck":
		err = fsckCmd(*dir, *repair, os.Stdout)
	case "plan":
		err = planCmd(*disks, *failIn)
	case "info":
		err = infoCmd(*disks)
	case "export":
		err = exportCmd(os.Stdout, *disks)
	case "analyze":
		err = analyzeCmd(os.Stdin, os.Stdout, *failIn)
	default:
		usage(os.Stderr)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "oiraidctl:", renderErr(err))
		os.Exit(exitCode(err))
	}
}

// remoteWithFallback runs a remote command against the primary
// coordinator and, when that fails with a connectivity error (dead
// coordinator, open circuit breaker) and a fallback address is
// configured, retries once against the fallback — a standby may have
// taken over there. Exactly one retry: a cluster where both
// coordinators are gone still exits 3. Array faults (exit 1) never
// fail over; a second coordinator would report the same fault.
func remoteWithFallback(ctx context.Context, primary, fallback string, run func(base string) error) error {
	err := run(primary)
	if fallback != "" && unreachable(err) && ctx.Err() == nil {
		fmt.Fprintf(os.Stderr, "oiraidctl: %s unreachable, retrying against fallback %s\n", primary, fallback)
		err = run(fallback)
	}
	return err
}

// unreachable reports a connectivity failure rather than an array fault:
// the CLI-side circuit breaker refusing calls to a dead coordinator, or
// the coordinator reporting a storage node unreachable mid-operation.
// Scripts can tell "node down, retry later" (exit 3) apart from real
// failures (exit 1) without parsing error text.
func unreachable(err error) bool {
	if errors.Is(err, server.ErrCircuitOpen) || errors.Is(err, store.ErrUnreachable) {
		return true
	}
	// A transport-level failure reaching the coordinator itself (refused,
	// reset, DNS, dial timeout) is the same class: nothing wrong with the
	// array, just nobody answering at that address. This is also what a
	// dead leader looks like to -fallback before any breaker trips.
	var ue *url.Error
	return errors.As(err, &ue)
}

func exitCode(err error) int {
	if unreachable(err) {
		return 3
	}
	return 1
}

func renderErr(err error) string {
	if unreachable(err) {
		return fmt.Sprintf("node unreachable (will retry once it returns): %v", err)
	}
	return err.Error()
}

func usage(w io.Writer) {
	fmt.Fprintln(w, `usage: oiraidctl <create|status|write|read|fail|rebuild|scrub|fsck|plan|info|export|analyze|metrics|health|spare|qos|quarantine|release|mb|put|get|rm|ls|stat> [flags]

  export  -disks N               write the layout as JSON to stdout
  analyze [-fail 0,1] < layout   validate a custom layout JSON and report its properties
  fsck    [-repair]              verify durable checksums and both parity layers;
                                 -repair reconstructs damaged strips from redundancy

Node membership commands (cluster coordinators only; need -remote URL):
  node add    -id n4 -url http://…  join a storage node and rebalance onto it
  node drain  -id n2                migrate every disk off a node, then remove it
  node rejoin -id n2 [-url http://…] bring a known node back (zero movement
                                    inside the grace window; delta-only after)
  node status                       membership, reachability, per-node disks
  node migrations                   in-flight strip migrations with progress

Object commands (work with -remote URL or a durable -dir array):
  mb   -bucket b                 create a bucket
  put  -bucket b -key k < file   store an object (stdin)
  get  -bucket b -key k > file   fetch an object (stdout)
  stat -bucket b -key k          print object metadata as JSON
  rm   -bucket b [-key k]        remove an object, or an empty bucket
  ls   [-bucket b] [-prefix p]   list buckets, or a bucket's objects

With -remote URL the status, write, read, fail, rebuild, scrub, fsck,
metrics, health, spare, qos, quarantine, and release commands run against
an oiraidd server instead of a local -dir array. health prints per-disk
error/latency counters (incl. the p99 estimate and quarantine state);
spare registers -count hot spares with the server's auto-rebuild pool;
quarantine -disk N makes reads reconstruct around a slow disk while
writes still land on it, and release -disk N lifts that; qos reads the
live pacing knobs, or sets the ones passed via -rebuild-rate,
-min-rebuild-rate, -scrub-rate, -latency-target, and
-admit-wait (-1 leaves a knob unchanged). When the coordinator runs with
a standby (oiraidd -standby), -fallback URL retries the command once
against the standby if -remote is unreachable.`)
}

// withArray mounts the array in dir (superblock consensus + journal
// replay; geometry comes from media), runs fn, and seals the array again
// on every return path — so a verb that fails, or finds nothing to do,
// still leaves the clean flag set for the next mount. fn's error wins
// over the seal's.
func withArray(dir string, fn func(mnt *oiraid.Mount, g *oiraid.Geometry) error) error {
	if dir == "" {
		return fmt.Errorf("need -dir")
	}
	mnt, g, err := oiraid.MountDir(dir)
	if err != nil {
		return fmt.Errorf("mount %s: %w", dir, err)
	}
	if len(mnt.Blank) > 0 {
		fmt.Fprintf(os.Stderr, "images of disks %v unusable; attached blank devices\n", mnt.Blank)
	}
	if !mnt.WasClean || len(mnt.Detected) > 0 || mnt.Replayed > 0 {
		fmt.Fprintf(os.Stderr, "mounted array %s epoch %d (clean=%v, newly detected=%v, closures replayed=%d)\n",
			mnt.Meta.UUIDString(), mnt.Meta.Epoch(), mnt.WasClean, mnt.Detected, mnt.Replayed)
	}
	err = fn(mnt, g)
	if serr := mnt.Array.SealMeta(); err == nil {
		err = serr
	}
	return err
}

func create(dir string, disks int, cycles int64, strip int) error {
	if dir == "" {
		return fmt.Errorf("need -dir")
	}
	g, err := oiraid.NewGeometry(disks)
	if err != nil {
		return err
	}
	mnt, err := oiraid.FormatDir(g, dir, cycles, strip)
	if err != nil {
		return err
	}
	arr := mnt.Array
	// Initialise parity (and per-strip checksums, recorded through the
	// durable wrappers) by writing zeros over the data space.
	zero := make([]byte, 1<<16)
	var offset int64
	for offset < arr.Capacity() {
		n := int64(len(zero))
		if offset+n > arr.Capacity() {
			n = arr.Capacity() - offset
		}
		if _, err := arr.WriteAt(zero[:n], offset); err != nil {
			return err
		}
		offset += n
	}
	if err := arr.SealMeta(); err != nil {
		return err
	}
	fmt.Printf("created %s (array %s)\ncapacity: %d bytes usable\n", g, mnt.Meta.UUIDString(), arr.Capacity())
	return nil
}

// stripPlane is what the write, read, scrub and fsck verbs need from the
// array they drive: one mounted from -dir, or an oiraidd server behind
// -remote (a *server.Client as it is).
type stripPlane interface {
	WriteAtCtx(ctx context.Context, p []byte, off int64) (int, error)
	ReadAtCtx(ctx context.Context, p []byte, off int64) (int, error)
	ScrubCtx(ctx context.Context) (int, error)
	FsckCtx(ctx context.Context, repair bool) (*store.FsckReport, error)
}

// localStrips is a mounted array; its operations run to completion, so the
// context goes unused.
type localStrips struct{ arr *oiraid.Array }

func (l localStrips) WriteAtCtx(_ context.Context, p []byte, off int64) (int, error) {
	return l.arr.WriteAt(p, off)
}
func (l localStrips) ReadAtCtx(_ context.Context, p []byte, off int64) (int, error) {
	return l.arr.ReadAt(p, off)
}
func (l localStrips) ScrubCtx(context.Context) (int, error) { return l.arr.Scrub() }
func (l localStrips) FsckCtx(_ context.Context, repair bool) (*store.FsckReport, error) {
	return l.arr.Fsck(repair)
}

// stripCmd runs one strip verb — write, read, scrub or fsck — against
// either plane. fsck is the scrub's two-layer check with a report — every
// stripe of both layers read once, its strips against their durable
// checksums and the stripe against its parity; with repair, damaged strips
// are reconstructed from redundancy. A dirty array (damage
// found and not repaired) is an error.
func stripCmd(ctx context.Context, s stripPlane, cmd string, off, length int64, repair bool, in io.Reader, out io.Writer) error {
	switch cmd {
	case "write":
		data, err := io.ReadAll(in)
		if err != nil {
			return err
		}
		n, err := s.WriteAtCtx(ctx, data, off)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %d bytes at offset %d\n", n, off)
		return nil
	case "read":
		if length <= 0 {
			return fmt.Errorf("need -len > 0")
		}
		buf := make([]byte, length)
		n, err := s.ReadAtCtx(ctx, buf, off)
		if err != nil && !errors.Is(err, io.EOF) {
			return err
		}
		_, werr := out.Write(buf[:n])
		return werr
	case "scrub":
		bad, err := s.ScrubCtx(ctx)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "scrub: %d inconsistent stripes\n", bad)
		if bad > 0 {
			return fmt.Errorf("%d inconsistent stripe(s)", bad)
		}
		return nil
	default: // "fsck"
		rep, err := s.FsckCtx(ctx, repair)
		if err != nil {
			return err
		}
		return printFsckReport(rep, out)
	}
}

// localStripCmd runs a strip verb against the array mounted from dir.
func localStripCmd(dir, cmd string, off, length int64, repair bool, in io.Reader, out io.Writer) error {
	return withArray(dir, func(mnt *oiraid.Mount, _ *oiraid.Geometry) error {
		return stripCmd(context.Background(), localStrips{mnt.Array}, cmd, off, length, repair, in, out)
	})
}

func writeCmd(dir string, off int64, in io.Reader) error {
	return localStripCmd(dir, "write", off, 0, false, in, nil)
}

func readCmd(dir string, off, length int64, out io.Writer) error {
	return localStripCmd(dir, "read", off, length, false, nil, out)
}

func scrubCmd(dir string) error {
	return localStripCmd(dir, "scrub", 0, 0, false, nil, os.Stdout)
}

func fsckCmd(dir string, repair bool, out io.Writer) error {
	return localStripCmd(dir, "fsck", 0, 0, repair, nil, out)
}

// adminPlane is what the status, fail and rebuild verbs need from the array
// they drive: one mounted from -dir, or an oiraidd server behind -remote (a
// *server.Client as it is).
type adminPlane interface {
	StatusCtx(ctx context.Context) (engine.Status, error)
	FailDiskCtx(ctx context.Context, d int) error
	RebuildCtx(ctx context.Context, wait bool) error
}

// localAdmin is a mounted array; its operations run to completion, so the
// context goes unused.
type localAdmin struct {
	mnt *oiraid.Mount
	g   *oiraid.Geometry
}

func (l localAdmin) StatusCtx(context.Context) (engine.Status, error) {
	arr, failed := l.mnt.Array, l.mnt.Array.FailedDisks()
	return engine.Status{
		Disks: l.g.Disks(), Cycles: arr.Cycles(), StripBytes: arr.StripBytes(), Capacity: arr.Capacity(),
		Failed: failed, Exposure: l.g.Exposure(failed, 3),
		ArrayUUID: l.mnt.Meta.UUIDString(), MetaEpoch: l.mnt.Meta.Epoch(),
	}, nil
}

// FailDiskCtx evicts a disk: the transition is committed to the journal and
// superblocks before it is acknowledged, so a restart cannot resurrect the
// disk.
func (l localAdmin) FailDiskCtx(_ context.Context, d int) error {
	for _, f := range l.mnt.Array.FailedDisks() {
		if f == d {
			return fmt.Errorf("disk %d already failed", d)
		}
	}
	return l.mnt.Array.FailDisk(d)
}

// RebuildCtx rebuilds every failed disk onto a fresh image in the directory.
func (l localAdmin) RebuildCtx(context.Context, bool) error {
	for _, d := range l.mnt.Array.FailedDisks() {
		dev, err := l.mnt.Replace(d)
		if err != nil {
			return err
		}
		if err := l.mnt.Array.ReplaceDisk(d, dev); err != nil {
			return err
		}
	}
	return l.mnt.Array.Rebuild()
}

// adminCmd runs one of status, fail and rebuild against either plane.
func adminCmd(ctx context.Context, p adminPlane, cmd string, d int, out io.Writer) error {
	if cmd == "fail" {
		if err := p.FailDiskCtx(ctx, d); err != nil {
			return err
		}
	}
	st, err := p.StatusCtx(ctx)
	if err != nil {
		return err
	}
	switch cmd {
	case "fail":
		fmt.Fprintf(out, "disk %d marked failed; pattern %v recoverable: %v\n", d, st.Failed, st.Exposure.Recoverable)
	case "rebuild":
		if len(st.Failed) == 0 {
			fmt.Fprintln(out, "nothing to rebuild")
			return nil
		}
		if err := p.RebuildCtx(ctx, true); err != nil {
			return err
		}
		fmt.Fprintf(out, "rebuilt disks %v\n", st.Failed)
	default: // "status"
		printStatus(st, out)
	}
	return nil
}

// localAdminCmd runs an admin verb against the array mounted from dir.
func localAdminCmd(dir, cmd string, d int) error {
	return withArray(dir, func(mnt *oiraid.Mount, g *oiraid.Geometry) error {
		return adminCmd(context.Background(), localAdmin{mnt, g}, cmd, d, os.Stdout)
	})
}

func status(dir string) error { return localAdminCmd(dir, "status", -1) }

func failCmd(dir string, d int) error { return localAdminCmd(dir, "fail", d) }

func rebuildCmd(dir string) error { return localAdminCmd(dir, "rebuild", -1) }

func printFsckReport(rep *store.FsckReport, out io.Writer) error {
	fmt.Fprintf(out, "fsck: %d strips, %d stripes over %d cycle(s): %d checksum error(s), %d parity error(s), %d repaired\n",
		rep.StripsChecked, rep.StripesChecked, rep.Cycles, rep.ChecksumErrors, rep.ParityErrors, rep.Repaired)
	for _, is := range rep.Issues {
		fmt.Fprintln(out, " ", is)
	}
	if rep.Truncated {
		fmt.Fprintln(out, "  … issue list truncated; counters cover everything")
	}
	if !rep.Clean {
		return fmt.Errorf("array is dirty: %d unrepaired issue(s); run with -repair to reconstruct from redundancy",
			rep.ChecksumErrors+rep.ParityErrors-rep.Repaired)
	}
	fmt.Fprintln(out, "clean")
	return nil
}

// remoteCmd routes a command to an oiraidd server through the HTTP
// client; only the operational subcommands exist remotely. The context
// bounds every request (and its client-side retry loop).
func remoteCmd(ctx context.Context, c *server.Client, cmd string, off, length int64, diskID, count int, repair bool, qu oiraid.QoSUpdate, in io.Reader, out io.Writer) error {
	switch cmd {
	case "write", "read", "scrub", "fsck":
		return stripCmd(ctx, c, cmd, off, length, repair, in, out)
	case "status", "fail", "rebuild":
		return adminCmd(ctx, c, cmd, diskID, out)
	case "quarantine":
		if err := c.QuarantineCtx(ctx, diskID); err != nil {
			return err
		}
		fmt.Fprintf(out, "disk %d quarantined (reads reconstruct around it; writes still land)\n", diskID)
		return nil
	case "release":
		if err := c.ReleaseCtx(ctx, diskID); err != nil {
			return err
		}
		fmt.Fprintf(out, "disk %d released from quarantine\n", diskID)
		return nil
	case "metrics":
		m, err := c.MetricsCtx(ctx)
		if err != nil {
			return err
		}
		fmt.Fprint(out, m)
		return nil
	case "health":
		return remoteHealth(ctx, c, out)
	case "spare":
		n, err := c.AddSparesCtx(ctx, count)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "spare pool: %d device(s)\n", n)
		return nil
	case "qos":
		return remoteQoS(ctx, c, qu, out)
	default:
		return fmt.Errorf("command %q is not available with -remote", cmd)
	}
}

// remoteNodeCmd drives the coordinator's membership plane: online node
// add/drain/rejoin plus status and migration views.
func remoteNodeCmd(ctx context.Context, c *server.Client, sub, id, url string, out io.Writer) error {
	switch sub {
	case "status":
		nodes, err := c.NodesCtx(ctx)
		if err != nil {
			return err
		}
		for _, n := range nodes {
			fmt.Fprintf(out, "node %-10s %-9s disks %v  %s\n", n.ID, n.State, n.Disks, n.URL)
		}
		migs, err := c.MigrationsCtx(ctx)
		if err != nil {
			return err
		}
		for _, m := range migs {
			fmt.Fprintf(out, "migrating disk %d: %s -> %s (%d/%d cycles)\n",
				m.Disk, m.From, m.To, m.Cursor, m.Cycles)
		}
		return nil
	case "migrations":
		migs, err := c.MigrationsCtx(ctx)
		if err != nil {
			return err
		}
		if len(migs) == 0 {
			fmt.Fprintln(out, "no migrations in flight")
			return nil
		}
		for _, m := range migs {
			fmt.Fprintf(out, "disk %d: %s -> %s (%d/%d cycles)\n", m.Disk, m.From, m.To, m.Cursor, m.Cycles)
		}
		return nil
	case "add":
		if id == "" || url == "" {
			return fmt.Errorf("node add needs -id and -url")
		}
		rep, err := c.NodeAddCtx(ctx, id, url)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "node %s joined; migrated disks %v\n", id, rep.Moved)
		return nil
	case "drain":
		if id == "" {
			return fmt.Errorf("node drain needs -id")
		}
		rep, err := c.NodeDrainCtx(ctx, id)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "node %s drained and removed; migrated disks %v\n", id, rep.Moved)
		return nil
	case "rejoin":
		if id == "" {
			return fmt.Errorf("node rejoin needs -id")
		}
		rep, err := c.NodeRejoinCtx(ctx, id, url)
		if err != nil {
			return err
		}
		if len(rep.Moved) == 0 {
			fmt.Fprintf(out, "node %s rejoined with zero movement (inside grace window)\n", id)
		} else {
			fmt.Fprintf(out, "node %s rejoined; migrated disks %v back\n", id, rep.Moved)
		}
		return nil
	default:
		return fmt.Errorf("unknown node subcommand %q (add|drain|rejoin|status|migrations)", sub)
	}
}

// remoteQoS reads the server's QoS state, or applies the knobs the user
// passed and prints the resulting state.
func remoteQoS(ctx context.Context, c *server.Client, qu oiraid.QoSUpdate, out io.Writer) error {
	var (
		st  oiraid.QoSState
		err error
	)
	if qu == (oiraid.QoSUpdate{}) {
		st, err = c.QoSCtx(ctx)
	} else {
		st, err = c.SetQoSCtx(ctx, qu)
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "admission: depth %d, wait %v (queued %d, shed %d, inflight %d)\n",
		st.AdmitDepth, st.AdmitWait, st.Queued, st.Shed, st.Inflight)
	fmt.Fprintf(out, "rebuild: %g batches/s configured, floor %g, effective %g\n",
		st.RebuildRate, st.MinRebuildRate, st.EffectiveRebuildRate)
	fmt.Fprintf(out, "scrub: %g cycles/s; grants: rebuild %d, copy %d, operator %d, scrub %d\n", st.ScrubRate,
		st.Grants.Rebuild, st.Grants.Copy, st.Grants.Operator, st.Grants.Scrub)
	fmt.Fprintf(out, "latency: target %v, foreground EWMA %.1fµs\n", st.LatencyTarget, st.ForegroundEWMAUs)
	return nil
}

func remoteHealth(ctx context.Context, c *server.Client, w io.Writer) error {
	h, err := c.HealthCtx(ctx)
	if err != nil {
		return err
	}
	mode := "monitor-only"
	if h.AutoHeal {
		mode = fmt.Sprintf("auto-heal after %d error(s)", h.Policy.EvictAfter)
	}
	fmt.Fprintf(w, "policy: %s; spares: %d available, %d used; evictions: %d; auto-rebuilds: %d\n",
		mode, h.Spares, h.SparesUsed, h.Evictions, h.AutoRebuilds)
	fmt.Fprintf(w, "quarantines: %d entered, %d released, %d escalated to eviction\n",
		h.Quarantines, h.QuarantineReleases, h.QuarantineEscalations)
	for _, d := range h.Disks {
		fmt.Fprintf(w, "disk %2d  %-11s ops %-8d errors %-4d transient %-4d absorbed %-4d corrupt %-4d slow %-4d quar %-3d mean %.1fµs p99 %.1fµs\n",
			d.Disk, d.State, d.Ops, d.Errors, d.TransientErrors, d.RetriesAbsorbed,
			d.CorruptReads, d.SlowOps, d.Quarantines, d.MeanLatencyUs, d.P99LatencyUs)
	}
	return nil
}

// printStatus renders a status report, the same for both planes.
func printStatus(st engine.Status, w io.Writer) {
	fmt.Fprintf(w, "%d disks, %d cycles, strip: %d B, usable capacity: %d B\n",
		st.Disks, st.Cycles, st.StripBytes, st.Capacity)
	if st.ArrayUUID != "" {
		fmt.Fprintf(w, "array: %s, meta epoch %d\n", st.ArrayUUID, st.MetaEpoch)
	}
	if st.Mode != "" && st.Mode != "normal" {
		fmt.Fprintf(w, "mode: %s", st.Mode)
		if len(st.Down) > 0 {
			fmt.Fprintf(w, ", down disks %v", st.Down)
		}
		if st.WritesFenced > 0 {
			fmt.Fprintf(w, ", %d writes fenced", st.WritesFenced)
		}
		fmt.Fprintln(w)
	}
	switch {
	case len(st.Failed) == 0:
		fmt.Fprintln(w, "state: healthy")
	case st.Rebuilding:
		fmt.Fprintf(w, "state: rebuilding, failed disks %v, %d/%d cycles done\n",
			st.Failed, st.Rebuilt, st.Cycles)
	case !st.Exposure.Recoverable:
		fmt.Fprintf(w, "state: FAILED — pattern %v exceeds fault tolerance (data loss)\n", st.Failed)
	case len(st.Exposure.CriticalDisks) > 0:
		fmt.Fprintf(w, "state: degraded, failed disks %v — CRITICAL: losing any of disks %v would lose data\n",
			st.Failed, st.Exposure.CriticalDisks)
	default:
		fmt.Fprintf(w, "state: degraded, failed disks %v — %d further arbitrary failure(s) still survivable\n",
			st.Failed, st.Exposure.Slack)
	}
}

func planCmd(disks int, failList string) error {
	g, err := oiraid.NewGeometry(disks)
	if err != nil {
		return err
	}
	var failed []int
	if failList != "" {
		for _, part := range strings.Split(failList, ",") {
			d, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				return fmt.Errorf("bad disk id %q", part)
			}
			failed = append(failed, d)
		}
	}
	plan := g.Plan(failed)
	fmt.Println(g)
	fmt.Println(plan)
	if !plan.Complete {
		fmt.Printf("DATA LOSS: %d strips unrecoverable\n", len(plan.Unrecovered))
		return nil
	}
	inner, outer := 0, 0
	for _, t := range plan.Tasks {
		if t.Layer == 0 {
			inner++
		} else {
			outer++
		}
	}
	fmt.Printf("tasks: %d inner-layer, %d outer-layer, %d phases\n", inner, outer, plan.Phases)
	return nil
}

func exportCmd(w io.Writer, disks int) error {
	g, err := oiraid.NewGeometry(disks)
	if err != nil {
		return err
	}
	return oiraid.ExportLayoutJSON(g, w)
}

func analyzeCmd(r io.Reader, w io.Writer, failList string) error {
	an, err := oiraid.AnalyzerFromLayoutJSON(r)
	if err != nil {
		return err
	}
	p := an.MeasureProperties(3)
	fmt.Fprintf(w, "layout %s: %d disks, %d strips/disk, %d stripes/cycle\n",
		an.Scheme().Name(), an.Disks(), an.SlotsPerDisk(), len(an.Scheme().Stripes()))
	fmt.Fprintf(w, "usable: %.1f%%  tolerance: %d  update-writes: %.1f  rebuild speedup: %.1f×\n",
		100*p.DataFraction, p.GuaranteedTolerance, p.UpdateWrites, p.RecoverySpeedup)
	if failList != "" {
		var failed []int
		for _, part := range strings.Split(failList, ",") {
			d, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				return fmt.Errorf("bad disk id %q", part)
			}
			failed = append(failed, d)
		}
		plan := an.Plan(failed, oiraid.PlanOptions{})
		fmt.Fprintln(w, plan)
	}
	return nil
}

func infoCmd(disks int) error {
	g, err := oiraid.NewGeometry(disks)
	if err != nil {
		return err
	}
	fmt.Println(g)
	p := g.Properties(3)
	fmt.Printf("guaranteed fault tolerance : %d disks\n", p.GuaranteedTolerance)
	fmt.Printf("small-write cost           : %.0f strip writes\n", p.UpdateWrites)
	fmt.Printf("rebuild speedup vs RAID5   : %.1f×\n", p.RecoverySpeedup)
	fmt.Printf("rebuild read sequentiality : %.1f runs/survivor\n", p.RecoverySeqRuns)
	return nil
}
