package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/iotest"

	"github.com/oiraid/oiraid"
	"github.com/oiraid/oiraid/internal/server"
	"github.com/oiraid/oiraid/internal/store"
)

// TestLifecycle drives the full command surface against a temp directory:
// create → write → read → fail×3 → degraded read → rebuild → scrub.
func TestLifecycle(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "arr")
	if err := create(dir, 9, 2, 512); err != nil {
		t.Fatal(err)
	}
	if err := status(dir); err != nil {
		t.Fatal(err)
	}

	payload := make([]byte, 5000)
	rand.New(rand.NewSource(1)).Read(payload)
	if err := writeCmd(dir, 100, bytes.NewReader(payload)); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := readCmd(dir, 100, int64(len(payload)), &out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), payload) {
		t.Fatal("read back differs")
	}

	for _, d := range []int{2, 5, 7} {
		if err := failCmd(dir, d); err != nil {
			t.Fatal(err)
		}
	}
	if err := failCmd(dir, 2); err == nil {
		t.Fatal("double-failing a disk must error")
	}
	if err := failCmd(dir, 99); err == nil {
		t.Fatal("failing an unknown disk must error")
	}

	out.Reset()
	if err := readCmd(dir, 100, int64(len(payload)), &out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), payload) {
		t.Fatal("degraded read differs")
	}

	if err := rebuildCmd(dir); err != nil {
		t.Fatal(err)
	}
	if err := scrubCmd(dir); err != nil {
		t.Fatal(err)
	}
	if mnt := remount(t, dir); len(mnt.Failed) != 0 || !mnt.WasClean {
		t.Fatalf("after rebuild+scrub: failed %v, clean %v", mnt.Failed, mnt.WasClean)
	}
	// Content survives a full reopen after rebuild.
	out.Reset()
	if err := readCmd(dir, 100, int64(len(payload)), &out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), payload) {
		t.Fatal("content differs after rebuild")
	}
}

// remount mounts dir the way every local verb does, seals it again (a
// mount clears the clean flag) and returns what the mount found.
func remount(t *testing.T, dir string) *oiraid.Mount {
	t.Helper()
	mnt, _, err := oiraid.MountDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := mnt.Array.SealMeta(); err != nil {
		t.Fatal(err)
	}
	return mnt
}

func imgPath(dir string, i int) string { return filepath.Join(dir, fmt.Sprintf("disk%02d.img", i)) }

// TestEarlyReturnsSeal: a verb that has nothing to do, is called wrong,
// or fails partway still seals the array, so the next mount is clean.
func TestEarlyReturnsSeal(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "arr")
	if err := create(dir, 9, 1, 512); err != nil {
		t.Fatal(err)
	}
	for name, verb := range map[string]func() error{
		"rebuild with nothing failed": func() error { return rebuildCmd(dir) },
		"read without -len":           func() error { return readCmd(dir, 0, 0, io.Discard) },
		"write with failing stdin":    func() error { return writeCmd(dir, 0, iotest.ErrReader(io.ErrUnexpectedEOF)) },
		"write past the end":          func() error { return writeCmd(dir, 1<<40, strings.NewReader("x")) },
		"fail of an unknown disk":     func() error { return failCmd(dir, 99) },
		"stat of a missing object": func() error {
			return localObjectCmd(context.Background(), dir, "stat", "nope", "nope", "", 0, nil, io.Discard)
		},
	} {
		err := verb()
		if (err == nil) != (name == "rebuild with nothing failed") {
			t.Fatalf("%s: err %v", name, err)
		}
		if mnt := remount(t, dir); !mnt.WasClean {
			t.Fatalf("%s left the array unsealed", name)
		}
	}
}

// TestRemoteLifecycle drives the -remote command path against an
// in-process oiraidd: write → read → fail → degraded read → rebuild →
// status/metrics.
func TestRemoteLifecycle(t *testing.T) {
	g, err := oiraid.NewGeometry(9)
	if err != nil {
		t.Fatal(err)
	}
	arr, err := oiraid.NewMemArray(g, 2, 512)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := oiraid.NewEngine(arr, oiraid.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	srv := oiraid.NewServer(eng, oiraid.ServerOptions{})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		eng.Close()
	})
	c := server.NewClient(ts.URL)
	rc := func(cmd string, off, length int64, diskID int, in io.Reader, out io.Writer) error {
		return remoteCmd(context.Background(), c, cmd, off, length, diskID, 1, false, oiraid.QoSUpdate{}, in, out)
	}

	payload := make([]byte, 3000)
	rand.New(rand.NewSource(9)).Read(payload)
	if err := rc("write", 64, 0, -1, bytes.NewReader(payload), io.Discard); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := rc("read", 64, int64(len(payload)), -1, nil, &out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), payload) {
		t.Fatal("remote read back differs")
	}

	out.Reset()
	if err := rc("fail", 0, 0, 4, nil, &out); err != nil {
		t.Fatal(err)
	}
	if want := "disk 4 marked failed; pattern [4] recoverable: true\n"; out.String() != want {
		t.Fatalf("fail printed %q, want %q as with -dir", out.String(), want)
	}
	out.Reset()
	if err := rc("status", 0, 0, -1, nil, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "degraded") {
		t.Fatalf("status after failure: %s", out.String())
	}
	out.Reset()
	if err := rc("read", 64, int64(len(payload)), -1, nil, &out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), payload) {
		t.Fatal("remote degraded read differs")
	}

	out.Reset()
	if err := rc("rebuild", 0, 0, -1, nil, &out); err != nil {
		t.Fatal(err)
	}
	if want := "rebuilt disks [4]\n"; out.String() != want {
		t.Fatalf("rebuild printed %q, want %q as with -dir", out.String(), want)
	}
	out.Reset()
	if err := rc("status", 0, 0, -1, nil, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "healthy") {
		t.Fatalf("status after rebuild: %s", out.String())
	}
	out.Reset()
	if err := rc("metrics", 0, 0, -1, nil, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "oiraid_engine_writes_total") {
		t.Fatalf("metrics output: %s", out.String())
	}
	out.Reset()
	if err := rc("spare", 0, 0, -1, nil, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "spare pool: 1") {
		t.Fatalf("spare output: %s", out.String())
	}
	out.Reset()
	if err := rc("health", 0, 0, -1, nil, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "disk  0") || !strings.Contains(out.String(), "spares: 1 available") {
		t.Fatalf("health output: %s", out.String())
	}
	out.Reset()
	if err := rc("scrub", 0, 0, -1, nil, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "0 inconsistent stripes") {
		t.Fatalf("scrub output: %s", out.String())
	}
	out.Reset()
	if err := rc("qos", 0, 0, -1, nil, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "admission: depth 0") {
		t.Fatalf("qos output: %s", out.String())
	}
	out.Reset()
	rate := 8.0
	if err := remoteCmd(context.Background(), c, "qos", 0, 0, -1, 1, false,
		oiraid.QoSUpdate{RebuildRate: &rate}, nil, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "rebuild: 8 batches/s") {
		t.Fatalf("qos set output: %s", out.String())
	}
	if err := rc("create", 0, 0, -1, nil, io.Discard); err == nil {
		t.Fatal("create must be rejected with -remote")
	}
	if err := rc("read", 0, 0, -1, nil, io.Discard); err == nil {
		t.Fatal("read without -len must fail")
	}
}

// TestLocalFsck corrupts a device image while the array is cold and
// drives the local fsck path: check-only reports the damage and exits
// dirty, -repair reconstructs from redundancy, and the content survives.
func TestLocalFsck(t *testing.T) {
	const strip = 512
	dir := filepath.Join(t.TempDir(), "arr")
	if err := create(dir, 9, 2, strip); err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 4*strip)
	rand.New(rand.NewSource(3)).Read(payload)
	if err := writeCmd(dir, 0, bytes.NewReader(payload)); err != nil {
		t.Fatal(err)
	}

	// Damage logical strip 0 (data strip 0 of cycle 0) on raw media.
	g, err := oiraid.NewGeometry(9)
	if err != nil {
		t.Fatal(err)
	}
	target := g.Analyzer().Scheme().DataStrips()[0]
	img, err := os.OpenFile(imgPath(dir, target.Disk), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	garbage := make([]byte, strip)
	for i := range garbage {
		garbage[i] = 0xcc
	}
	if _, err := img.WriteAt(garbage, int64(target.Slot)*strip); err != nil {
		t.Fatal(err)
	}
	if err := img.Close(); err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	if err := fsckCmd(dir, false, &out); err == nil {
		t.Fatalf("check-only fsck on damaged array must exit dirty; output:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "checksum: cycle 0") {
		t.Fatalf("fsck output does not name the damaged strip:\n%s", out.String())
	}
	out.Reset()
	if err := fsckCmd(dir, true, &out); err != nil {
		t.Fatalf("fsck -repair: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "clean") {
		t.Fatalf("fsck -repair output:\n%s", out.String())
	}
	out.Reset()
	if err := fsckCmd(dir, false, &out); err != nil {
		t.Fatalf("fsck after repair: %v", err)
	}
	out.Reset()
	if err := readCmd(dir, 0, int64(len(payload)), &out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), payload) {
		t.Fatal("content differs after repair")
	}
}

// TestUsageNamesObjectVerbs: the usage synopsis names every verb, and the
// object plane takes exactly the verbs its section of the usage lists.
func TestUsageNamesObjectVerbs(t *testing.T) {
	var out bytes.Buffer
	usage(&out)
	text := out.String()
	synopsis := text[strings.Index(text, "<")+1 : strings.Index(text, ">")]
	object := text[strings.Index(text, "Object commands"):]
	object = object[:strings.Index(object, "\n\n")]
	verbs := strings.Split(synopsis, "|")
	if len(verbs) < 20 {
		t.Fatalf("synopsis %q names %d verbs", synopsis, len(verbs))
	}
	for _, verb := range verbs {
		if listed := strings.Contains(object, "\n  "+verb+" "); isObjectCmd(verb) != listed {
			t.Errorf("verb %s: isObjectCmd %v, listed among object commands %v", verb, isObjectCmd(verb), listed)
		}
	}
}

func TestCreateValidation(t *testing.T) {
	if err := create("", 9, 1, 512); err == nil {
		t.Fatal("empty dir must fail")
	}
	if err := create(t.TempDir(), 10, 1, 512); err == nil {
		t.Fatal("unsupported disk count must fail")
	}
}

func TestOpenMissing(t *testing.T) {
	if err := status(filepath.Join(t.TempDir(), "nope")); !errors.Is(err, store.ErrNoSuperblock) {
		t.Fatalf("missing array: err %v, want ErrNoSuperblock", err)
	}
	if err := status(""); err == nil {
		t.Fatal("empty dir must fail")
	}
}

func TestPlanAndInfo(t *testing.T) {
	if err := planCmd(9, "0,4,8"); err != nil {
		t.Fatal(err)
	}
	if err := planCmd(9, ""); err != nil {
		t.Fatal(err)
	}
	if err := planCmd(9, "a,b"); err == nil {
		t.Fatal("bad disk list must fail")
	}
	if err := planCmd(10, ""); err == nil {
		t.Fatal("unsupported disk count must fail")
	}
	if err := infoCmd(16); err != nil {
		t.Fatal(err)
	}
}

func TestReadValidation(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "arr")
	if err := create(dir, 9, 1, 512); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := readCmd(dir, 0, 0, &out); err == nil {
		t.Fatal("len 0 must fail")
	}
	if err := rebuildCmd(dir); err != nil {
		t.Fatal(err) // nothing to rebuild is not an error
	}
}

func TestExportAnalyzeRoundTrip(t *testing.T) {
	var layoutJSON bytes.Buffer
	if err := exportCmd(&layoutJSON, 9); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := analyzeCmd(bytes.NewReader(layoutJSON.Bytes()), &out, "0,4"); err != nil {
		t.Fatal(err)
	}
	report := out.String()
	for _, want := range []string{"tolerance: 3", "speedup: 4.0", "complete=true"} {
		if !bytes.Contains([]byte(report), []byte(want)) {
			t.Fatalf("analyze output missing %q:\n%s", want, report)
		}
	}
	if err := analyzeCmd(bytes.NewReader([]byte("{")), &out, ""); err == nil {
		t.Fatal("broken layout JSON must fail")
	}
	if err := exportCmd(&out, 11); err == nil {
		t.Fatal("unsupported disk count must fail")
	}
}

// TestUnreachableExit pins the connectivity-vs-failure exit taxonomy:
// circuit-open and node-unreachable errors exit 3 with a "node
// unreachable" message; everything else keeps the generic exit 1.
func TestUnreachableExit(t *testing.T) {
	for _, err := range []error{
		server.ErrCircuitOpen,
		store.ErrUnreachable,
		fmt.Errorf("write strip 7: %w", store.ErrUnreachable),
	} {
		if exitCode(err) != 3 {
			t.Fatalf("exitCode(%v) = %d, want 3", err, exitCode(err))
		}
		if !strings.Contains(renderErr(err), "node unreachable") {
			t.Fatalf("renderErr(%v) = %q, want a node-unreachable hint", err, renderErr(err))
		}
	}
	plain := errors.New("disk on fire")
	if exitCode(plain) != 1 || strings.Contains(renderErr(plain), "unreachable") {
		t.Fatalf("generic error mis-rendered: %d %q", exitCode(plain), renderErr(plain))
	}
}

// TestFallbackRetry pins the -fallback contract: a connectivity failure
// against the primary coordinator is retried exactly once against the
// fallback address (where a standby may have taken over); array faults
// and a missing fallback never retry.
func TestFallbackRetry(t *testing.T) {
	g, err := oiraid.NewGeometry(9)
	if err != nil {
		t.Fatal(err)
	}
	arr, err := oiraid.NewMemArray(g, 1, 512)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := oiraid.NewEngine(arr, oiraid.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	srv := oiraid.NewServer(eng, oiraid.ServerOptions{})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		eng.Close()
	})

	// A port that was just released: connection refused, no server.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := "http://" + l.Addr().String()
	l.Close()

	runCounting := func(calls *[]string, cmd string, diskID int) func(string) error {
		return func(base string) error {
			*calls = append(*calls, base)
			c := server.NewClientWithOptions(base, server.ClientOptions{MaxRetries: -1})
			return remoteCmd(context.Background(), c, cmd, 0, 0, diskID, 1, false, oiraid.QoSUpdate{}, nil, io.Discard)
		}
	}

	// Dead primary, live fallback: one retry, command succeeds.
	var calls []string
	if err := remoteWithFallback(context.Background(), dead, ts.URL, runCounting(&calls, "status", -1)); err != nil {
		t.Fatalf("fallback retry: %v", err)
	}
	if len(calls) != 2 || calls[0] != dead || calls[1] != ts.URL {
		t.Fatalf("calls = %v, want [primary fallback]", calls)
	}

	// No fallback configured: the connectivity error propagates as exit 3.
	calls = nil
	err = remoteWithFallback(context.Background(), dead, "", runCounting(&calls, "status", -1))
	if err == nil || !unreachable(err) || exitCode(err) != 3 {
		t.Fatalf("dead primary without fallback: err=%v exit=%d", err, exitCode(err))
	}
	if len(calls) != 1 {
		t.Fatalf("calls = %v, want just the primary", calls)
	}

	// An array fault (no such disk) is not a connectivity failure: the
	// fallback must not be consulted — it would report the same fault.
	calls = nil
	err = remoteWithFallback(context.Background(), ts.URL, dead, runCounting(&calls, "fail", 99))
	if err == nil || unreachable(err) || exitCode(err) != 1 {
		t.Fatalf("array fault: err=%v exit=%d", err, exitCode(err))
	}
	if len(calls) != 1 {
		t.Fatalf("array fault consulted the fallback: %v", calls)
	}

	// Both coordinators gone: two attempts, still exit 3, and the
	// rendered message carries the retry-later taxonomy — scripts key
	// off the exit code, operators off this line.
	calls = nil
	err = remoteWithFallback(context.Background(), dead, dead, runCounting(&calls, "status", -1))
	if err == nil || !unreachable(err) || exitCode(err) != 3 {
		t.Fatalf("both dead: err=%v exit=%d", err, exitCode(err))
	}
	if len(calls) != 2 {
		t.Fatalf("calls = %v, want exactly two attempts", calls)
	}
	if !strings.Contains(renderErr(err), "node unreachable") {
		t.Fatalf("renderErr(%v) = %q, want the node-unreachable taxonomy", err, renderErr(err))
	}
}

// TestUnreachableSurvivesHTTP proves the coordinator's "storage node
// unreachable" condition round-trips the CLI's HTTP hop as a sentinel
// the exit-code mapping can errors.Is — carried by the X-Oiraid-Err code,
// not by matching strings in the body.
func TestUnreachableSurvivesHTTP(t *testing.T) {
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Oiraid-Err", "unreachable")
		http.Error(w, store.ErrUnreachable.Error()+" (netdev: circuit open for http://node)", http.StatusServiceUnavailable)
	}))
	defer hs.Close()
	c := server.NewClientWithOptions(hs.URL, server.ClientOptions{MaxRetries: -1})
	err := c.FailDiskCtx(context.Background(), 0)
	if !errors.Is(err, store.ErrUnreachable) {
		t.Fatalf("error lost the unreachable sentinel across HTTP: %v", err)
	}
	if exitCode(err) != 3 {
		t.Fatalf("exitCode = %d, want 3", exitCode(err))
	}
}
