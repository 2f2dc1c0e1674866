package oiraid

import (
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// wallClockFree are the files of the strip path that read no wall clock:
// a device op is timed by one monotonic reading per call boundary, and an
// engine strip op reads the clock on entry and on exit only. time.Now reads
// the wall and the monotonic clock both; a time.Since of a package base
// reads the monotonic one alone.
var wallClockFree = []string{
	"internal/store/batch.go",
	"internal/store/array.go",
	"internal/engine/engine.go",
}

// TestNoWallClockOnStripPath fails on any time.Now call in wallClockFree.
func TestNoWallClockOnStripPath(t *testing.T) {
	for _, path := range wallClockFree {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for n, line := range strings.Split(string(src), "\n") {
			if strings.Contains(line, "time.Now(") {
				t.Errorf("%s:%d reads the wall clock: %s", path, n+1, strings.TrimSpace(line))
			}
		}
	}
}

// rootContexts are the places outside tests that may start a context of
// their own — every other context below the HTTP edge is a caller's — keyed
// by file and enclosing function (or package-level var), each with its
// reason.
var rootContexts = map[string]string{
	"internal/engine/engine.go ReadStrip":           "io-style strip API for the benchmark module and the facade",
	"internal/engine/engine.go WriteStrip":          "io-style strip API for the benchmark module and the facade",
	"internal/engine/engine.go ReadAt":              "io.ReaderAt",
	"internal/engine/engine.go WriteAt":             "io.WriterAt",
	"internal/server/client_object.go PutObject":    "the benchmark module's clientTarget",
	"internal/server/client_object.go GetObject":    "the benchmark module's clientTarget",
	"internal/store/batch.go var unbounded":         "the array's writes and its own reads, which no caller bounds",
	"internal/store/netdev/client.go NewNodeClient": "the client's done root, which Close ends",
	"internal/store/netdev/fault.go RoundTrip":      "a fault stream's own context, which its Close ends",
}

// TestNoStrayRootContexts fails on a context.Background or context.TODO in
// the non-test Go under internal/ that rootContexts does not name, and on a
// rootContexts entry that names none: a new one is either a caller's
// context dropped on the floor, or a wrapper that needs its reason here.
func TestNoStrayRootContexts(t *testing.T) {
	seen := map[string]bool{}
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		scope := ""
		for n, line := range strings.Split(string(src), "\n") {
			switch {
			case strings.HasPrefix(line, "func "):
				name := strings.TrimPrefix(line, "func ")
				if strings.HasPrefix(name, "(") {
					name = name[strings.Index(name, ") ")+2:]
				}
				scope = name[:strings.IndexAny(name, "[(")]
			case strings.HasPrefix(line, "var "):
				scope = strings.Fields(line)[0] + " " + strings.Fields(line)[1]
			}
			if !strings.Contains(line, "context.Background()") && !strings.Contains(line, "context.TODO()") {
				continue
			}
			key := filepath.ToSlash(path) + " " + scope
			if _, ok := rootContexts[key]; !ok {
				t.Errorf("%s:%d starts a context of its own in %s: %s", path, n+1, scope, strings.TrimSpace(line))
			}
			seen[key] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for key := range rootContexts {
		if !seen[key] {
			t.Errorf("rootContexts names %q, which starts no context", key)
		}
	}
}
