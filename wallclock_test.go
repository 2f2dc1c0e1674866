package oiraid

import (
	"os"
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
