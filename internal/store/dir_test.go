package store

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"github.com/oiraid/oiraid/internal/core"
)

func testGeometry(t *testing.T) func(disks int) (*core.Analyzer, error) {
	return func(disks int) (*core.Analyzer, error) { return oiAnalyzer(t, disks), nil }
}

// snapshotDir returns every file of dir by name.
func snapshotDir(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string][]byte)
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = data
	}
	return files
}

// TestDirFormatMountRoundTrip: the directory pair is FormatArray and
// MountArray over files — content, identity and the clean flag survive,
// geometry comes from media, and a lost image is replaced by a blank
// device that the durable checksums heal.
func TestDirFormatMountRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "arr")
	m, err := FormatDir(oiAnalyzer(t, 9), dir, 2, testStrip)
	if err != nil {
		t.Fatal(err)
	}
	want := fillArray(t, m.Array, 5)
	if err := m.Array.SealMeta(); err != nil {
		t.Fatal(err)
	}
	if _, err := FormatDir(oiAnalyzer(t, 9), dir, 2, testStrip); !errors.Is(err, ErrDirNotEmpty) {
		t.Fatalf("format over a live array: err %v, want ErrDirNotEmpty", err)
	}

	if err := os.Remove(dirImage(dir, 3)); err != nil {
		t.Fatal(err)
	}
	m2, err := MountDir(dir, testGeometry(t))
	if err != nil {
		t.Fatal(err)
	}
	if !m2.WasClean || m2.Meta.ArrayUUID() != m.Meta.ArrayUUID() {
		t.Fatalf("remount: clean=%v, identity kept=%v", m2.WasClean, m2.Meta.ArrayUUID() == m.Meta.ArrayUUID())
	}
	if len(m2.Blank) != 1 || m2.Blank[0] != 3 {
		t.Fatalf("blank disks %v, want [3]", m2.Blank)
	}
	if got := hashArray(t, m2.Array); got != want {
		t.Fatal("content changed across remount with a lost image")
	}
	if m2.Array.Stats().ReadRepairs == 0 {
		t.Fatal("blank image served without read repair")
	}
}

// TestDirImagesWithoutSuperblockRefused: a directory that holds images but
// no loadable superblock is neither mounted nor formatted over, and not
// one byte of it changes.
func TestDirImagesWithoutSuperblockRefused(t *testing.T) {
	dir := t.TempDir()
	an := oiAnalyzer(t, 9)
	for i := 0; i < an.Disks(); i++ {
		img := bytes.Repeat([]byte{byte(i + 1)}, 2*an.SlotsPerDisk()*testStrip)
		if err := os.WriteFile(dirImage(dir, i), img, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(dirSuper(dir, 0), []byte("not a superblock"), 0o644); err != nil {
		t.Fatal(err)
	}
	before := snapshotDir(t, dir)

	if _, err := MountDir(dir, testGeometry(t)); !errors.Is(err, ErrNoSuperblock) {
		t.Fatalf("mount: err %v, want ErrNoSuperblock", err)
	}
	if _, err := FormatDir(an, dir, 2, testStrip); !errors.Is(err, ErrDirNotEmpty) {
		t.Fatalf("format: err %v, want ErrDirNotEmpty", err)
	}
	after := snapshotDir(t, dir)
	if len(after) != len(before) {
		t.Fatalf("directory gained or lost files: %d → %d", len(before), len(after))
	}
	for name, data := range before {
		if !bytes.Equal(after[name], data) {
			t.Fatalf("%s changed", name)
		}
	}
}

// TestFormatDirUnwritableJournal: a directory where a journal region cannot
// be created fails FormatDir, which closes the device images it opened.
func TestFormatDirUnwritableJournal(t *testing.T) {
	dir := t.TempDir()
	if err := os.Mkdir(filepath.Join(dir, dirJournal0), 0o755); err != nil {
		t.Fatal(err)
	}
	if m, err := FormatDir(oiAnalyzer(t, 9), dir, 1, testStrip); err == nil || errors.Is(err, ErrDirNotEmpty) {
		t.Fatalf("FormatDir over a journal path that is a directory: %v, %v", m, err)
	}
}
