package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"github.com/oiraid/oiraid/internal/core"
)

// The local directory format, shared by oiraidctl, oiraidd and the
// facade: per disk one strip image (diskNN.img) and one superblock file
// (diskNN.sb), plus the metadata journal's two regions. FormatDir and
// MountDir are the only code that spells these names.
const (
	dirImageGlob = "disk*.img"
	dirSuperGlob = "disk*.sb"
	dirJournal0  = "meta0.journal"
	dirJournal1  = "meta1.journal"
)

func dirImage(dir string, d int) string { return filepath.Join(dir, fmt.Sprintf("disk%02d.img", d)) }
func dirSuper(dir string, d int) string { return filepath.Join(dir, fmt.Sprintf("disk%02d.sb", d)) }

// ErrDirNotEmpty reports a FormatDir over a directory that already holds
// device images or superblocks. Formatting would destroy them, so the
// directory is left byte-identical instead — in particular a directory
// with images but no loadable superblock is never formatted over.
var ErrDirNotEmpty = errors.New("store: directory already holds device images or superblocks")

// dirMedia is the open media of one array directory.
type dirMedia struct {
	devs  []Device
	blobs []Blob // journal regions 0 and 1, then one superblock per disk
}

func (m *dirMedia) close() {
	for _, d := range m.devs {
		d.Close()
	}
	for _, b := range m.blobs {
		b.Close()
	}
}

// openDirMedia opens every disk's image through image, then (creating
// them when absent) the journal regions and the superblock files.
func openDirMedia(dir string, disks int, image func(d int, path string) (Device, error)) (*dirMedia, error) {
	m := &dirMedia{}
	for d := 0; d < disks; d++ {
		dev, err := image(d, dirImage(dir, d))
		if err != nil {
			m.close()
			return nil, fmt.Errorf("disk %d: %w", d, err)
		}
		m.devs = append(m.devs, dev)
	}
	paths := []string{filepath.Join(dir, dirJournal0), filepath.Join(dir, dirJournal1)}
	for d := 0; d < disks; d++ {
		paths = append(paths, dirSuper(dir, d))
	}
	for _, p := range paths {
		b, err := CreateFileBlob(p)
		if err != nil {
			m.close()
			return nil, err
		}
		m.blobs = append(m.blobs, b)
	}
	return m, nil
}

// dirReplace returns the replacement-disk factory of a directory mount: a
// blank image in the failed disk's slot, so a rebuilt disk is where the
// next mount looks for it.
func dirReplace(dir string, strips int64, stripBytes int) func(int) (Device, error) {
	return func(d int) (Device, error) { return NewFileDevice(dirImage(dir, d), strips, stripBytes) }
}

// FormatDir creates dir if needed and formats a fresh array in it: blank
// images holding the given number of layout cycles, superblocks and the
// journal. It refuses with ErrDirNotEmpty, touching nothing, when dir
// already holds images or superblocks.
func FormatDir(an *core.Analyzer, dir string, cycles int64, stripBytes int, opts ...FormatOption) (*Mount, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	for _, glob := range []string{dirImageGlob, dirSuperGlob} {
		if found, err := filepath.Glob(filepath.Join(dir, glob)); err != nil {
			return nil, err
		} else if len(found) > 0 {
			return nil, fmt.Errorf("%w: %s", ErrDirNotEmpty, found[0])
		}
	}
	strips := cycles * int64(an.SlotsPerDisk())
	m, err := openDirMedia(dir, an.Disks(), func(_ int, path string) (Device, error) {
		return NewFileDevice(path, strips, stripBytes)
	})
	if err != nil {
		return nil, err
	}
	mnt, err := FormatArray(an, m.devs, m.blobs[2:], m.blobs[0], m.blobs[1], opts...)
	if err != nil {
		m.close()
		return nil, err
	}
	mnt.Replace = dirReplace(dir, strips, stripBytes)
	return mnt, nil
}

// MountDir mounts the array in dir through MountArray. The geometry comes
// from media: the first loadable superblock names the disk count, which
// the geometry callback turns into the layout's analyzer, and the strip
// size and cycle count the images must match. A directory without a
// loadable superblock is refused with ErrNoSuperblock before anything in
// it is created or written. A missing or mis-sized image is replaced by a
// blank one (listed in Mount.Blank): its strips fail their durable
// checksums and heal through read repair or fsck, and the mount fails the
// disk outright when its superblock is gone too.
func MountDir(dir string, geometry func(disks int) (*core.Analyzer, error), opts ...MountOption) (*Mount, error) {
	paths, err := filepath.Glob(filepath.Join(dir, dirSuperGlob))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	var seed *Superblock
	for _, p := range paths {
		b, err := OpenFileBlob(p)
		if err != nil {
			continue
		}
		sb, err := LoadSuperblock(b)
		b.Close()
		if err == nil {
			seed = sb
			break
		}
	}
	if seed == nil {
		return nil, fmt.Errorf("%w in %s", ErrNoSuperblock, dir)
	}
	an, err := geometry(seed.Disks)
	if err != nil {
		return nil, fmt.Errorf("superblock geometry: %w", err)
	}
	strips := seed.Cycles * int64(seed.SlotsPerDisk)
	var blank []int
	m, err := openDirMedia(dir, seed.Disks, func(d int, path string) (Device, error) {
		if dev, err := OpenFileDevice(path, strips, seed.StripBytes); err == nil {
			return dev, nil
		}
		blank = append(blank, d)
		return NewFileDevice(path, strips, seed.StripBytes)
	})
	if err != nil {
		return nil, err
	}
	mnt, err := MountArray(an, m.devs, m.blobs[2:], m.blobs[0], m.blobs[1], opts...)
	if err != nil {
		m.close()
		return nil, err
	}
	mnt.Blank = blank
	mnt.Replace = dirReplace(dir, strips, seed.StripBytes)
	return mnt, nil
}
