//go:build !unix

package store

// mapRegion is a heap slice where syscall has no Mmap.
func mapRegion(n int) ([]byte, error) { return make([]byte, n), nil }

func unmapRegion([]byte) {}
