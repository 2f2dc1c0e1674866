//go:build unix

package store

import "syscall"

// mapRegion maps n bytes of anonymous memory, which read zero: the pages
// belong to the process but not to the Go heap.
func mapRegion(n int) ([]byte, error) {
	return syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
}

func unmapRegion(b []byte) { syscall.Munmap(b) }
