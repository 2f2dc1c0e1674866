package testutil

import "sync"

// PoolDrops reports whether sync.Pool discards at random, as it does under
// the race detector; a steady-state allocation count means nothing then.
func PoolDrops() bool {
	var p sync.Pool
	x := new(int)
	for i := 0; i < 256; i++ {
		p.Put(x)
		if p.Get() == nil {
			return true
		}
	}
	return false
}
