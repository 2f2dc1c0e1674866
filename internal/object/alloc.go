package object

import (
	"fmt"
	"math/bits"
)

// allocator is the in-memory free-strip bitmap over the engine's
// logical data space. It has no durable state of its own: the bitmap
// is a pure function of the journal's committed object metadata,
// part records, and allocation intents, and is rebuilt from them at
// mount. Alloc/free therefore cannot leak across a crash — a strip is
// only ever allocated because some journalled record references it.
//
// Allocation is first fit: it hands out the lowest free strips, so the
// strips an array has ever written stay as few as its peak of allocated
// strips, whatever the history of PUTs and DELETEs. low is the lowest
// strip that may be free — every strip below it is allocated — so a scan
// starts there instead of at strip 0.
type allocator struct {
	words  []uint64
	strips int64
	free   int64
	low    int64
}

// run is one contiguous range of allocated strips.
type run struct {
	start, n int64
}

func newAllocator(strips int64) *allocator {
	return &allocator{
		words:  make([]uint64, (strips+63)/64),
		strips: strips,
		free:   strips,
	}
}

func (a *allocator) allocated(i int64) bool {
	return a.words[i/64]&(1<<(uint(i)%64)) != 0
}

func (a *allocator) set(i int64) { a.words[i/64] |= 1 << (uint(i) % 64) }

// next returns the first strip at or after i whose bit is used (true:
// allocated, false: free), or end if there is none before end. It reads
// the bitmap a word at a time.
func (a *allocator) next(i, end int64, used bool) int64 {
	if i >= end {
		return end
	}
	k := i / 64
	w := a.words[k]
	if !used {
		w = ^w
	}
	w &= ^uint64(0) << (uint(i) % 64)
	for w == 0 {
		if k++; k*64 >= end {
			return end
		}
		if w = a.words[k]; !used {
			w = ^w
		}
	}
	return min(k*64+int64(bits.TrailingZeros64(w)), end)
}

// span calls f with each bitmap word index k and the mask of the bits of
// [start, end) that word holds.
func span(start, end int64, f func(k int64, mask uint64)) {
	for i := start; i < end; {
		k, lo := i/64, uint(i)%64
		mask := ^uint64(0) << lo
		if hi := end - k*64; hi < 64 {
			mask &= 1<<uint(hi) - 1
		}
		f(k, mask)
		i = (k + 1) * 64
	}
}

// alloc reserves the n lowest free strips. It either reserves exactly n
// strips (returned as runs in ascending order) or fails leaving the
// bitmap untouched.
func (a *allocator) alloc(n int64) ([]run, error) {
	if n <= 0 {
		return nil, nil
	}
	if n > a.free {
		return nil, fmt.Errorf("%w: need %d strips, %d free of %d", ErrNoSpace, n, a.free, a.strips)
	}
	var runs []run
	remaining, pos := n, a.low
	for remaining > 0 {
		start := a.next(pos, a.strips, false)
		if start == a.strips {
			// The free counter said the strips exist; the scan can only
			// miss them if the counter is inconsistent with the bitmap.
			for _, r := range runs {
				span(r.start, r.start+r.n, func(k int64, m uint64) { a.words[k] &^= m })
			}
			return nil, fmt.Errorf("%w: bitmap inconsistent with free counter", ErrMetaCorrupt)
		}
		pos = a.next(start, start+remaining, true)
		span(start, pos, func(k int64, m uint64) { a.words[k] |= m })
		runs = append(runs, run{start: start, n: pos - start})
		remaining -= pos - start
	}
	a.free -= n
	a.low = pos // every strip from the old low up to pos is allocated now
	return runs, nil
}

// mark reserves an exact run during mount replay; a strip already set
// means two journalled records claim it — hard corruption, and the
// bitmap is left untouched. Marking frees nothing, so low stays a
// lower bound of the free strips.
func (a *allocator) mark(start, n int64) error {
	if start < 0 || n <= 0 || start+n > a.strips {
		return fmt.Errorf("%w: extent [%d,+%d) outside %d strips", ErrMetaCorrupt, start, n, a.strips)
	}
	if i := a.next(start, start+n, true); i < start+n {
		return fmt.Errorf("%w: strip %d double-allocated", ErrMetaCorrupt, i)
	}
	span(start, start+n, func(k int64, m uint64) { a.words[k] |= m })
	a.free -= n
	return nil
}

// release returns a run to the free pool; strips of it already free are
// left as they are.
func (a *allocator) release(start, n int64) {
	span(start, start+n, func(k int64, m uint64) {
		a.free += int64(bits.OnesCount64(a.words[k] & m))
		a.words[k] &^= m
	})
	a.low = min(a.low, start)
}

// used returns the number of allocated strips.
func (a *allocator) used() int64 { return a.strips - a.free }

// popcount recounts allocated strips from the bitmap (fsck).
func (a *allocator) popcount() int64 {
	var total int64
	for _, w := range a.words {
		total += int64(bits.OnesCount64(w))
	}
	return total
}
