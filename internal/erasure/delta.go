package erasure

import (
	"fmt"

	"github.com/oiraid/oiraid/internal/gf"
)

// UpdateParity implements Code: parity ^= old ^ new.
func (x *XOR) UpdateParity(idx int, oldData, newData []byte, parity [][]byte) error {
	if idx < 0 || idx >= x.k {
		return fmt.Errorf("erasure: xor delta index %d out of range", idx)
	}
	if len(parity) != 1 || len(parity[0]) != len(oldData) || len(newData) != len(oldData) {
		return ErrShardSize
	}
	gf.XorSlice(oldData, parity[0])
	gf.XorSlice(newData, parity[0])
	return nil
}

// UpdateParity implements Code:
// parity_j ^= G[j][idx]·(old ^ new).
func (r *ReedSolomon) UpdateParity(idx int, oldData, newData []byte, parity [][]byte) error {
	if idx < 0 || idx >= r.k {
		return fmt.Errorf("erasure: rs delta index %d out of range", idx)
	}
	if len(parity) != r.m || len(newData) != len(oldData) {
		return ErrShardSize
	}
	for _, p := range parity {
		if len(p) != len(oldData) {
			return ErrShardSize
		}
	}
	var chunk [chunkBytes]byte
	for off := 0; off < len(oldData); off += chunkBytes {
		delta := chunk[:min(chunkBytes, len(oldData)-off)]
		end := off + len(delta)
		copy(delta, oldData[off:end])
		gf.XorSlice(newData[off:end], delta)
		for j, p := range parity {
			gf.MulAddSlice256(r.parity[j][idx], delta, p[off:end])
		}
	}
	return nil
}
