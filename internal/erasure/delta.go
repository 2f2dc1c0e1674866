package erasure

import (
	"fmt"

	"github.com/oiraid/oiraid/internal/gf"
)

// UpdateParity implements Code: parity ^= delta.
func (x *XOR) UpdateParity(idx int, delta []byte, parity [][]byte) error {
	if idx < 0 || idx >= x.k {
		return fmt.Errorf("erasure: xor delta index %d out of range", idx)
	}
	if len(parity) != 1 || len(parity[0]) != len(delta) {
		return ErrShardSize
	}
	gf.XorSlice(delta, parity[0])
	return nil
}

// Coefficient implements Code: every data shard enters the parity as is.
func (x *XOR) Coefficient(j, idx int) byte { return 1 }

// UpdateParity implements Code: parity_j ^= G[j][idx]·delta.
func (r *ReedSolomon) UpdateParity(idx int, delta []byte, parity [][]byte) error {
	if idx < 0 || idx >= r.k {
		return fmt.Errorf("erasure: rs delta index %d out of range", idx)
	}
	if len(parity) != r.m {
		return ErrShardSize
	}
	for _, p := range parity {
		if len(p) != len(delta) {
			return ErrShardSize
		}
	}
	for j, p := range parity {
		gf.MulAddSlice256(r.parity[j][idx], delta, p)
	}
	return nil
}

// Coefficient implements Code: the generator entry G[j][idx].
func (r *ReedSolomon) Coefficient(j, idx int) byte { return r.parity[j][idx] }
