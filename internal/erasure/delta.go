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
	p := parity[0]
	for i := range p {
		p[i] ^= oldData[i] ^ newData[i]
	}
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
	delta := make([]byte, len(oldData))
	for i := range delta {
		delta[i] = oldData[i] ^ newData[i]
	}
	for j, p := range parity {
		if len(p) != len(oldData) {
			return ErrShardSize
		}
		gf.MulAddSlice256(r.parity[j][idx], delta, p)
	}
	return nil
}
