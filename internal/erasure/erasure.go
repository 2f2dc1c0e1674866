// Package erasure implements the byte-level erasure codes used by both
// layers of OI-RAID and by the baseline arrays:
//
//   - XOR: single-parity RAID4/RAID5-style code (the paper deploys RAID5 in
//     both OI-RAID layers).
//   - ReedSolomon: systematic MDS code with m parity shards over GF(2^8)
//     (used by the RAID6 baseline and available for stronger inner/outer
//     codes).
//
// Both satisfy Code. Shards are equal-length byte slices; the first k hold
// data, the last m parity.
package erasure

import (
	"errors"
	"fmt"

	"github.com/oiraid/oiraid/internal/gf"
	"github.com/oiraid/oiraid/internal/matrix"
)

// Common errors.
var (
	ErrShardCount  = errors.New("erasure: wrong number of shards")
	ErrShardSize   = errors.New("erasure: shards have unequal or zero length")
	ErrTooManyLost = errors.New("erasure: more shards lost than parity can repair")
)

// Code is a systematic erasure code over byte shards.
type Code interface {
	// DataShards returns k, the number of data shards.
	DataShards() int
	// ParityShards returns m, the number of parity shards. The code repairs
	// any m lost shards.
	ParityShards() int
	// Encode computes the parity shards from the data shards. shards must
	// hold k+m equal-length slices; the first k are read, the last m
	// overwritten.
	Encode(shards [][]byte) error
	// Reconstruct repairs the shards flagged false in present (both data
	// and parity), given that at least k shards are present. Missing shards
	// must still be allocated at full length; their contents are
	// overwritten.
	Reconstruct(shards [][]byte, present []bool) error
	// Verify reports whether the parity shards are consistent with the data
	// shards.
	Verify(shards [][]byte) (bool, error)
	// UpdateParity folds the change of data shard idx from oldData to
	// newData into the parity shards, which must hold the current parity
	// and are updated in place, without reading the rest of the stripe —
	// the small write whose cost the paper calls "optimal data update
	// complexity". All slices must share one length.
	UpdateParity(idx int, oldData, newData []byte, parity [][]byte) error
}

// checkShards validates shard count and sizes for a k+m code.
func checkShards(shards [][]byte, k, m int) (size int, err error) {
	if len(shards) != k+m {
		return 0, fmt.Errorf("%w: got %d, want %d", ErrShardCount, len(shards), k+m)
	}
	size = len(shards[0])
	if size == 0 {
		return 0, ErrShardSize
	}
	for _, s := range shards[1:] {
		if len(s) != size {
			return 0, ErrShardSize
		}
	}
	return size, nil
}

// XOR is the single-parity code: parity = data_0 ⊕ … ⊕ data_{k-1}.
// The zero value is unusable; use NewXOR.
type XOR struct {
	k int
}

// NewXOR returns a k+1 XOR code. k must be ≥ 1.
func NewXOR(k int) (*XOR, error) {
	if k < 1 {
		return nil, fmt.Errorf("erasure: xor data shards %d < 1", k)
	}
	return &XOR{k: k}, nil
}

var _ Code = (*XOR)(nil)

// DataShards implements Code.
func (x *XOR) DataShards() int { return x.k }

// ParityShards implements Code.
func (x *XOR) ParityShards() int { return 1 }

// Encode implements Code.
func (x *XOR) Encode(shards [][]byte) error {
	size, err := checkShards(shards, x.k, 1)
	if err != nil {
		return err
	}
	parity := shards[x.k]
	copy(parity, shards[0])
	if len(shards[0]) < size {
		return ErrShardSize
	}
	for _, s := range shards[1:x.k] {
		gf.XorSlice(s, parity)
	}
	return nil
}

// Reconstruct implements Code.
func (x *XOR) Reconstruct(shards [][]byte, present []bool) error {
	if _, err := checkShards(shards, x.k, 1); err != nil {
		return err
	}
	if len(present) != x.k+1 {
		return fmt.Errorf("%w: present mask length %d", ErrShardCount, len(present))
	}
	missing := -1
	for i, p := range present {
		if p {
			continue
		}
		if missing >= 0 {
			return fmt.Errorf("%w: shards %d and %d both missing", ErrTooManyLost, missing, i)
		}
		missing = i
	}
	if missing < 0 {
		return nil
	}
	dst := shards[missing]
	for i := range dst {
		dst[i] = 0
	}
	for i, s := range shards {
		if i == missing {
			continue
		}
		gf.XorSlice(s, dst)
	}
	return nil
}

// Verify implements Code.
func (x *XOR) Verify(shards [][]byte) (bool, error) {
	size, err := checkShards(shards, x.k, 1)
	if err != nil {
		return false, err
	}
	acc := make([]byte, size)
	for _, s := range shards {
		gf.XorSlice(s, acc)
	}
	for _, b := range acc {
		if b != 0 {
			return false, nil
		}
	}
	return true, nil
}

// ReedSolomon is a systematic MDS code with k data and m parity shards,
// built from an extended Vandermonde generator matrix over GF(2^8).
// The zero value is unusable; use NewReedSolomon.
type ReedSolomon struct {
	k, m   int
	gen    matrix.Matrix // (k+m)×k generator; top k rows are the identity
	parity matrix.Matrix // bottom m rows of gen
}

// NewReedSolomon returns a k+m Reed–Solomon code. Requires k ≥ 1, m ≥ 1,
// k+m ≤ 256.
func NewReedSolomon(k, m int) (*ReedSolomon, error) {
	if k < 1 || m < 1 {
		return nil, fmt.Errorf("erasure: rs shards k=%d m=%d out of range", k, m)
	}
	if k+m > 256 {
		return nil, fmt.Errorf("erasure: rs total shards %d > 256", k+m)
	}
	// Build a systematic generator: take the (k+m)×k Vandermonde matrix and
	// normalise its top k×k block to the identity by multiplying with its
	// inverse on the right. The result keeps the any-k-rows-invertible
	// property.
	vm := matrix.Vandermonde(k+m, k)
	top := vm.SubMatrix(0, k, 0, k)
	topInv, err := top.Invert()
	if err != nil {
		return nil, fmt.Errorf("erasure: vandermonde top block: %w", err)
	}
	gen, err := vm.Mul(topInv)
	if err != nil {
		return nil, err
	}
	return &ReedSolomon{
		k:      k,
		m:      m,
		gen:    gen,
		parity: gen.SubMatrix(k, k+m, 0, k),
	}, nil
}

var _ Code = (*ReedSolomon)(nil)

// DataShards implements Code.
func (r *ReedSolomon) DataShards() int { return r.k }

// ParityShards implements Code.
func (r *ReedSolomon) ParityShards() int { return r.m }

// Encode implements Code.
func (r *ReedSolomon) Encode(shards [][]byte) error {
	if _, err := checkShards(shards, r.k, r.m); err != nil {
		return err
	}
	r.codeShards(r.parity, shards[:r.k], shards[r.k:])
	return nil
}

// codeShards computes out = coeff · in, shard-wise.
func (r *ReedSolomon) codeShards(coeff matrix.Matrix, in, out [][]byte) {
	for i, row := range coeff {
		dst := out[i]
		for j := range dst {
			dst[j] = 0
		}
		for j, c := range row {
			if c != 0 {
				gf.MulAddSlice256(c, in[j], dst)
			}
		}
	}
}

// Reconstruct implements Code.
func (r *ReedSolomon) Reconstruct(shards [][]byte, present []bool) error {
	if _, err := checkShards(shards, r.k, r.m); err != nil {
		return err
	}
	if len(present) != r.k+r.m {
		return fmt.Errorf("%w: present mask length %d", ErrShardCount, len(present))
	}
	var missing, available []int
	for i, p := range present {
		if p {
			available = append(available, i)
		} else {
			missing = append(missing, i)
		}
	}
	if len(missing) == 0 {
		return nil
	}
	if len(missing) > r.m {
		return fmt.Errorf("%w: %d lost, %d parity", ErrTooManyLost, len(missing), r.m)
	}
	// Pick k available shards; invert the corresponding generator rows to
	// express the data shards in terms of them, then re-encode.
	rows := available[:r.k]
	dec, err := r.gen.SelectRows(rows).Invert()
	if err != nil {
		return fmt.Errorf("erasure: decode matrix: %w", err)
	}
	in := make([][]byte, r.k)
	for i, idx := range rows {
		in[i] = shards[idx]
	}
	// Recover missing data shards first.
	var dataRows matrix.Matrix
	var dataOut [][]byte
	for _, idx := range missing {
		if idx < r.k {
			dataRows = append(dataRows, dec[idx])
			dataOut = append(dataOut, shards[idx])
		}
	}
	if len(dataRows) > 0 {
		r.codeShards(dataRows, in, dataOut)
	}
	// Then recompute missing parity from the (now complete) data shards.
	var parRows matrix.Matrix
	var parOut [][]byte
	for _, idx := range missing {
		if idx >= r.k {
			parRows = append(parRows, r.parity[idx-r.k])
			parOut = append(parOut, shards[idx])
		}
	}
	if len(parRows) > 0 {
		r.codeShards(parRows, shards[:r.k], parOut)
	}
	return nil
}

// Verify implements Code.
func (r *ReedSolomon) Verify(shards [][]byte) (bool, error) {
	size, err := checkShards(shards, r.k, r.m)
	if err != nil {
		return false, err
	}
	buf := make([]byte, size)
	for i, row := range r.parity {
		for j := range buf {
			buf[j] = 0
		}
		for j, c := range row {
			if c != 0 {
				gf.MulAddSlice256(c, shards[j], buf)
			}
		}
		want := shards[r.k+i]
		for j := range buf {
			if buf[j] != want[j] {
				return false, nil
			}
		}
	}
	return true, nil
}

// NewCode returns the natural code for k data shards and m parity shards:
// XOR when m == 1 (both OI-RAID layers), Reed–Solomon otherwise.
func NewCode(k, m int) (Code, error) {
	if m == 1 {
		return NewXOR(k)
	}
	return NewReedSolomon(k, m)
}

// AllocShards returns k+m zeroed shards of the given size backed by one
// allocation.
func AllocShards(k, m, size int) [][]byte {
	backing := make([]byte, (k+m)*size)
	shards := make([][]byte, k+m)
	for i := range shards {
		shards[i], backing = backing[:size:size], backing[size:]
	}
	return shards
}
