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
	"bytes"
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
	// UpdateParity folds delta = old ⊕ new of data shard idx into the
	// parity shards, which must hold the current parity and are updated in
	// place, without reading the rest of the stripe — the small write whose
	// cost the paper calls "optimal data update complexity". Parity shard j
	// changes by Coefficient(j, idx)·delta. All slices must share one
	// length; any byte range of a shard may be updated alone.
	UpdateParity(idx int, delta []byte, parity [][]byte) error
	// Coefficient returns the factor by which data shard idx enters parity
	// shard j: 1 on every XOR stripe.
	Coefficient(j, idx int) byte
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
	if _, err := checkShards(shards, x.k, 1); err != nil {
		return err
	}
	parity := shards[x.k]
	copy(parity, shards[0])
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
	dst, first := shards[missing], true
	for i, s := range shards {
		switch {
		case i == missing:
		case first:
			copy(dst, s)
			first = false
		default:
			gf.XorSlice(s, dst)
		}
	}
	return nil
}

// Verify implements Code.
func (x *XOR) Verify(shards [][]byte) (bool, error) {
	size, err := checkShards(shards, x.k, 1)
	if err != nil {
		return false, err
	}
	var chunk [chunkBytes]byte
	for off := 0; off < size; off += chunkBytes {
		acc := chunk[:min(chunkBytes, size-off)]
		end := off + len(acc)
		copy(acc, shards[0][off:end])
		for _, s := range shards[1:x.k] {
			gf.XorSlice(s[off:end], acc)
		}
		if !bytes.Equal(acc, shards[x.k][off:end]) {
			return false, nil
		}
	}
	return true, nil
}

// chunkBytes is how much of a shard Verify works on at a time, in a buffer
// on its own stack: no allocation, and the accumulator stays in L1 while the
// shards stream past it.
const chunkBytes = 4096

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
	size, err := checkShards(shards, r.k, r.m)
	if err != nil {
		return err
	}
	for i, row := range r.parity {
		codeRow(row, shards[:r.k], 0, size, shards[r.k+i])
	}
	return nil
}

// codeRow computes dst = Σ row[j]·in[j][off:end]: the first term
// overwrites dst, the rest accumulate.
func codeRow(row []byte, in [][]byte, off, end int, dst []byte) {
	gf.MulSlice256(row[0], in[0][off:end], dst)
	for j, c := range row[1:] {
		gf.MulAddSlice256(c, in[j+1][off:end], dst)
	}
}

// Reconstruct implements Code.
func (r *ReedSolomon) Reconstruct(shards [][]byte, present []bool) error {
	size, err := checkShards(shards, r.k, r.m)
	if err != nil {
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
	// Recover missing data shards first, then recompute missing parity
	// from the (now complete) data shards.
	for _, idx := range missing {
		if idx < r.k {
			codeRow(dec[idx], in, 0, size, shards[idx])
		}
	}
	for _, idx := range missing {
		if idx >= r.k {
			codeRow(r.parity[idx-r.k], shards[:r.k], 0, size, shards[idx])
		}
	}
	return nil
}

// Verify implements Code.
func (r *ReedSolomon) Verify(shards [][]byte) (bool, error) {
	size, err := checkShards(shards, r.k, r.m)
	if err != nil {
		return false, err
	}
	var chunk [chunkBytes]byte
	for off := 0; off < size; off += chunkBytes {
		buf := chunk[:min(chunkBytes, size-off)]
		end := off + len(buf)
		for i, row := range r.parity {
			codeRow(row, shards[:r.k], off, end, buf)
			if !bytes.Equal(buf, shards[r.k+i][off:end]) {
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
