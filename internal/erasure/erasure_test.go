package erasure

import (
	"bytes"
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/oiraid/oiraid/internal/gf"
)

func fillRandom(shards [][]byte, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for _, s := range shards {
		for i := range s {
			s[i] = byte(rng.Intn(256))
		}
	}
}

func cloneShards(shards [][]byte) [][]byte {
	out := make([][]byte, len(shards))
	for i, s := range shards {
		out[i] = append([]byte(nil), s...)
	}
	return out
}

func TestNewXORValidation(t *testing.T) {
	if _, err := NewXOR(0); err == nil {
		t.Fatal("NewXOR(0) should fail")
	}
	if _, err := NewXOR(1); err != nil {
		t.Fatalf("NewXOR(1): %v", err)
	}
}

func TestNewReedSolomonValidation(t *testing.T) {
	for _, tc := range [][2]int{{0, 1}, {1, 0}, {200, 100}} {
		if _, err := NewReedSolomon(tc[0], tc[1]); err == nil {
			t.Fatalf("NewReedSolomon(%d,%d) should fail", tc[0], tc[1])
		}
	}
	if _, err := NewReedSolomon(10, 4); err != nil {
		t.Fatal(err)
	}
}

func TestXOREncodeVerifyReconstruct(t *testing.T) {
	for _, k := range []int{1, 2, 3, 6, 10} {
		code, err := NewXOR(k)
		if err != nil {
			t.Fatal(err)
		}
		shards := AllocShards(k, 1, 1024)
		fillRandom(shards[:k], int64(k))
		if err := code.Encode(shards); err != nil {
			t.Fatal(err)
		}
		ok, err := code.Verify(shards)
		if err != nil || !ok {
			t.Fatalf("k=%d: Verify = %v, %v", k, ok, err)
		}
		// Lose each single shard in turn; reconstruct; compare.
		for lost := 0; lost <= k; lost++ {
			work := cloneShards(shards)
			present := make([]bool, k+1)
			for i := range present {
				present[i] = i != lost
			}
			for i := range work[lost] {
				work[lost][i] = 0xAA
			}
			if err := code.Reconstruct(work, present); err != nil {
				t.Fatalf("k=%d lost=%d: %v", k, lost, err)
			}
			if !bytes.Equal(work[lost], shards[lost]) {
				t.Fatalf("k=%d lost=%d: reconstruction mismatch", k, lost)
			}
		}
	}
}

func TestXORRejectsDoubleLoss(t *testing.T) {
	code, _ := NewXOR(3)
	shards := AllocShards(3, 1, 64)
	fillRandom(shards[:3], 5)
	if err := code.Encode(shards); err != nil {
		t.Fatal(err)
	}
	present := []bool{false, true, false, true}
	if err := code.Reconstruct(shards, present); !errors.Is(err, ErrTooManyLost) {
		t.Fatalf("expected ErrTooManyLost, got %v", err)
	}
}

func TestXORVerifyDetectsCorruption(t *testing.T) {
	code, _ := NewXOR(4)
	shards := AllocShards(4, 1, 256)
	fillRandom(shards[:4], 9)
	if err := code.Encode(shards); err != nil {
		t.Fatal(err)
	}
	shards[2][100] ^= 1
	ok, err := code.Verify(shards)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("Verify missed corruption")
	}
}

func TestReedSolomonRoundTrip(t *testing.T) {
	configs := [][2]int{{2, 2}, {4, 2}, {6, 3}, {10, 4}, {1, 1}, {17, 3}}
	for _, cfg := range configs {
		k, m := cfg[0], cfg[1]
		code, err := NewReedSolomon(k, m)
		if err != nil {
			t.Fatal(err)
		}
		if code.DataShards() != k || code.ParityShards() != m {
			t.Fatalf("(%d,%d): shard counts wrong", k, m)
		}
		shards := AllocShards(k, m, 512)
		fillRandom(shards[:k], int64(k*100+m))
		if err := code.Encode(shards); err != nil {
			t.Fatal(err)
		}
		ok, err := code.Verify(shards)
		if err != nil || !ok {
			t.Fatalf("(%d,%d): Verify = %v, %v", k, m, ok, err)
		}
	}
}

// TestReedSolomonAllErasurePatterns: for a small code, every loss pattern
// of size ≤ m must reconstruct exactly.
func TestReedSolomonAllErasurePatterns(t *testing.T) {
	const k, m = 5, 3
	code, err := NewReedSolomon(k, m)
	if err != nil {
		t.Fatal(err)
	}
	shards := AllocShards(k, m, 128)
	fillRandom(shards[:k], 77)
	if err := code.Encode(shards); err != nil {
		t.Fatal(err)
	}
	n := k + m
	for mask := 0; mask < 1<<n; mask++ {
		lost := 0
		for i := 0; i < n; i++ {
			if mask>>i&1 == 1 {
				lost++
			}
		}
		work := cloneShards(shards)
		present := make([]bool, n)
		for i := 0; i < n; i++ {
			present[i] = mask>>i&1 == 0
			if !present[i] {
				for j := range work[i] {
					work[i][j] = 0xEE
				}
			}
		}
		err := code.Reconstruct(work, present)
		if lost > m {
			if !errors.Is(err, ErrTooManyLost) {
				t.Fatalf("mask %b: expected ErrTooManyLost, got %v", mask, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("mask %b: %v", mask, err)
		}
		for i := range shards {
			if !bytes.Equal(work[i], shards[i]) {
				t.Fatalf("mask %b: shard %d mismatch", mask, i)
			}
		}
	}
}

// TestQuickReedSolomon is a property test: random data, random loss pattern
// of size ≤ m, reconstruction is exact.
func TestQuickReedSolomon(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	prop := func() bool {
		k := 1 + rng.Intn(12)
		m := 1 + rng.Intn(4)
		size := 1 + rng.Intn(300)
		code, err := NewReedSolomon(k, m)
		if err != nil {
			return false
		}
		shards := AllocShards(k, m, size)
		fillRandom(shards[:k], rng.Int63())
		if err := code.Encode(shards); err != nil {
			return false
		}
		orig := cloneShards(shards)
		present := make([]bool, k+m)
		for i := range present {
			present[i] = true
		}
		for lost := rng.Intn(m + 1); lost > 0; {
			i := rng.Intn(k + m)
			if present[i] {
				present[i] = false
				for j := range shards[i] {
					shards[i][j] = 0
				}
				lost--
			}
		}
		if err := code.Reconstruct(shards, present); err != nil {
			return false
		}
		for i := range shards {
			if !bytes.Equal(shards[i], orig[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestShardValidation(t *testing.T) {
	code, _ := NewReedSolomon(3, 2)
	if err := code.Encode(AllocShards(2, 2, 16)); !errors.Is(err, ErrShardCount) {
		t.Fatalf("expected ErrShardCount, got %v", err)
	}
	bad := AllocShards(3, 2, 16)
	bad[4] = bad[4][:8]
	if err := code.Encode(bad); !errors.Is(err, ErrShardSize) {
		t.Fatalf("expected ErrShardSize, got %v", err)
	}
	empty := make([][]byte, 5)
	for i := range empty {
		empty[i] = nil
	}
	if err := code.Encode(empty); !errors.Is(err, ErrShardSize) {
		t.Fatalf("expected ErrShardSize for empty shards, got %v", err)
	}
	if err := code.Reconstruct(AllocShards(3, 2, 16), []bool{true}); !errors.Is(err, ErrShardCount) {
		t.Fatalf("expected ErrShardCount for bad mask, got %v", err)
	}
}

func TestNewCodeSelection(t *testing.T) {
	c, err := NewCode(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.(*XOR); !ok {
		t.Fatalf("NewCode(4,1) = %T, want *XOR", c)
	}
	c, err = NewCode(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.(*ReedSolomon); !ok {
		t.Fatalf("NewCode(4,2) = %T, want *ReedSolomon", c)
	}
}

func TestReedSolomonVerifyDetectsCorruption(t *testing.T) {
	code, _ := NewReedSolomon(4, 2)
	shards := AllocShards(4, 2, 64)
	fillRandom(shards[:4], 13)
	if err := code.Encode(shards); err != nil {
		t.Fatal(err)
	}
	shards[5][3] ^= 0x40
	ok, err := code.Verify(shards)
	if err != nil || ok {
		t.Fatalf("Verify = %v, %v; want false, nil", ok, err)
	}
}

func benchmarkEncode(b *testing.B, code Code, size int) {
	k, m := code.DataShards(), code.ParityShards()
	shards := AllocShards(k, m, size)
	fillRandom(shards[:k], 1)
	b.SetBytes(int64(k * size))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := code.Encode(shards); err != nil {
			b.Fatal(err)
		}
	}
}

func benchmarkXOREncode(b *testing.B, size int) {
	code, _ := NewXOR(8)
	benchmarkEncode(b, code, size)
}

func benchmarkRSEncode(b *testing.B, size int) {
	code, _ := NewReedSolomon(8, 2)
	benchmarkEncode(b, code, size)
}

func benchmarkRSReconstruct(b *testing.B, size int) {
	code, _ := NewReedSolomon(8, 2)
	shards := AllocShards(8, 2, size)
	fillRandom(shards[:8], 1)
	if err := code.Encode(shards); err != nil {
		b.Fatal(err)
	}
	present := make([]bool, 10)
	for i := range present {
		present[i] = i != 3 && i != 7
	}
	b.SetBytes(int64(size) * 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := code.Reconstruct(shards, present); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUpdateParity folds one data shard's delta into the parity of an
// XOR 8+1 and an RS 8+2 stripe: the per-stripe cost of a small write.
func BenchmarkUpdateParity(b *testing.B) {
	for _, m := range []int{1, 2} {
		for _, size := range []int{4 << 10, 64 << 10} {
			b.Run(fmt.Sprintf("8+%d/%dK", m, size>>10), func(b *testing.B) {
				code, err := NewCode(8, m)
				if err != nil {
					b.Fatal(err)
				}
				shards := AllocShards(9, m, size)
				fillRandom(shards, 1)
				b.SetBytes(int64(size))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := code.UpdateParity(i%8, shards[8], shards[9:]); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkXOREncode8x4K(b *testing.B)        { benchmarkXOREncode(b, 4<<10) }
func BenchmarkXOREncode8x64K(b *testing.B)       { benchmarkXOREncode(b, 64<<10) }
func BenchmarkRSEncode8p2x4K(b *testing.B)       { benchmarkRSEncode(b, 4<<10) }
func BenchmarkRSEncode8p2x64K(b *testing.B)      { benchmarkRSEncode(b, 64<<10) }
func BenchmarkRSReconstruct8p2x4K(b *testing.B)  { benchmarkRSReconstruct(b, 4<<10) }
func BenchmarkRSReconstruct8p2x64K(b *testing.B) { benchmarkRSReconstruct(b, 64<<10) }

// TestOddShardSizes: shard sizes that are no multiple of a vector width or
// of chunkBytes (4097 leaves a one-byte last chunk). Encode is checked
// against the scalar definition, Verify must see a flip in the last byte,
// every loss pattern of up to m shards must decode, UpdateParity must agree
// with re-encoding, and nothing but RS decoding (its decode matrix) may
// allocate.
func TestOddShardSizes(t *testing.T) {
	for _, cfg := range [][2]int{{1, 1}, {4, 1}, {5, 2}, {8, 3}} {
		k, m := cfg[0], cfg[1]
		code, err := NewCode(k, m)
		if err != nil {
			t.Fatal(err)
		}
		for _, size := range []int{1, 7, 4097} {
			shards := AllocShards(k, m, size)
			fillRandom(shards[:k], int64(size))
			if err := code.Encode(shards); err != nil {
				t.Fatal(err)
			}
			for j := 0; j < m; j++ {
				for i := 0; i < size; i++ {
					var want byte
					for c := 0; c < k; c++ {
						want ^= gf.Mul256(code.Coefficient(j, c), shards[c][i])
					}
					if shards[k+j][i] != want {
						t.Fatalf("(%d,%d) size %d: parity %d byte %d = %d, scalar definition %d", k, m, size, j, i, shards[k+j][i], want)
					}
				}
			}
			if ok, err := code.Verify(shards); err != nil || !ok {
				t.Fatalf("(%d,%d) size %d: Verify = %v, %v", k, m, size, ok, err)
			}
			shards[k+m-1][size-1] ^= 0x80
			if ok, _ := code.Verify(shards); ok {
				t.Fatalf("(%d,%d) size %d: Verify missed a flip in the last byte", k, m, size)
			}
			shards[k+m-1][size-1] ^= 0x80

			for mask := 1; mask < 1<<(k+m); mask++ {
				if bits.OnesCount(uint(mask)) > m {
					continue
				}
				work := cloneShards(shards)
				present := make([]bool, k+m)
				for i := range present {
					if present[i] = mask&(1<<i) == 0; !present[i] {
						for b := range work[i] {
							work[i][b] = 0xAA
						}
					}
				}
				if err := code.Reconstruct(work, present); err != nil {
					t.Fatalf("(%d,%d) size %d lost %b: %v", k, m, size, mask, err)
				}
				for i := range work {
					if !bytes.Equal(work[i], shards[i]) {
						t.Fatalf("(%d,%d) size %d lost %b: shard %d differs", k, m, size, mask, i)
					}
				}
			}

			delta := append([]byte(nil), shards[k-1]...)
			fillRandom(shards[k-1:k], int64(size)+1)
			gf.XorSlice(shards[k-1], delta)
			if err := code.UpdateParity(k-1, delta, shards[k:]); err != nil {
				t.Fatal(err)
			}
			if ok, err := code.Verify(shards); err != nil || !ok {
				t.Fatalf("(%d,%d) size %d: Verify after UpdateParity = %v, %v", k, m, size, ok, err)
			}

			present := make([]bool, k+m)
			for i := range present {
				present[i] = i != 0
			}
			calls := map[string]func(){
				"Encode":       func() { code.Encode(shards) },
				"Verify":       func() { code.Verify(shards) },
				"UpdateParity": func() { code.UpdateParity(0, delta, shards[k:]) },
			}
			if m == 1 {
				calls["Reconstruct"] = func() { code.Reconstruct(shards, present) }
			}
			for name, call := range calls {
				if n := testing.AllocsPerRun(10, call); n != 0 {
					t.Errorf("(%d,%d) size %d: %s allocates %v times per call", k, m, size, name, n)
				}
			}
		}
	}
}

// TestDeltaUpdateMatchesReencode: folding the delta old ⊕ new of a small
// write via UpdateParity gives bit-identical parity to re-encoding the whole
// stripe, whether the delta spans the shard or one byte range of it; a zero
// delta leaves parity byte-identical.
func TestDeltaUpdateMatchesReencode(t *testing.T) {
	const size = 256
	for _, cfg := range [][2]int{{4, 1}, {5, 2}, {8, 3}, {8, 2}, {3, 4}} {
		k, m := cfg[0], cfg[1]
		code, err := NewCode(k, m)
		if err != nil {
			t.Fatal(err)
		}
		shards := AllocShards(k, m, size)
		fillRandom(shards[:k], int64(k+m))
		if err := code.Encode(shards); err != nil {
			t.Fatal(err)
		}
		for idx := 0; idx < k; idx++ {
			rng := rand.New(rand.NewSource(int64(idx)))
			for _, r := range [][2]int{{0, size}, {17, 100}} {
				lo, hi := r[0], r[1]
				newData := append([]byte(nil), shards[idx]...)
				rng.Read(newData[lo:hi])
				delta := append([]byte(nil), shards[idx][lo:hi]...)
				gf.XorSlice(newData[lo:hi], delta)
				parity := make([][]byte, m)
				for j := range parity {
					parity[j] = append([]byte(nil), shards[k+j]...)
				}
				sub := make([][]byte, m)
				for j := range sub {
					sub[j] = parity[j][lo:hi]
				}
				if err := code.UpdateParity(idx, delta, sub); err != nil {
					t.Fatal(err)
				}
				ref := cloneShards(shards)
				copy(ref[idx], newData)
				if err := code.Encode(ref); err != nil {
					t.Fatal(err)
				}
				for j := 0; j < m; j++ {
					if !bytes.Equal(parity[j], ref[k+j]) {
						t.Fatalf("(%d,%d) idx=%d range %v: delta parity %d mismatch", k, m, idx, r, j)
					}
				}
			}
			before := cloneShards(shards[k:])
			if err := code.UpdateParity(idx, make([]byte, size), shards[k:]); err != nil {
				t.Fatal(err)
			}
			for j := range before {
				if !bytes.Equal(before[j], shards[k+j]) {
					t.Fatalf("(%d,%d) idx=%d: a zero delta changed parity %d", k, m, idx, j)
				}
			}
		}
	}
}

func TestDeltaUpdateValidation(t *testing.T) {
	x, _ := NewXOR(3)
	buf := make([]byte, 8)
	if err := x.UpdateParity(5, buf, [][]byte{buf}); err == nil {
		t.Fatal("out-of-range index must fail")
	}
	if err := x.UpdateParity(0, buf, [][]byte{buf, buf}); err == nil {
		t.Fatal("wrong parity count must fail")
	}
	if err := x.UpdateParity(0, buf[:4], [][]byte{buf}); err == nil {
		t.Fatal("a delta shorter than the parity must fail")
	}
	r, _ := NewReedSolomon(3, 2)
	if err := r.UpdateParity(0, buf[:4], [][]byte{buf, buf}); err == nil {
		t.Fatal("mismatched sizes must fail")
	}
	if err := r.UpdateParity(0, buf, [][]byte{buf}); err == nil {
		t.Fatal("wrong parity count must fail")
	}
	if err := r.UpdateParity(-1, buf, [][]byte{buf, buf}); err == nil {
		t.Fatal("negative index must fail")
	}
}
