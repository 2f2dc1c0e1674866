package gf

import (
	"bytes"
	"math/rand"
	"testing"
)

// checkKernels runs the three slice kernels on copies of (src, dst) and
// compares every output byte with the scalar definition built from Mul256.
func checkKernels(t *testing.T, c byte, src, dst []byte) {
	t.Helper()
	wantMul, wantAdd, wantXor := make([]byte, len(src)), make([]byte, len(src)), make([]byte, len(src))
	for i := range src {
		wantMul[i] = Mul256(c, src[i])
		wantAdd[i] = dst[i] ^ Mul256(c, src[i])
		wantXor[i] = dst[i] ^ src[i]
	}
	srcCopy := append([]byte(nil), src...)
	for _, k := range []struct {
		name string
		run  func(src, dst []byte)
		want []byte
	}{
		{"MulSlice256", func(s, d []byte) { MulSlice256(c, s, d) }, wantMul},
		{"MulAddSlice256", func(s, d []byte) { MulAddSlice256(c, s, d) }, wantAdd},
		{"XorSlice", XorSlice, wantXor},
	} {
		// got starts off any alignment boundary, at a different phase
		// from src's.
		off := 1 + len(dst)%7
		got := append(make([]byte, off), dst...)[off:]
		k.run(src, got)
		if !bytes.Equal(got, k.want) {
			t.Fatalf("%s(c=%d, n=%d) differs from the scalar definition", k.name, c, len(src))
		}
		if !bytes.Equal(src, srcCopy) {
			t.Fatalf("%s(c=%d, n=%d) wrote to src", k.name, c, len(src))
		}
	}
}

// TestKernelsMatchScalar: every coefficient at every length 0–257 (all the
// vector-width remainders) plus the two strip sizes the benchmark runs, on
// sub-slices that start off any alignment boundary.
func TestKernelsMatchScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const pad = 3
	backing := make([]byte, 2*(64<<10+pad))
	rng.Read(backing)
	at := func(off, n int) (src, dst []byte) {
		return backing[off : off+n : off+n], backing[len(backing)/2+off:][:n:n]
	}
	for c := 0; c < 256; c++ {
		for n := 0; n <= 257; n++ {
			src, dst := at(n%(pad+1), n)
			checkKernels(t, byte(c), src, dst)
		}
	}
	for _, n := range []int{4 << 10, 64 << 10} {
		for _, c := range []byte{0, 1, 2, 0x1d, 0x8e, 255} {
			src, dst := at(pad, n)
			checkKernels(t, c, src, dst)
		}
	}
}

// TestKernelsExactAlias: dst and src may be the same slice.
func TestKernelsExactAlias(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{1, 15, 16, 17, 257, 4 << 10} {
		orig := make([]byte, n)
		rng.Read(orig)
		for c := 0; c < 256; c++ {
			mul, add, xor := append([]byte(nil), orig...), append([]byte(nil), orig...), append([]byte(nil), orig...)
			MulSlice256(byte(c), mul, mul)
			MulAddSlice256(byte(c), add, add)
			XorSlice(xor, xor)
			for i, b := range orig {
				if mul[i] != Mul256(byte(c), b) || add[i] != b^Mul256(byte(c), b) || xor[i] != 0 {
					t.Fatalf("aliased kernels, c=%d n=%d byte %d: mul %d add %d xor %d from %d", c, n, i, mul[i], add[i], xor[i], b)
				}
			}
		}
	}
}

// TestKernelsLengthMismatchPanics: unequal operands are a caller bug in
// either direction, for every coefficient class the kernels special-case.
func TestKernelsLengthMismatchPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s on mismatched lengths did not panic", name)
			}
		}()
		fn()
	}
	for _, lens := range [][2]int{{8, 9}, {9, 8}, {0, 1}, {1, 0}} {
		src, dst := make([]byte, lens[0]), make([]byte, lens[1])
		mustPanic("XorSlice", func() { XorSlice(src, dst) })
		for _, c := range []byte{0, 1, 7} {
			mustPanic("MulSlice256", func() { MulSlice256(c, src, dst) })
			mustPanic("MulAddSlice256", func() { MulAddSlice256(c, src, dst) })
		}
	}
}

// FuzzKernels: arbitrary coefficient, content, length and start offset
// against the scalar definition.
func FuzzKernels(f *testing.F) {
	f.Add(byte(0), []byte{}, uint8(0))
	f.Add(byte(1), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18}, uint8(1))
	f.Add(byte(0x1d), bytes.Repeat([]byte{0xa5, 0, 0xff}, 100), uint8(5))
	f.Fuzz(func(t *testing.T, c byte, data []byte, skip uint8) {
		data = data[min(int(skip)%8, len(data)):]
		src, dst := data[:len(data)/2], data[len(data)/2:][:len(data)/2]
		checkKernels(t, c, src, dst)
	})
}
