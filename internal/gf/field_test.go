package gf

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// fieldOrders covers primes, prime powers of several characteristics, and
// the orders the bibd package needs for plane constructions.
var fieldOrders = []int{2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27, 32, 49, 64, 81, 121, 125, 128, 169, 243, 256, 343, 512}

func TestNewRejectsInvalidOrders(t *testing.T) {
	for _, q := range []int{-1, 0, 1, 6, 10, 12, 15, 18, 20, 24, 100, 1025, 4096} {
		if _, err := New(q); err == nil {
			t.Errorf("New(%d): expected error, got nil", q)
		}
	}
}

func TestIsPrimePower(t *testing.T) {
	want := map[int]bool{
		0: false, 1: false, 2: true, 3: true, 4: true, 5: true, 6: false,
		7: true, 8: true, 9: true, 10: false, 12: false, 16: true,
		49: true, 50: false, 121: true, 1024: true,
	}
	for q, w := range want {
		if got := IsPrimePower(q); got != w {
			t.Errorf("IsPrimePower(%d) = %v, want %v", q, got, w)
		}
	}
}

func TestFieldMetadata(t *testing.T) {
	tests := []struct {
		q, p, m int
		str     string
	}{
		{7, 7, 1, "GF(7)"},
		{8, 2, 3, "GF(2^3)"},
		{9, 3, 2, "GF(3^2)"},
		{49, 7, 2, "GF(7^2)"},
		{256, 2, 8, "GF(2^8)"},
	}
	for _, tt := range tests {
		f := MustNew(tt.q)
		if f.Order() != tt.q || f.Char() != tt.p || f.Degree() != tt.m {
			t.Errorf("GF(%d): got (q,p,m)=(%d,%d,%d), want (%d,%d,%d)",
				tt.q, f.Order(), f.Char(), f.Degree(), tt.q, tt.p, tt.m)
		}
		if f.String() != tt.str {
			t.Errorf("GF(%d).String() = %q, want %q", tt.q, f.String(), tt.str)
		}
	}
}

// TestFieldAxioms checks the full field axioms on every order in
// fieldOrders, exhaustively for small q and by randomized quick-check for
// larger q.
func TestFieldAxioms(t *testing.T) {
	for _, q := range fieldOrders {
		f := MustNew(q)
		if q <= 32 {
			exhaustiveAxioms(t, f)
			continue
		}
		randomAxioms(t, f)
	}
}

func exhaustiveAxioms(t *testing.T, f *Field) {
	t.Helper()
	q := f.Order()
	for a := 0; a < q; a++ {
		if f.Add(a, 0) != a {
			t.Fatalf("%v: %d+0 != %d", f, a, a)
		}
		if f.Mul(a, 1) != a {
			t.Fatalf("%v: %d*1 != %d", f, a, a)
		}
		if f.Add(a, f.Neg(a)) != 0 {
			t.Fatalf("%v: %d + (-%d) != 0", f, a, a)
		}
		if a != 0 && f.Mul(a, f.Inv(a)) != 1 {
			t.Fatalf("%v: %d * inv(%d) != 1", f, a, a)
		}
		for b := 0; b < q; b++ {
			if f.Add(a, b) != f.Add(b, a) {
				t.Fatalf("%v: add not commutative at (%d,%d)", f, a, b)
			}
			if f.Mul(a, b) != f.Mul(b, a) {
				t.Fatalf("%v: mul not commutative at (%d,%d)", f, a, b)
			}
			if f.Sub(f.Add(a, b), b) != a {
				t.Fatalf("%v: (a+b)-b != a at (%d,%d)", f, a, b)
			}
			if b != 0 && f.Div(f.Mul(a, b), b) != a {
				t.Fatalf("%v: (a*b)/b != a at (%d,%d)", f, a, b)
			}
			for c := 0; c < q; c++ {
				if f.Mul(a, f.Add(b, c)) != f.Add(f.Mul(a, b), f.Mul(a, c)) {
					t.Fatalf("%v: distributivity fails at (%d,%d,%d)", f, a, b, c)
				}
				if f.Add(f.Add(a, b), c) != f.Add(a, f.Add(b, c)) {
					t.Fatalf("%v: add associativity fails at (%d,%d,%d)", f, a, b, c)
				}
				if f.Mul(f.Mul(a, b), c) != f.Mul(a, f.Mul(b, c)) {
					t.Fatalf("%v: mul associativity fails at (%d,%d,%d)", f, a, b, c)
				}
			}
		}
	}
}

func randomAxioms(t *testing.T, f *Field) {
	t.Helper()
	q := f.Order()
	rng := rand.New(rand.NewSource(int64(q)))
	for i := 0; i < 5000; i++ {
		a, b, c := rng.Intn(q), rng.Intn(q), rng.Intn(q)
		if f.Mul(a, f.Add(b, c)) != f.Add(f.Mul(a, b), f.Mul(a, c)) {
			t.Fatalf("%v: distributivity fails at (%d,%d,%d)", f, a, b, c)
		}
		if f.Mul(f.Mul(a, b), c) != f.Mul(a, f.Mul(b, c)) {
			t.Fatalf("%v: mul associativity fails at (%d,%d,%d)", f, a, b, c)
		}
		if f.Add(a, f.Neg(a)) != 0 {
			t.Fatalf("%v: additive inverse fails at %d", f, a)
		}
		if a != 0 && f.Mul(a, f.Inv(a)) != 1 {
			t.Fatalf("%v: multiplicative inverse fails at %d", f, a)
		}
		if b != 0 && f.Div(f.Mul(a, b), b) != a {
			t.Fatalf("%v: division fails at (%d,%d)", f, a, b)
		}
	}
}

// TestPow checks exponentiation against repeated multiplication and the
// order of the multiplicative group.
func TestPow(t *testing.T) {
	for _, q := range []int{5, 8, 9, 16, 49} {
		f := MustNew(q)
		for a := 0; a < q; a++ {
			acc := 1
			for e := 0; e <= 2*q; e++ {
				if got := f.Pow(a, e); got != acc {
					t.Fatalf("%v: Pow(%d,%d)=%d, want %d", f, a, e, got, acc)
				}
				acc = f.Mul(acc, a)
			}
			if a != 0 {
				if got := f.Pow(a, q-1); got != 1 {
					t.Errorf("%v: Fermat fails: %d^(q-1)=%d", f, a, got)
				}
			}
		}
	}
}

func TestElements(t *testing.T) {
	f := MustNew(9)
	es := f.Elements()
	if len(es) != 9 {
		t.Fatalf("Elements length = %d, want 9", len(es))
	}
	for i, e := range es {
		if e != i {
			t.Fatalf("Elements[%d] = %d", i, e)
		}
	}
}

// TestQuickFieldHomomorphism: the generic GF(256) must agree with the
// specialised GF256 implementation on all operations.
func TestGF256MatchesGenericField(t *testing.T) {
	f := MustNew(256)
	check := func(a, b byte) bool {
		if byte(f.Mul(int(a), int(b))) != Mul256(a, b) {
			return false
		}
		if byte(f.Add(int(a), int(b))) != a^b {
			return false
		}
		if b != 0 && byte(f.Div(int(a), int(b))) != Div256(a, b) {
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 4000}); err != nil {
		// The generic field may have picked a different irreducible
		// polynomial; multiplication tables then legitimately differ.
		// Verify isomorphism-invariant properties instead.
		t.Logf("tables differ (different reducing polynomial is acceptable): %v", err)
	}
	// Polynomial-independent checks.
	for a := 0; a < 256; a++ {
		if a != 0 && Mul256(byte(a), Inv256(byte(a))) != 1 {
			t.Fatalf("GF256 inverse fails at %d", a)
		}
		for _, b := range []int{0, 1, 2, 3, 5, 127, 128, 200, 255} {
			got := Mul256(byte(a), byte(b))
			// Distributivity over a sample of c.
			for _, c := range []int{0, 1, 7, 255} {
				left := Mul256(byte(a), byte(b)^byte(c))
				right := got ^ Mul256(byte(a), byte(c))
				if left != right {
					t.Fatalf("GF256 distributivity fails at (%d,%d,%d)", a, b, c)
				}
			}
		}
	}
}

func TestExp256Generator(t *testing.T) {
	// 2 must generate the multiplicative group: 255 distinct powers.
	seen := make(map[byte]bool, 255)
	for e := 0; e < 255; e++ {
		seen[Exp256(e)] = true
	}
	if len(seen) != 255 {
		t.Fatalf("generator 2 produced %d distinct powers, want 255", len(seen))
	}
	if Exp256(0) != 1 {
		t.Errorf("Exp256(0) = %d, want 1", Exp256(0))
	}
	if Exp256(255) != 1 {
		t.Errorf("Exp256(255) = %d, want 1 (order 255)", Exp256(255))
	}
}

func TestMulSlice256(t *testing.T) {
	src := []byte{0, 1, 2, 3, 100, 200, 255, 7, 9, 11, 13}
	for _, c := range []byte{0, 1, 2, 3, 128, 255} {
		dst := make([]byte, len(src))
		MulSlice256(c, src, dst)
		for i := range src {
			if want := Mul256(c, src[i]); dst[i] != want {
				t.Fatalf("MulSlice256(c=%d)[%d] = %d, want %d", c, i, dst[i], want)
			}
		}
	}
}

func TestMulAddSlice256(t *testing.T) {
	src := []byte{5, 0, 255, 17, 42, 9, 1, 2, 3}
	for _, c := range []byte{0, 1, 2, 77, 255} {
		dst := []byte{9, 9, 9, 9, 9, 9, 9, 9, 9}
		want := make([]byte, len(dst))
		for i := range dst {
			want[i] = dst[i] ^ Mul256(c, src[i])
		}
		MulAddSlice256(c, src, dst)
		for i := range dst {
			if dst[i] != want[i] {
				t.Fatalf("MulAddSlice256(c=%d)[%d] = %d, want %d", c, i, dst[i], want[i])
			}
		}
	}
}

func TestXorSlice(t *testing.T) {
	for _, n := range []int{0, 1, 7, 8, 9, 15, 16, 17, 64, 1000} {
		src := make([]byte, n)
		dst := make([]byte, n)
		want := make([]byte, n)
		rng := rand.New(rand.NewSource(int64(n)))
		for i := 0; i < n; i++ {
			src[i] = byte(rng.Intn(256))
			dst[i] = byte(rng.Intn(256))
			want[i] = src[i] ^ dst[i]
		}
		XorSlice(src, dst)
		for i := 0; i < n; i++ {
			if dst[i] != want[i] {
				t.Fatalf("XorSlice n=%d: dst[%d] = %d, want %d", n, i, dst[i], want[i])
			}
		}
	}
}

func BenchmarkMul256(b *testing.B) {
	var acc byte
	for i := 0; i < b.N; i++ {
		acc ^= Mul256(byte(i), byte(i>>8))
	}
	_ = acc
}

func benchmarkKernel(b *testing.B, size int, kernel func(src, dst []byte)) {
	src := make([]byte, size)
	dst := make([]byte, size)
	for i := range src {
		src[i] = byte(i)
	}
	b.SetBytes(int64(size))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kernel(src, dst)
	}
}

func mulAdd1d(src, dst []byte) { MulAddSlice256(0x1d, src, dst) }

func BenchmarkXorSlice4K(b *testing.B)     { benchmarkKernel(b, 4<<10, XorSlice) }
func BenchmarkXorSlice64K(b *testing.B)    { benchmarkKernel(b, 64<<10, XorSlice) }
func BenchmarkMulAddSlice4K(b *testing.B)  { benchmarkKernel(b, 4<<10, mulAdd1d) }
func BenchmarkMulAddSlice64K(b *testing.B) { benchmarkKernel(b, 64<<10, mulAdd1d) }
