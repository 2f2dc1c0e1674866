package gf

// GF(2^8) arithmetic with the Rijndael/AES reducing polynomial
// x^8 + x^4 + x^3 + x^2 + 1 (0x11d, the polynomial conventionally used by
// storage erasure coders). Addition is XOR; multiplication uses log/exp
// tables generated at package initialisation from the generator element 2,
// and the slice kernels a full product table derived from them.
//
// The tables are package-level constants-by-construction: they are computed
// once in newGF256Tables and never mutated afterwards, so concurrent use is
// safe.

import (
	"crypto/subtle"
	"fmt"
)

const gf256Poly = 0x11d

type gf256Tables struct {
	exp [512]byte // exp[i] = 2^i, doubled to avoid a mod 255 in Mul
	log [256]byte // log[a] for a != 0
	inv [256]byte
	// mul[c][s] = c·s: one 256-byte product row per coefficient, so the
	// slice kernels are one branch-free lookup per byte.
	mul [256][256]byte
}

// gf256 holds the shared GF(2^8) tables. It is written exactly once, by the
// package-level variable initialiser below, before any other package code
// can run.
var gf256 = newGF256Tables()

func newGF256Tables() *gf256Tables {
	t := &gf256Tables{}
	x := 1
	for i := 0; i < 255; i++ {
		t.exp[i] = byte(x)
		t.log[x] = byte(i)
		x <<= 1
		if x&0x100 != 0 {
			x ^= gf256Poly
		}
	}
	for i := 255; i < 512; i++ {
		t.exp[i] = t.exp[i-255]
	}
	for a := 1; a < 256; a++ {
		t.inv[a] = t.exp[255-int(t.log[a])]
		for b := 1; b < 256; b++ {
			t.mul[a][b] = t.exp[int(t.log[a])+int(t.log[b])]
		}
	}
	return t
}

// Mul256 returns a·b in GF(2^8).
func Mul256(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return gf256.exp[int(gf256.log[a])+int(gf256.log[b])]
}

// Div256 returns a/b in GF(2^8). Division by zero returns 0.
func Div256(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return gf256.exp[int(gf256.log[a])+255-int(gf256.log[b])]
}

// Inv256 returns the multiplicative inverse of a in GF(2^8); Inv256(0) is 0.
func Inv256(a byte) byte { return gf256.inv[a] }

// Exp256 returns 2^e in GF(2^8) for e ≥ 0.
func Exp256(e int) byte { return gf256.exp[e%255] }

// MulSlice256 computes dst[i] = c·src[i] for all i. dst and src must have
// equal length; they may alias exactly.
func MulSlice256(c byte, src, dst []byte) {
	checkLen(src, dst)
	if c == 1 {
		copy(dst, src)
		return
	}
	row := &gf256.mul[c]
	for i, s := range src {
		dst[i] = row[s]
	}
}

// MulAddSlice256 computes dst[i] ^= c·src[i] for all i (multiply-accumulate
// in GF(2^8)). dst and src must have equal length and must not alias unless
// identical.
func MulAddSlice256(c byte, src, dst []byte) {
	checkLen(src, dst)
	switch c {
	case 0:
		return
	case 1:
		XorSlice(src, dst)
		return
	}
	row := &gf256.mul[c]
	for i, s := range src {
		dst[i] ^= row[s]
	}
}

// XorSlice computes dst[i] ^= src[i] for all i, sixteen bytes at a time
// where the platform has vector registers (crypto/subtle.XORBytes). dst and
// src must have equal length and must not alias unless identical.
func XorSlice(src, dst []byte) {
	checkLen(src, dst)
	subtle.XORBytes(dst, dst, src)
}

// checkLen panics on the caller bug every slice kernel shares: operands of
// different lengths.
func checkLen(src, dst []byte) {
	if len(src) != len(dst) {
		panic(fmt.Sprintf("gf: slice kernel on %d and %d bytes", len(src), len(dst)))
	}
}
