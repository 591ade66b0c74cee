package tensor

import (
	"fmt"
	"math"
	"testing"

	"fedpkd/internal/stats"
)

// The AVX2 row kernels must produce the generic kernels' bits exactly: the
// goldens of every package were recorded on the generic arithmetic and are
// replayed on whichever kernel the CPU selects. These tests compare the two
// with math.Float64bits, kernel by kernel and through whole GEMMs. With NaN
// or ±Inf inputs only the positions of NaN results must agree, because x86
// picks a NaN payload by operand position and the two paths may order the
// operands of a commutative add differently.

// rowWidths covers every 4-lane remainder, the training widths and a width
// past two NT j-tiles.
var rowWidths = []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 47, 48, 49, 130}

// finiteSpecials are the finite values where a reordered or fused operation
// would show: signed zeros, subnormals, the normal boundary and values whose
// products overflow.
var finiteSpecials = []float64{
	0, math.Copysign(0, -1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	1e-310, -3e-320, 0x1p-1022, -0x1p-1022,
	1, -1, 1e300, -1e300, math.MaxFloat64,
}

var nonFinites = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}

// kernelValues returns n values mixing normal draws with finiteSpecials and,
// when nonFinite is set, NaN and ±Inf.
func kernelValues(rng *stats.RNG, n int, nonFinite bool) []float64 {
	v := make([]float64, n)
	for i := range v {
		switch r := rng.Float64(); {
		case r < 0.25:
			v[i] = finiteSpecials[rng.IntN(len(finiteSpecials))]
		case nonFinite && r < 0.35:
			v[i] = nonFinites[rng.IntN(len(nonFinites))]
		default:
			v[i] = rng.NormFloat64()
		}
	}
	return v
}

// coeffs returns four kernel coefficients; one call in four gives an
// all-zero group (mixing +0 and -0), which the panels skip but the kernels
// must still handle.
func coeffs(rng *stats.RNG, nonFinite bool) []float64 {
	if rng.IntN(4) == 0 {
		return []float64{0, math.Copysign(0, -1), 0, math.Copysign(0, -1)}
	}
	return kernelValues(rng, 4, nonFinite)
}

// sameBits reports whether got matches want bit for bit, treating any two
// NaNs as equal.
func sameBits(got, want []float64) bool {
	if len(got) != len(want) {
		return false
	}
	for i, w := range want {
		g := got[i]
		if math.IsNaN(w) || math.IsNaN(g) {
			if math.IsNaN(w) != math.IsNaN(g) {
				return false
			}
			continue
		}
		if math.Float64bits(g) != math.Float64bits(w) {
			return false
		}
	}
	return true
}

func requireAVX2(t *testing.T) {
	t.Helper()
	if !hasAVX2 {
		t.Skip("CPU lacks AVX2 or the OS does not save YMM state: the generic kernels are the only path")
	}
}

func TestAVX2RowKernelsMatchGeneric(t *testing.T) {
	requireAVX2(t)
	for _, nonFinite := range []bool{false, true} {
		rng := stats.NewRNG(11)
		for _, n := range rowWidths {
			t.Run(fmt.Sprintf("axpy/nonfinite=%v/n=%d", nonFinite, n), func(t *testing.T) {
				for trial := 0; trial < 20; trial++ {
					b0, b1 := kernelValues(rng, n, nonFinite), kernelValues(rng, n, nonFinite)
					b2, b3 := kernelValues(rng, n, nonFinite), kernelValues(rng, n, nonFinite)
					o, o2 := kernelValues(rng, n, nonFinite), kernelValues(rng, n, nonFinite)
					a, c := coeffs(rng, nonFinite), coeffs(rng, nonFinite)

					want := append([]float64(nil), o...)
					axpy4Generic(want, b0, b1, b2, b3, a[0], a[1], a[2], a[3])
					got := append([]float64(nil), o...)
					axpy4AVX2(got, b0, b1, b2, b3, a[0], a[1], a[2], a[3])
					if !sameBits(got, want) {
						t.Fatalf("trial %d: axpy4\n got  %v\n want %v", trial, got, want)
					}

					want, want2 := append([]float64(nil), o...), append([]float64(nil), o2...)
					axpy4x2Generic(want, want2, b0, b1, b2, b3, a[0], a[1], a[2], a[3], c[0], c[1], c[2], c[3])
					got, got2 := append([]float64(nil), o...), append([]float64(nil), o2...)
					axpy4x2AVX2(got, got2, b0, b1, b2, b3, a[0], a[1], a[2], a[3], c[0], c[1], c[2], c[3])
					if !sameBits(got, want) || !sameBits(got2, want2) {
						t.Fatalf("trial %d: axpy4x2\n got  %v %v\n want %v %v", trial, got, got2, want, want2)
					}
				}
			})
		}
		// dot4 reduces over k = len(a); odd and even k take different tails.
		for _, k := range rowWidths {
			t.Run(fmt.Sprintf("dot/nonfinite=%v/k=%d", nonFinite, k), func(t *testing.T) {
				for trial := 0; trial < 20; trial++ {
					a, a2 := kernelValues(rng, k, nonFinite), kernelValues(rng, k, nonFinite)
					if trial%5 == 0 {
						for i := range a2 {
							a2[i] = 0 // one row of the pair all zero
						}
					}
					p := kernelValues(rng, 4*k, nonFinite)

					want := make([]float64, 4)
					dot4Generic(want, a, p)
					got := make([]float64, 4)
					dot4AVX2(got, a, p)
					if !sameBits(got, want) {
						t.Fatalf("trial %d: dot4\n got  %v\n want %v", trial, got, want)
					}

					want2 := make([]float64, 4)
					dot4Generic(want2, a2, p)
					got, got2 := make([]float64, 4), make([]float64, 4)
					dot4x2AVX2(got, got2, a, a2, p)
					if !sameBits(got, want) || !sameBits(got2, want2) {
						t.Fatalf("trial %d: dot4x2\n got  %v %v\n want %v %v", trial, got, got2, want, want2)
					}
				}
			})
		}
	}
}

// TestAVX2GEMMMatchesGeneric runs the whole NN, TN, TN-accumulate and NT
// products once on the AVX2 kernels and once on the generic ones. The
// operands hold special values, all-zero 4-groups (skipped by NN/TN) and
// zero rows and columns, so some output row pairs have exactly one row whose
// group is zero (the panels' single-row branches).
func TestAVX2GEMMMatchesGeneric(t *testing.T) {
	requireAVX2(t)
	SetWorkers(1)
	defer SetWorkers(0)
	run := func(avx2 bool, f func()) {
		hasAVX2 = avx2
		defer func() { hasAVX2 = true }()
		f()
	}
	shapes := [][3]int{{2, 8, 3}, {5, 9, 7}, {6, 12, 10}, {32, 48, 48}, {32, 32, 48}, {32, 48, 10}, {9, 47, 49}, {130, 67, 130}}
	for _, nonFinite := range []bool{false, true} {
		for si, shape := range shapes {
			m, k, n := shape[0], shape[1], shape[2]
			t.Run(fmt.Sprintf("nonfinite=%v/%dx%dx%d", nonFinite, m, k, n), func(t *testing.T) {
				rng := stats.NewRNG(uint64(900 + si))
				operand := func(rows, cols int) *Matrix {
					x := &Matrix{Rows: rows, Cols: cols, Data: kernelValues(rng, rows*cols, nonFinite)}
					for r := 0; r < rows; r++ {
						row := x.Row(r)
						switch r % 4 {
						case 1: // zero 4-groups at even group indices
							for c := 0; c+3 < cols; c += 8 {
								row[c], row[c+1], row[c+2], row[c+3] = 0, 0, 0, 0
							}
						case 2: // whole row zero: its pair partner runs alone
							for c := range row {
								row[c] = 0
							}
						}
						for c := 3; c < cols; c += 5 {
							row[c] = 0 // zero columns: TN's single-row branches
						}
					}
					return x
				}
				init := operand(m, n)
				cases := []struct {
					name string
					a, b *Matrix
					f    func(out, a, b *Matrix)
				}{
					{"NN", operand(m, k), operand(k, n), MatMulInto},
					{"TN", operand(k, m), operand(k, n), MatMulTNInto},
					{"TNAcc", operand(k, m), operand(k, n), MatMulTNAccInto},
					{"NT", operand(m, k), operand(n, k), MatMulNTInto},
				}
				for _, c := range cases {
					want, got := init.Clone(), init.Clone()
					run(false, func() { c.f(want, c.a, c.b) })
					run(true, func() { c.f(got, c.a, c.b) })
					if !sameBits(got.Data, want.Data) {
						t.Errorf("%s: AVX2 and generic GEMMs differ", c.name)
					}
				}
			})
		}
	}
}
