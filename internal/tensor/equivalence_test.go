package tensor

import (
	"fmt"
	"math"
	"testing"

	"fedpkd/internal/stats"
)

// The equivalence suite: blocked/parallel kernels must be BIT-IDENTICAL to
// a single-threaded whole-range launch of the same kernel at every worker
// count — that is the invariant the fixed-seed determinism tests of
// internal/core and internal/baselines stand on — and numerically equal
// (tight epsilon) to the retained naive serial references from the seed,
// whose reduction grouping differs.

// eqShapes spans the shapes the ISSUE calls out: scalars, row/column
// vectors, tall-skinny, wide-short, non-tile-multiples (including k crossing
// the kTileNN boundary and j crossing jTileNT), and zero-row/zero-col edge
// cases. Each entry is (m, k, n) for out = (m x k) · (k x n).
var eqShapes = [][3]int{
	{1, 1, 1},
	{1, 7, 1},
	{7, 1, 1},
	{1, 1, 7},
	{5, 1, 3},
	{1, 5, 9},
	{64, 4, 3},   // tall-skinny
	{3, 50, 70},  // wide-short, j crosses jTileNT
	{65, 33, 17}, // non-tile-multiple everywhere
	{33, 300, 5}, // k crosses kTileNN
	{0, 3, 4},    // zero rows
	{4, 0, 5},    // zero reduction dim
	{4, 5, 0},    // zero cols
	{8, 8, 8},
	{114, 48, 48},  // the smallest 48-wide batch at 2^18 multiply-adds
	{130, 67, 130}, // large: several NT j-tiles, odd k, partial 4-lane group
}

// eqOperands builds operands with exact zeros sprinkled in (to exercise the
// kernels' zero-skip paths) for a given shape and seed.
func eqOperands(seed uint64, rows, cols int) *Matrix {
	rng := stats.NewRNG(seed)
	m := Randn(rng, rows, cols, 1)
	for i := range m.Data {
		if rng.Float64() < 0.3 {
			m.Data[i] = 0
		}
	}
	return m
}

// bitsEqual reports whether two matrices are identical down to the last bit.
func bitsEqual(a, b *Matrix) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i, v := range a.Data {
		if math.Float64bits(v) != math.Float64bits(b.Data[i]) {
			return false
		}
	}
	return true
}

// forceParallel forces the pool path for arbitrarily small shapes and
// restores the threshold and worker width afterwards.
func forceParallel(t *testing.T, workers int) {
	t.Helper()
	oldOps := minParallelOps
	minParallelOps = 0
	SetWorkers(workers)
	t.Cleanup(func() {
		minParallelOps = oldOps
		SetWorkers(0)
	})
}

// dirty returns a shape-matched destination full of garbage, so the tests
// also prove the Into kernels fully overwrite stale contents.
func dirty(rows, cols int) *Matrix {
	m := New(rows, cols)
	m.Fill(math.Pi * 1e9)
	return m
}

type kernelCase struct {
	name string
	// operands builds (a, b) for output shape (m x n).
	operands func(seed uint64, m, k, n int) (a, b *Matrix)
	ref      func(out, a, b *Matrix)
	into     func(out, a, b *Matrix)
	outShape func(m, k, n int) (int, int)
}

var kernelCases = []kernelCase{
	{
		name: "MatMul",
		operands: func(seed uint64, m, k, n int) (*Matrix, *Matrix) {
			return eqOperands(seed, m, k), eqOperands(seed+1, k, n)
		},
		ref:      refMatMulInto,
		into:     MatMulInto,
		outShape: func(m, k, n int) (int, int) { return m, n },
	},
	{
		name: "MatMulTN",
		operands: func(seed uint64, m, k, n int) (*Matrix, *Matrix) {
			return eqOperands(seed, k, m), eqOperands(seed+1, k, n)
		},
		ref:      refMatMulTNInto,
		into:     MatMulTNInto,
		outShape: func(m, k, n int) (int, int) { return m, n },
	},
	{
		name: "MatMulNT",
		operands: func(seed uint64, m, k, n int) (*Matrix, *Matrix) {
			return eqOperands(seed, m, k), eqOperands(seed+1, n, k)
		},
		ref:      refMatMulNTInto,
		into:     MatMulNTInto,
		outShape: func(m, k, n int) (int, int) { return m, n },
	},
}

// TestEquivalenceSerialVsNaive checks the blocked kernels (single worker,
// whole-range panel) against the retained naive references with a tight
// epsilon: the 4-wide grouping reorders the reduction, so exact bit equality
// with the seed code is not required — numerical agreement is.
func TestEquivalenceSerialVsNaive(t *testing.T) {
	SetWorkers(1)
	defer SetWorkers(0)
	for _, kc := range kernelCases {
		for si, shape := range eqShapes {
			m, k, n := shape[0], shape[1], shape[2]
			t.Run(fmt.Sprintf("%s/%dx%dx%d", kc.name, m, k, n), func(t *testing.T) {
				a, b := kc.operands(uint64(100+si), m, k, n)
				or, oc := kc.outShape(m, k, n)
				want := dirty(or, oc)
				kc.ref(want, a, b)
				got := dirty(or, oc)
				kc.into(got, a, b)
				if !got.Equal(want, 1e-12) {
					t.Errorf("blocked kernel diverged from naive reference\n got  %v\n want %v", got.Data, want.Data)
				}
			})
		}
	}
}

// TestEquivalenceParallelBitIdentical is the load-bearing determinism test:
// for every kernel, shape, and worker count, the pooled parallel launch must
// be bit-identical to the serial (one-panel) launch of the same kernel.
func TestEquivalenceParallelBitIdentical(t *testing.T) {
	for _, workers := range []int{2, 3, 4, 7} {
		for _, kc := range kernelCases {
			for si, shape := range eqShapes {
				m, k, n := shape[0], shape[1], shape[2]
				t.Run(fmt.Sprintf("w%d/%s/%dx%dx%d", workers, kc.name, m, k, n), func(t *testing.T) {
					a, b := kc.operands(uint64(200+si), m, k, n)
					or, oc := kc.outShape(m, k, n)

					SetWorkers(1)
					serial := dirty(or, oc)
					kc.into(serial, a, b)

					forceParallel(t, workers)
					parallel := dirty(or, oc)
					kc.into(parallel, a, b)

					if !bitsEqual(serial, parallel) {
						t.Errorf("parallel result (w=%d) not bit-identical to serial\n serial   %v\n parallel %v",
							workers, serial.Data, parallel.Data)
					}
				})
			}
		}
	}
}

// TestEquivalenceAccIntoBitIdentical covers the fused accumulate kernel:
// serial and parallel MatMulTNAccInto must agree bitwise, and must equal
// out0 + aᵀb within epsilon.
func TestEquivalenceAccIntoBitIdentical(t *testing.T) {
	for si, shape := range eqShapes {
		m, k, n := shape[0], shape[1], shape[2]
		t.Run(fmt.Sprintf("%dx%dx%d", m, k, n), func(t *testing.T) {
			a := eqOperands(uint64(300+si), k, m)
			b := eqOperands(uint64(301+si), k, n)
			init := eqOperands(uint64(302+si), m, n)

			SetWorkers(1)
			serial := init.Clone()
			MatMulTNAccInto(serial, a, b)

			forceParallel(t, 4)
			parallel := init.Clone()
			MatMulTNAccInto(parallel, a, b)

			if !bitsEqual(serial, parallel) {
				t.Fatalf("acc kernel: parallel not bit-identical to serial")
			}
			want := dirty(m, n)
			refMatMulTNInto(want, a, b)
			want.Add(init)
			if !serial.Equal(want, 1e-12) {
				t.Errorf("acc kernel diverged from init + aᵀb\n got  %v\n want %v", serial.Data, want.Data)
			}
		})
	}
}

// TestEquivalenceNonIntoMatchesInto pins the allocating wrappers to their
// Into kernels.
func TestEquivalenceNonIntoMatchesInto(t *testing.T) {
	rng := stats.NewRNG(7)
	a := Randn(rng, 9, 13, 1)
	b := Randn(rng, 13, 5, 1)
	out := dirty(9, 5)
	MatMulInto(out, a, b)
	if !bitsEqual(MatMul(a, b), out) {
		t.Error("MatMul != MatMulInto")
	}
	at := Randn(rng, 13, 9, 1)
	out = dirty(9, 5)
	MatMulTNInto(out, at, b)
	if !bitsEqual(MatMulTN(at, b), out) {
		t.Error("MatMulTN != MatMulTNInto")
	}
	bt := Randn(rng, 5, 13, 1)
	out = dirty(9, 5)
	MatMulNTInto(out, a, bt)
	if !bitsEqual(MatMulNT(a, bt), out) {
		t.Error("MatMulNT != MatMulNTInto")
	}
}

// TestEquivalenceTranspose checks the blocked (and parallel) transpose
// against the seed's strided walk — a pure permutation, so exact equality.
func TestEquivalenceTranspose(t *testing.T) {
	shapes := [][2]int{{1, 1}, {1, 9}, {9, 1}, {33, 65}, {70, 3}, {0, 4}, {4, 0}, {64, 64}}
	for _, ws := range []int{1, 4} {
		for _, shape := range shapes {
			r, c := shape[0], shape[1]
			t.Run(fmt.Sprintf("w%d/%dx%d", ws, r, c), func(t *testing.T) {
				m := eqOperands(uint64(10*r+c), r, c)
				want := dirty(c, r)
				refTransposeInto(want, m)
				if ws == 1 {
					SetWorkers(1)
					defer SetWorkers(0)
				} else {
					forceParallel(t, ws)
				}
				got := dirty(c, r)
				TransposeInto(got, m)
				if !bitsEqual(got, want) {
					t.Errorf("blocked transpose diverged\n got  %v\n want %v", got.Data, want.Data)
				}
				if !bitsEqual(Transpose(m), want) {
					t.Errorf("Transpose wrapper diverged")
				}
			})
		}
	}
}
