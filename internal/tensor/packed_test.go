package tensor

import (
	"fmt"
	"math"
	"testing"

	"fedpkd/internal/stats"
)

// Suite for the packed NT path and the float32 GEMM path. Every NT product
// packs bᵀ into 4-lane arena panels (packNT) before the dot kernels run, so
// these tests pin: numerical equivalence to the naive oracle, bit-identity
// across worker counts, and allocation-freedom of the pack.

// TestPackedNTMatchesNaive checks the packed NT path (serial) against the
// retained naive NT reference with a tight epsilon: the 2-way accumulator
// split regroups the sum, so bit equality with the naive loop is not
// required — numerical agreement is.
func TestPackedNTMatchesNaive(t *testing.T) {
	SetWorkers(1)
	defer SetWorkers(0)
	for si, shape := range eqShapes {
		m, k, n := shape[0], shape[1], shape[2]
		t.Run(fmt.Sprintf("%dx%dx%d", m, k, n), func(t *testing.T) {
			a := eqOperands(uint64(400+si), m, k)
			b := eqOperands(uint64(401+si), n, k)
			want := dirty(m, n)
			refMatMulNTInto(want, a, b)
			got := dirty(m, n)
			MatMulNTInto(got, a, b)
			if !got.Equal(want, 1e-12) {
				t.Errorf("packed NT diverged from naive reference\n got  %v\n want %v", got.Data, want.Data)
			}
		})
	}
}

// TestPackedNTParallelBitIdentical is the packed path's half of the
// determinism contract: for every shape and worker count (including the
// GOMAXPROCS default), the pooled parallel launch over the shared panel must
// be bit-identical to the serial one-panel launch.
func TestPackedNTParallelBitIdentical(t *testing.T) {
	for _, workers := range []int{0, 2, 3, 4, 7} {
		for si, shape := range eqShapes {
			m, k, n := shape[0], shape[1], shape[2]
			t.Run(fmt.Sprintf("w%d/%dx%dx%d", workers, m, k, n), func(t *testing.T) {
				a := eqOperands(uint64(600+si), m, k)
				b := eqOperands(uint64(601+si), n, k)

				SetWorkers(1)
				serial := dirty(m, n)
				MatMulNTInto(serial, a, b)

				forceParallel(t, workers)
				parallel := dirty(m, n)
				MatMulNTInto(parallel, a, b)

				if !bitsEqual(serial, parallel) {
					t.Errorf("packed NT parallel (w=%d) not bit-identical to serial\n serial   %v\n parallel %v",
						workers, serial.Data, parallel.Data)
				}
			})
		}
	}
}

// TestPackedNTAllocFree proves the panel pack stays on the arena: after
// warmup, the serial NT path performs zero allocations per operation, at a
// training shape and at a large one.
func TestPackedNTAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops cached items under the race detector; allocation counts are not meaningful")
	}
	SetWorkers(1)
	defer SetWorkers(0)
	rng := stats.NewRNG(3)
	for _, shape := range [][3]int{{32, 48, 10}, {80, 80, 80}} {
		m, k, n := shape[0], shape[1], shape[2]
		a := Randn(rng, m, k, 1)
		b := Randn(rng, n, k, 1)
		out := New(m, n)
		MatMulNTInto(out, a, b) // warm the scratch arena
		allocs := testing.AllocsPerRun(20, func() {
			MatMulNTInto(out, a, b)
		})
		if allocs != 0 {
			t.Errorf("%dx%dx%d: NT steady state allocates %.1f objects/op, want 0", m, k, n, allocs)
		}
	}
}

// TestMatMulF32MatchesFloat64 bounds the float32 path against the float64
// kernel: the error of a k-term float32 accumulation over O(1)-magnitude
// operands stays well under k·eps32 with sub-unity values; 1e-3 absolute is
// orders of magnitude of headroom at these shapes while still catching any
// indexing or promotion bug (which would show O(1) errors).
func TestMatMulF32MatchesFloat64(t *testing.T) {
	SetWorkers(1)
	defer SetWorkers(0)
	for si, shape := range eqShapes {
		m, k, n := shape[0], shape[1], shape[2]
		t.Run(fmt.Sprintf("%dx%dx%d", m, k, n), func(t *testing.T) {
			a := eqOperands(uint64(700+si), m, k)
			b := eqOperands(uint64(701+si), k, n)
			want := dirty(m, n)
			MatMulInto(want, a, b)
			got := dirty(m, n)
			MatMulF32Into(got, a, b)
			scale := 1.0
			for _, v := range want.Data {
				if math.Abs(v) > scale {
					scale = math.Abs(v)
				}
			}
			for i := range got.Data {
				if diff := math.Abs(got.Data[i] - want.Data[i]); diff > 1e-3*scale {
					t.Fatalf("f32 element %d = %v, f64 = %v (diff %v)", i, got.Data[i], want.Data[i], diff)
				}
			}
			if !bitsEqual(MatMulF32(a, b), got) {
				t.Error("MatMulF32 != MatMulF32Into")
			}
		})
	}
}

// TestMatMulF32ParallelBitIdentical extends the worker-count determinism
// contract to the float32 kernel.
func TestMatMulF32ParallelBitIdentical(t *testing.T) {
	for _, workers := range []int{2, 4, 7} {
		for si, shape := range eqShapes {
			m, k, n := shape[0], shape[1], shape[2]
			t.Run(fmt.Sprintf("w%d/%dx%dx%d", workers, m, k, n), func(t *testing.T) {
				a := eqOperands(uint64(800+si), m, k)
				b := eqOperands(uint64(801+si), k, n)

				SetWorkers(1)
				serial := dirty(m, n)
				MatMulF32Into(serial, a, b)

				forceParallel(t, workers)
				parallel := dirty(m, n)
				MatMulF32Into(parallel, a, b)

				if !bitsEqual(serial, parallel) {
					t.Errorf("f32 parallel (w=%d) not bit-identical to serial", workers)
				}
			})
		}
	}
}

// TestMatMulF32AllocFree: the pooled float32 buffers make the serial f32
// path allocation-free at steady state.
func TestMatMulF32AllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops cached items under the race detector; allocation counts are not meaningful")
	}
	SetWorkers(1)
	defer SetWorkers(0)
	rng := stats.NewRNG(5)
	a := Randn(rng, 48, 48, 1)
	b := Randn(rng, 48, 48, 1)
	out := New(48, 48)
	MatMulF32Into(out, a, b) // warm the f32 pools
	allocs := testing.AllocsPerRun(20, func() {
		MatMulF32Into(out, a, b)
	})
	if allocs != 0 {
		t.Errorf("f32 steady state allocates %.1f objects/op, want 0", allocs)
	}
}
