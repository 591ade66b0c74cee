package tensor

// Row kernels: the innermost loops of the GEMM panels (kernels.go). The
// panels keep every tiling, row-pairing and zero-group skip decision in Go
// and hand one output row (or a pair of rows) to these kernels:
//
//	axpy4(o, b0..b3, a0..a3)          o[j] += a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j]
//	axpy4x2(o, o2, b0..b3, a.., c..)  the same for two rows sharing the b rows
//	dot4(o, a, p)                     o[l] = a · (lane l of the packed panel p)
//	dot4x2(o, o2, a, a2, p)           the same for two rows sharing the panel
//
// NN and TN share axpy4/axpy4x2; NT runs dot4/dot4x2 over bᵀ packed by
// packNT. On amd64 with AVX2 the dispatchers (rowkernels_amd64.go) run the
// assembly versions; everywhere else, and whenever the CPU lacks AVX2, they
// run the _generic functions below. Both compute every output element with
// the same IEEE operations in the same order — the assembly vectorises only
// across independent output columns, never uses fused multiply-add, and
// keeps each lane's scalar evaluation order — so the choice never changes a
// result bit (rowkernels_amd64_test.go compares them with math.Float64bits).

// axpy4Generic computes o[j] += ((a0*b0[j] + a1*b1[j]) + a2*b2[j]) +
// a3*b3[j] for j < len(o). Every b row must be at least len(o) long.
func axpy4Generic(o, b0, b1, b2, b3 []float64, a0, a1, a2, a3 float64) {
	n := len(o)
	b0, b1, b2, b3 = b0[:n], b1[:n], b2[:n], b3[:n]
	for j, v0 := range b0 {
		o[j] += a0*v0 + a1*b1[j] + a2*b2[j] + a3*b3[j]
	}
}

// axpy4x2Generic is axpy4Generic for the row pair (o, a) and (o2, c): one
// pass over the four b rows feeds both, and each row keeps its own
// accumulation expression.
func axpy4x2Generic(o, o2, b0, b1, b2, b3 []float64, a0, a1, a2, a3, c0, c1, c2, c3 float64) {
	n := len(o)
	o2, b0, b1, b2, b3 = o2[:n], b0[:n], b1[:n], b2[:n], b3[:n]
	for j, v0 := range b0 {
		v1, v2, v3 := b1[j], b2[j], b3[j]
		o[j] += a0*v0 + a1*v1 + a2*v2 + a3*v3
		o2[j] += c0*v0 + c1*v1 + c2*v2 + c3*v3
	}
}

// dot4Generic computes the four dot products o[l] = Σ_k a[k]·p[4k+l] for
// l < 4, where p holds four rows of b packed k-major (packNT). Each lane is
// a dot product with a fixed 2-way accumulator split and a fixed combine
// order, (even + odd) + tail, where the tail is the last term when len(a)
// is odd and +0 otherwise. o must hold 4 values and p 4*len(a).
func dot4Generic(o, a, p []float64) {
	o, p = o[:4], p[:4*len(a)]
	for l := range o {
		var s0, s1 float64
		k := 0
		for ; k+1 < len(a); k += 2 {
			s0 += a[k] * p[4*k+l]
			s1 += a[k+1] * p[4*k+4+l]
		}
		var tail float64
		for ; k < len(a); k++ {
			tail += a[k] * p[4*k+l]
		}
		o[l] = (s0 + s1) + tail
	}
}

// packNT writes the rows of b into p as 4-lane, k-major panels: group g
// holds rows 4g..4g+3 with p[g*4k + 4*kk + l] = b[4g+l][kk]. The missing
// rows of a partial last group are zero. p must hold ceil(rows/4)*4*cols
// values.
func packNT(p []float64, b *Matrix) {
	k := b.Cols
	for j := 0; j < b.Rows; j++ {
		g := p[(j/4)*4*k:][:4*k]
		for kk, v := range b.Row(j)[:k] {
			g[4*kk+j%4] = v
		}
	}
	for j := b.Rows; j%4 != 0; j++ {
		g := p[(j/4)*4*k:][:4*k]
		for kk := 0; kk < k; kk++ {
			g[4*kk+j%4] = 0
		}
	}
}
