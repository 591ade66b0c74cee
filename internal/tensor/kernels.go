package tensor

// Cache-blocked matmul kernels. Each kernel computes a contiguous panel
// [lo, hi) of output rows, which is the unit the worker pool shards; panels
// partition the output, so no element is ever written by two workers. The
// panels make every tiling, row-pairing and zero-skip decision here in Go
// and run their innermost loops through the row kernels of rowkernels.go.
//
// Determinism contract: for every output element the reduction over k runs
// in one fixed order — ascending k, grouped 4-wide with a sequential tail
// (NN, TN), or the 2-way (even + odd) + tail split (NT) — that does not
// depend on the panel boundaries, the tile sizes, the worker count or the
// row kernel the CPU selects. The AVX2 row kernels run lanes across output
// columns j only, with separate multiplies and adds and no fused
// multiply-add, so each lane performs the generic kernel's operations in
// its order; they are chosen once at start-up by CPUID, never by an option.
// Serial (one whole-range panel) and parallel (many panels) launches, and
// the AVX2 and generic kernels, therefore produce bit-identical results;
// equivalence_test.go and rowkernels_amd64_test.go lock this down.
//
// Blocking parameters. The NN kernel tiles the reduction dimension so a
// kTileNN x n panel of b stays cache-resident while it is reused by every
// row of the output panel. The NT kernel packs bᵀ once per call into 4-lane
// panels (packNT) and tiles them so a jTileNT x k slice is reused across
// the whole output panel; jTileNT is a multiple of 4 so tiles start on a
// lane group. The TN kernel keeps the output panel itself hot (it is
// weight-gradient-shaped, i.e. small) and streams a and b exactly once. The
// transpose walks 32x32 tiles so both the source rows and the destination
// columns stay within a few cache lines.
const (
	kTileNN = 256 // k-rows of b per NN pass
	jTileNT = 64  // rows of b per NT pass
	trTile  = 32  // transpose tile edge
)

// gemmNNPanel computes out[lo:hi] = a[lo:hi] * b (zeroing the panel first).
// The 4-wide k grouping halves traffic on the output row; an all-zero group
// (common for post-ReLU activations) is skipped entirely. Output rows are
// register-blocked in pairs so each loaded group of four b rows feeds two
// output rows; each row keeps its own skip decision and its own k-ascending
// accumulation expression, so the result is bit-identical to the unpaired
// walk (the determinism contract above).
func gemmNNPanel(out, a, b *Matrix, lo, hi int) {
	n := b.Cols
	kDim := a.Cols
	for i := lo; i < hi; i++ {
		orow := out.Row(i)
		for j := range orow {
			orow[j] = 0
		}
	}
	if n == 0 {
		return
	}
	for kk := 0; kk < kDim; kk += kTileNN {
		kEnd := kk + kTileNN
		if kEnd > kDim {
			kEnd = kDim
		}
		i := lo
		for ; i+1 < hi; i += 2 {
			// The [:kDim] / [:n] reslices pin lengths the prove pass can see,
			// eliminating bounds checks in the inner loops.
			arow := a.Row(i)[:kDim]
			arow2 := a.Row(i + 1)[:kDim]
			orow := out.Row(i)[:n]
			orow2 := out.Row(i + 1)[:n]
			k := kk
			for ; k+3 < kEnd; k += 4 {
				a0, a1, a2, a3 := arow[k], arow[k+1], arow[k+2], arow[k+3]
				c0, c1, c2, c3 := arow2[k], arow2[k+1], arow2[k+2], arow2[k+3]
				zA := a0 == 0 && a1 == 0 && a2 == 0 && a3 == 0
				zC := c0 == 0 && c1 == 0 && c2 == 0 && c3 == 0
				if zA && zC {
					continue
				}
				b0 := b.Data[k*n:][:n]
				b1 := b.Data[(k+1)*n:][:n]
				b2 := b.Data[(k+2)*n:][:n]
				b3 := b.Data[(k+3)*n:][:n]
				switch {
				case zA:
					axpy4(orow2, b0, b1, b2, b3, c0, c1, c2, c3)
				case zC:
					axpy4(orow, b0, b1, b2, b3, a0, a1, a2, a3)
				default:
					axpy4x2(orow, orow2, b0, b1, b2, b3, a0, a1, a2, a3, c0, c1, c2, c3)
				}
			}
			for ; k < kEnd; k++ {
				av, cv := arow[k], arow2[k]
				if av == 0 && cv == 0 {
					continue
				}
				brow := b.Data[k*n:][:n]
				switch {
				case av == 0:
					for j, bv := range brow {
						orow2[j] += cv * bv
					}
				case cv == 0:
					for j, bv := range brow {
						orow[j] += av * bv
					}
				default:
					for j, bv := range brow {
						orow[j] += av * bv
						orow2[j] += cv * bv
					}
				}
			}
		}
		for ; i < hi; i++ {
			arow := a.Row(i)[:kDim]
			orow := out.Row(i)[:n]
			k := kk
			for ; k+3 < kEnd; k += 4 {
				a0, a1, a2, a3 := arow[k], arow[k+1], arow[k+2], arow[k+3]
				if a0 == 0 && a1 == 0 && a2 == 0 && a3 == 0 {
					continue
				}
				axpy4(orow, b.Data[k*n:][:n], b.Data[(k+1)*n:][:n],
					b.Data[(k+2)*n:][:n], b.Data[(k+3)*n:][:n], a0, a1, a2, a3)
			}
			for ; k < kEnd; k++ {
				av := arow[k]
				if av == 0 {
					continue
				}
				brow := b.Data[k*n:][:n]
				for j, bv := range brow {
					orow[j] += av * bv
				}
			}
		}
	}
}

// gemmTNPanel computes out[lo:hi] (+)= aᵀ*b over the panel of out rows
// [lo, hi), i.e. columns lo..hi of a. When acc is false the panel is zeroed
// first; when true the products accumulate into the existing contents
// (fused weight-gradient accumulation: Grad += xᵀ·dy without a temporary).
func gemmTNPanel(out, a, b *Matrix, lo, hi int, acc bool) {
	n := b.Cols
	kDim := a.Rows
	m := a.Cols
	if !acc {
		for i := lo; i < hi; i++ {
			orow := out.Row(i)
			for j := range orow {
				orow[j] = 0
			}
		}
	}
	if n == 0 {
		return
	}
	k := 0
	for ; k+3 < kDim; k += 4 {
		ar0 := a.Data[k*m:][:m]
		ar1 := a.Data[(k+1)*m:][:m]
		ar2 := a.Data[(k+2)*m:][:m]
		ar3 := a.Data[(k+3)*m:][:m]
		br0 := b.Data[k*n:][:n]
		br1 := b.Data[(k+1)*n:][:n]
		br2 := b.Data[(k+2)*n:][:n]
		br3 := b.Data[(k+3)*n:][:n]
		// Output rows in register-blocked pairs: one pass over the four b
		// rows feeds both. Skip decisions and accumulation expressions stay
		// per-row, so results are bit-identical to the unpaired walk.
		i := lo
		for ; i+1 < hi; i += 2 {
			a0, a1, a2, a3 := ar0[i], ar1[i], ar2[i], ar3[i]
			c0, c1, c2, c3 := ar0[i+1], ar1[i+1], ar2[i+1], ar3[i+1]
			zA := a0 == 0 && a1 == 0 && a2 == 0 && a3 == 0
			zC := c0 == 0 && c1 == 0 && c2 == 0 && c3 == 0
			if zA && zC {
				continue
			}
			orow := out.Row(i)[:n]
			orow2 := out.Row(i + 1)[:n]
			switch {
			case zA:
				axpy4(orow2, br0, br1, br2, br3, c0, c1, c2, c3)
			case zC:
				axpy4(orow, br0, br1, br2, br3, a0, a1, a2, a3)
			default:
				axpy4x2(orow, orow2, br0, br1, br2, br3, a0, a1, a2, a3, c0, c1, c2, c3)
			}
		}
		for ; i < hi; i++ {
			a0, a1, a2, a3 := ar0[i], ar1[i], ar2[i], ar3[i]
			if a0 == 0 && a1 == 0 && a2 == 0 && a3 == 0 {
				continue
			}
			axpy4(out.Row(i)[:n], br0, br1, br2, br3, a0, a1, a2, a3)
		}
	}
	for ; k < kDim; k++ {
		arow := a.Data[k*m:][:m]
		brow := b.Data[k*n:][:n]
		for i := lo; i < hi; i++ {
			av := arow[i]
			if av == 0 {
				continue
			}
			orow := out.Row(i)[:n]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
}

// gemmNTPanel computes out[lo:hi] = a[lo:hi] * bᵀ from p, the rows of b
// packed by packNT into 4-lane groups. Each element is an independent dot
// product with the fixed reduction shape of dot4Generic. Output rows go in
// pairs through dot4x2, so each loaded panel vector feeds two rows, and the
// j tiling keeps a jTileNT x k slice of the panel resident across the
// output panel. The last group of a width that is not a multiple of 4 is
// computed into a stack buffer and only its real columns are copied out.
func gemmNTPanel(out, a *Matrix, p []float64, lo, hi int) {
	kDim := a.Cols
	nOut := out.Cols
	var t, t2 [4]float64
	for jj := 0; jj < nOut; jj += jTileNT {
		jEnd := jj + jTileNT
		if jEnd > nOut {
			jEnd = nOut
		}
		i := lo
		for ; i+1 < hi; i += 2 {
			arow := a.Row(i)[:kDim]
			arow2 := a.Row(i + 1)[:kDim]
			orow := out.Row(i)[:nOut]
			orow2 := out.Row(i + 1)[:nOut]
			for j := jj; j < jEnd; j += 4 {
				pg := p[j*kDim:][:4*kDim]
				if j+4 <= nOut {
					dot4x2(orow[j:j+4], orow2[j:j+4], arow, arow2, pg)
					continue
				}
				dot4x2(t[:], t2[:], arow, arow2, pg)
				copy(orow[j:], t[:])
				copy(orow2[j:], t2[:])
			}
		}
		for ; i < hi; i++ {
			arow := a.Row(i)[:kDim]
			orow := out.Row(i)[:nOut]
			for j := jj; j < jEnd; j += 4 {
				pg := p[j*kDim:][:4*kDim]
				if j+4 <= nOut {
					dot4(orow[j:j+4], arow, pg)
					continue
				}
				dot4(t[:], arow, pg)
				copy(orow[j:], t[:])
			}
		}
	}
}

// transposePanel writes out rows [lo, hi) of the transpose (columns lo..hi
// of m) in trTile x trTile blocks, replacing the seed's full-stride column
// walk that thrashed cache on tall matrices.
func transposePanel(out, m *Matrix, lo, hi int) {
	for jj := lo; jj < hi; jj += trTile {
		jEnd := jj + trTile
		if jEnd > hi {
			jEnd = hi
		}
		for ii := 0; ii < m.Rows; ii += trTile {
			iEnd := ii + trTile
			if iEnd > m.Rows {
				iEnd = m.Rows
			}
			for i := ii; i < iEnd; i++ {
				row := m.Row(i)
				for j := jj; j < jEnd; j++ {
					out.Data[j*m.Rows+i] = row[j]
				}
			}
		}
	}
}
