//go:build !amd64

package tensor

// Without the amd64 assembly the row kernels are the generic Go loops.

func axpy4(o, b0, b1, b2, b3 []float64, a0, a1, a2, a3 float64) {
	axpy4Generic(o, b0, b1, b2, b3, a0, a1, a2, a3)
}

func axpy4x2(o, o2, b0, b1, b2, b3 []float64, a0, a1, a2, a3, c0, c1, c2, c3 float64) {
	axpy4x2Generic(o, o2, b0, b1, b2, b3, a0, a1, a2, a3, c0, c1, c2, c3)
}

func dot4(o, a, p []float64) { dot4Generic(o, a, p) }

func dot4x2(o, o2, a, a2, p []float64) {
	dot4Generic(o, a, p)
	dot4Generic(o2, a2, p)
}
