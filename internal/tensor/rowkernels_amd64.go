package tensor

// hasAVX2 selects the assembly row kernels (rowkernels_amd64.s). It is set
// once at start-up from CPUID and XGETBV: the CPU must support AVX and AVX2,
// and the OS must save the YMM registers across context switches.
var hasAVX2 = cpuHasAVX2()

func cpuHasAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	const xmmYmmState = 1<<1 | 1<<2
	if xcr0, _ := xgetbv(); xcr0&xmmYmmState != xmmYmmState {
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

// xgetbv returns the low and high halves of XCR0.
func xgetbv() (eax, edx uint32)

// The assembly kernels trust their slice lengths: the dispatchers below
// reslice every operand to the length the kernel will touch, so a short
// operand panics here rather than being read out of bounds.

//go:noescape
func axpy4AVX2(o, b0, b1, b2, b3 []float64, a0, a1, a2, a3 float64)

//go:noescape
func axpy4x2AVX2(o, o2, b0, b1, b2, b3 []float64, a0, a1, a2, a3, c0, c1, c2, c3 float64)

//go:noescape
func dot4AVX2(o, a, p []float64)

//go:noescape
func dot4x2AVX2(o, o2, a, a2, p []float64)

func axpy4(o, b0, b1, b2, b3 []float64, a0, a1, a2, a3 float64) {
	if !hasAVX2 {
		axpy4Generic(o, b0, b1, b2, b3, a0, a1, a2, a3)
		return
	}
	n := len(o)
	axpy4AVX2(o, b0[:n], b1[:n], b2[:n], b3[:n], a0, a1, a2, a3)
}

func axpy4x2(o, o2, b0, b1, b2, b3 []float64, a0, a1, a2, a3, c0, c1, c2, c3 float64) {
	if !hasAVX2 {
		axpy4x2Generic(o, o2, b0, b1, b2, b3, a0, a1, a2, a3, c0, c1, c2, c3)
		return
	}
	n := len(o)
	axpy4x2AVX2(o, o2[:n], b0[:n], b1[:n], b2[:n], b3[:n], a0, a1, a2, a3, c0, c1, c2, c3)
}

func dot4(o, a, p []float64) {
	if !hasAVX2 {
		dot4Generic(o, a, p)
		return
	}
	dot4AVX2(o[:4], a, p[:4*len(a)])
}

func dot4x2(o, o2, a, a2, p []float64) {
	if !hasAVX2 {
		dot4Generic(o, a, p)
		dot4Generic(o2, a2, p)
		return
	}
	dot4x2AVX2(o[:4], o2[:4], a, a2[:len(a)], p[:4*len(a)])
}
