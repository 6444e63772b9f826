package tensor

// useAVX selects the AVX versions (kernel_amd64.s) of the 4-row NT and
// direct/TN kernels: the CPU has AVX, and the OS saves the YMM
// registers across context switches. Decided once, at start-up; either
// way the bytes are the same.
var useAVX = hasAVX()

// hasAVX reads CPUID leaf 1 for AVX and OSXSAVE, then XCR0 for the XMM
// and YMM state bits.
func hasAVX() bool {
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx := cpuid1ECX(); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	return xgetbv0()&6 == 6
}

// cpuid1ECX returns ECX of CPUID leaf 1: the feature bits.
func cpuid1ECX() uint32

// xgetbv0 returns the low word of XCR0: the register state the OS saves.
func xgetbv0() uint32

// nt4x8 is nt4x2 over eight b rows: it adds the dot products of four A
// rows with eight b rows, all ld apart and n ≥ 1 long, onto the 4×8
// block of C at c, whose rows are ldc apart.
//
//go:noescape
func nt4x8(c *float64, ldc int, a, b *float64, ld, n int)

// gemm4x4 is gemm4Rows over a width w that is a positive multiple of
// four, with C's and B's rows both ld apart.
//
//go:noescape
func gemm4x4(c, a, b *float64, ld, aRow, aK, n, w int)
