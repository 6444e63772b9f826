//go:build !amd64

package tensor

// useAVX is false off amd64: the scalar kernels are the only ones, and
// the AVX entry points below are never called.
var useAVX = false

func nt4x8(c *float64, ldc int, a, b *float64, ld, n int) {
	panic("tensor: no AVX kernels on this architecture")
}

func gemm4x4(c, a, b *float64, ld, aRow, aK, n, w int) {
	panic("tensor: no AVX kernels on this architecture")
}
