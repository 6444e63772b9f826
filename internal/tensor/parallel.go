package tensor

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Process-wide worker pool for intra-op kernel parallelism. A kernel
// partitions its *output* rows into one contiguous chunk per worker, so
// every element is accumulated by exactly one goroutine in the fixed
// ascending-K order — results are byte-identical for any worker count,
// which preserves the runtime-vs-interpreter bit-identical cross-check.

// KernelWorkers returns the intra-op worker count: the host's
// parallelism, GOMAXPROCS. An operator who wants fewer threads sets
// GOMAXPROCS; the count changes only how work is partitioned, never the
// result bytes.
func KernelWorkers() int { return runtime.GOMAXPROCS(0) }

// MaxKernelSplitK bounds the split factor; the tree combine costs
// (S-1)·M·N adds, so very large factors only add overhead.
const MaxKernelSplitK = 64

// kernelSplitK holds the factor bare Einsum / EinsumAddInto calls use;
// 0 or 1 means "rows only" (the default — results are then
// byte-identical to the scalar reference on every spec).
var kernelSplitK atomic.Int32

// SetKernelSplitK sets the split-K factor of bare Einsum and
// EinsumAddInto calls, the ones made outside any program: skinny GEMMs
// (too few output rows to feed the worker pool) partition their
// contraction into n ranges reduced by a fixed-shape binary tree (see
// splitk.go). n <= 1 disables splitting. Programs do not read it: an
// einsum instruction carries its planned factor in the text
// (hlo.Instruction.SplitK, stamped by core.Apply) and the executors
// pass it to EinsumSplitK explicitly.
func SetKernelSplitK(n int) {
	kernelSplitK.Store(int32(clampSplitK(n)))
}

// KernelSplitK returns the factor of bare calls (0 when off).
func KernelSplitK() int {
	return int(kernelSplitK.Load())
}

// clampSplitK maps a requested split-K value to the factor the GEMM
// dispatcher uses: 0 for anything below 2, at most MaxKernelSplitK.
func clampSplitK(n int) int {
	if n <= 1 {
		return 0
	}
	if n > MaxKernelSplitK {
		return MaxKernelSplitK
	}
	return n
}

var (
	workerOnce sync.Once
	workQueue  chan func()
)

// submit hands one chunk to the pool, spilling to a fresh goroutine
// when every pooled worker is busy — concurrent device goroutines may
// request parallel kernels at once, and a kernel must never wait on a
// queue its peers are also filling.
func submit(f func()) {
	workerOnce.Do(func() {
		n := runtime.GOMAXPROCS(0)
		workQueue = make(chan func(), 4*n)
		for i := 0; i < n; i++ {
			go func() {
				for g := range workQueue {
					g()
				}
			}()
		}
	})
	select {
	case workQueue <- f:
	default:
		go f()
	}
}

// parallelRows runs fn over [0, rows) split into at most workers
// contiguous chunks. The caller's goroutine computes the first chunk
// while the pool computes the rest. The chunk boundaries depend only on
// (rows, workers); which goroutine runs a chunk never matters because
// chunks are disjoint.
func parallelRows(rows, workers int, fn func(lo, hi int)) {
	if workers > rows {
		workers = rows
	}
	if workers <= 1 {
		fn(0, rows)
		return
	}
	chunk := (rows + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := chunk; lo < rows; lo += chunk {
		hi := lo + chunk
		if hi > rows {
			hi = rows
		}
		lo, hi := lo, hi
		wg.Add(1)
		submit(func() {
			defer wg.Done()
			fn(lo, hi)
		})
	}
	fn(0, chunk)
	wg.Wait()
}
