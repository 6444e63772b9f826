package tensor

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Process-wide worker pool for intra-op kernel parallelism. A kernel
// partitions its *output* rows or columns into one contiguous chunk per
// worker, so every element is accumulated by exactly one goroutine in
// the fixed ascending-K order — results are byte-identical for any
// worker count, which preserves the runtime-vs-interpreter
// bit-identical cross-check.
//
// The fan-out allocates nothing. A parallel GEMM's state — the
// partition, the operands, split-K's private accumulators and the
// WaitGroup its chunks finish on — is one gemmJob from a sync.Pool, and
// the work queue carries {job, lo, hi} values, so handing a chunk to a
// worker captures no closure and boxes nothing.

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

// fan names the GEMM axis a job partitions.
type fan uint8

const (
	fanRows   fan = iota // output rows [lo, hi), every column, all of K
	fanCols              // output columns [lo, hi), every row, all of K
	fanSplitK            // split-K ranges [lo, hi), each into its own partial
)

// gemmJob is one parallel GEMM: the kernels' arguments plus what its
// chunks share. It belongs to the goroutine that took it from jobs
// until that goroutine's fanOut returns; a worker touches it only
// between receiving a chunk and that chunk's wg.Done.
type gemmJob struct {
	fan fan
	c   []float64
	g   gemmOperands
	// parts[:s] are split-K's private accumulators, one per K range.
	parts [MaxKernelSplitK]*[]float64
	s     int
	wg    sync.WaitGroup
}

// chunk is one contiguous share of a job, as the queue carries it.
type chunk struct {
	job    *gemmJob
	lo, hi int
}

var jobs = sync.Pool{New: func() any { return new(gemmJob) }}

// getJob takes a job for the given partition of C += A·B.
func getJob(f fan, c []float64, g gemmOperands) *gemmJob {
	j := jobs.Get().(*gemmJob)
	j.fan, j.c, j.g = f, c, g
	return j
}

// putJob hands a finished job back, dropping its references so a
// pooled job pins no tensor.
func putJob(j *gemmJob) {
	clear(j.parts[:j.s])
	j.c, j.g, j.s = nil, gemmOperands{}, 0
	jobs.Put(j)
}

// run computes the job's share [lo, hi) on the calling goroutine.
func (j *gemmJob) run(lo, hi int) {
	g, rows := j.g, j.g.B*j.g.M
	switch j.fan {
	case fanRows:
		g.block(j.c, lo, hi, 0, g.N, 0, g.K)
	case fanCols:
		g.block(j.c, 0, rows, lo, hi, 0, g.K)
	case fanSplitK:
		for i := lo; i < hi; i++ {
			g.block(*j.parts[i], 0, rows, 0, g.N, i*g.K/j.s, (i+1)*g.K/j.s)
		}
	}
}

// run computes the chunk and signals its job; the job is not touched
// after Done, since its owner may reuse it from then on.
func (ch chunk) run() {
	ch.job.run(ch.lo, ch.hi)
	ch.job.wg.Done()
}

var (
	workerOnce sync.Once
	workQueue  chan chunk
)

// submit hands one chunk to the pool, spilling to a fresh goroutine
// when every pooled worker is busy — concurrent device goroutines may
// request parallel kernels at once, and a kernel must never wait on a
// queue its peers are also filling.
func submit(ch chunk) {
	workerOnce.Do(func() {
		n := runtime.GOMAXPROCS(0)
		workQueue = make(chan chunk, 4*n)
		for i := 0; i < n; i++ {
			go func() {
				for ch := range workQueue {
					ch.run()
				}
			}()
		}
	})
	select {
	case workQueue <- ch:
	default:
		go ch.run()
	}
}

// fanOut runs the job over [0, n) split into at most workers
// contiguous chunks. The caller's goroutine computes the first chunk
// while the pool computes the rest. The chunk boundaries depend only on
// (n, workers); which goroutine runs a chunk never matters because
// chunks are disjoint.
func (j *gemmJob) fanOut(n, workers int) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		j.run(0, n)
		return
	}
	size := (n + workers - 1) / workers
	for lo := size; lo < n; lo += size {
		j.wg.Add(1)
		submit(chunk{j, lo, min(lo+size, n)})
	}
	j.run(0, size)
	j.wg.Wait()
}
