package tensor

import (
	"fmt"
	"strings"
	"sync"
)

// This file is the einsum kernel engine: any two-operand einsum whose
// labels classify cleanly into batch/M/N/K groups is lowered to a
// canonical batched-GEMM form — permute-packed into contiguous scratch
// buffers when the operand layout requires it — and executed by a
// cache-blocked microkernel with stride-1 inner loops and register
// accumulation, optionally partitioned across the process-wide worker
// pool (see parallel.go). Specs that do not lower (single-operand
// reductions, labels summed within one operand) fall back to the
// odometer reference path in einsum.go.
//
// Determinism contract: for every output element the contracted terms
// are accumulated in ascending flattened-K order — exactly the order
// the odometer reference uses — and each element is written by exactly
// one worker. Kernel results are therefore byte-identical to
// einsumReference and byte-identical across any worker count.

// gemmPlan is the shape-independent lowering of one einsum spec. Plans
// are cached per spec string (the compiler emits a small, fixed set of
// specs per program), so the steady-state dispatch path allocates
// nothing.
type gemmPlan struct {
	ok bool // lowerable to GEMM form

	// Label groups in canonical order: batch, m and n follow the
	// output's label order; k follows ContractedLabels() order (first
	// appearance in the inputs), which is what fixes the accumulation
	// order to match the reference.
	nBatch, nM, nN, nK int

	// lhsPerm maps packed [batch, m, k] dimension i to the operand
	// dimension holding that label; rhsPerm maps packed [batch, k, n];
	// outPerm maps packed [batch, m, n] to output dimensions.
	lhsPerm, rhsPerm, outPerm []int

	// Direct layouts: the operand (or output) is already row-major in
	// packed order, so its backing array is used without copying.
	lhsDirect, rhsDirect, outDirect bool
}

// buildPlan classifies the spec's labels and constructs the packing
// permutations. A spec lowers when it has two operands and every label
// falls into one of the four GEMM groups:
//
//	batch — in lhs, rhs and the output
//	M     — in lhs and the output only
//	N     — in rhs and the output only
//	K     — in lhs and rhs only (contracted)
//
// A label present in exactly one operand and absent from the output
// (a sum within a single operand) has no GEMM group; such specs keep
// the reference path.
func buildPlan(spec EinsumSpec) *gemmPlan {
	p := &gemmPlan{}
	if len(spec.Inputs) != 2 {
		return p
	}
	lhs, rhs, out := spec.Inputs[0], spec.Inputs[1], spec.Output
	var batch, m, n, k []byte
	for i := 0; i < len(out); i++ {
		c := out[i]
		inL := strings.IndexByte(lhs, c) >= 0
		inR := strings.IndexByte(rhs, c) >= 0
		switch {
		case inL && inR:
			batch = append(batch, c)
		case inL:
			m = append(m, c)
		default:
			n = append(n, c) // parser guarantees presence in some operand
		}
	}
	for i := 0; i < len(lhs); i++ {
		c := lhs[i]
		if strings.IndexByte(out, c) >= 0 {
			continue
		}
		if strings.IndexByte(rhs, c) < 0 {
			return p // summed within lhs alone: not GEMM-shaped
		}
		k = append(k, c)
	}
	for i := 0; i < len(rhs); i++ {
		c := rhs[i]
		if strings.IndexByte(out, c) < 0 && strings.IndexByte(lhs, c) < 0 {
			return p // summed within rhs alone
		}
	}

	p.nBatch, p.nM, p.nN, p.nK = len(batch), len(m), len(n), len(k)
	lhsOrder := string(batch) + string(m) + string(k)
	rhsOrder := string(batch) + string(k) + string(n)
	outOrder := string(batch) + string(m) + string(n)
	p.lhsPerm = labelPositions(lhsOrder, lhs)
	p.rhsPerm = labelPositions(rhsOrder, rhs)
	p.outPerm = labelPositions(outOrder, out)
	p.lhsDirect = lhsOrder == lhs
	p.rhsDirect = rhsOrder == rhs
	p.outDirect = outOrder == out
	p.ok = true
	return p
}

// labelPositions returns, for each label of want, its dimension index
// in have.
func labelPositions(want, have string) []int {
	pos := make([]int, len(want))
	for i := 0; i < len(want); i++ {
		pos[i] = strings.IndexByte(have, want[i])
	}
	return pos
}

// sizes derives the flattened GEMM extents from the operand shapes.
func (p *gemmPlan) sizes(lhs, rhs *Tensor) (B, M, K, N int) {
	B, M, K, N = 1, 1, 1, 1
	for i := 0; i < p.nBatch; i++ {
		B *= lhs.shape[p.lhsPerm[i]]
	}
	for i := 0; i < p.nM; i++ {
		M *= lhs.shape[p.lhsPerm[p.nBatch+i]]
	}
	for i := 0; i < p.nK; i++ {
		K *= lhs.shape[p.lhsPerm[p.nBatch+p.nM+i]]
	}
	for i := 0; i < p.nN; i++ {
		N *= rhs.shape[p.rhsPerm[p.nBatch+p.nK+i]]
	}
	return
}

// check validates operand and output shapes against the plan without
// allocating: ranks match the spec, shared labels agree across
// operands, and out carries the induced output extents.
func (p *gemmPlan) check(out, lhs, rhs *Tensor) error {
	if len(lhs.shape) != len(p.lhsPerm) || len(rhs.shape) != len(p.rhsPerm) {
		return fmt.Errorf("tensor: einsum operand rank mismatch: got %v and %v", lhs.shape, rhs.shape)
	}
	if len(out.shape) != len(p.outPerm) {
		return fmt.Errorf("tensor: einsum output rank %d, want %d", len(out.shape), len(p.outPerm))
	}
	for i := 0; i < p.nBatch; i++ {
		l, r := lhs.shape[p.lhsPerm[i]], rhs.shape[p.rhsPerm[i]]
		if l != r {
			return fmt.Errorf("tensor: einsum batch size mismatch %d vs %d", l, r)
		}
		if o := out.shape[p.outPerm[i]]; o != l {
			return fmt.Errorf("tensor: einsum output batch size %d, want %d", o, l)
		}
	}
	for i := 0; i < p.nK; i++ {
		l, r := lhs.shape[p.lhsPerm[p.nBatch+p.nM+i]], rhs.shape[p.rhsPerm[p.nBatch+i]]
		if l != r {
			return fmt.Errorf("tensor: einsum contraction size mismatch %d vs %d", l, r)
		}
	}
	for i := 0; i < p.nM; i++ {
		if o, l := out.shape[p.outPerm[p.nBatch+i]], lhs.shape[p.lhsPerm[p.nBatch+i]]; o != l {
			return fmt.Errorf("tensor: einsum output size %d, want %d", o, l)
		}
	}
	for i := 0; i < p.nN; i++ {
		if o, r := out.shape[p.outPerm[p.nBatch+p.nM+i]], rhs.shape[p.rhsPerm[p.nBatch+p.nK+i]]; o != r {
			return fmt.Errorf("tensor: einsum output size %d, want %d", o, r)
		}
	}
	return nil
}

// run accumulates spec(lhs, rhs) into out — out's existing contents are
// the accumulator, so callers computing a fresh einsum pass a zeroed
// tensor. A packed input operand is the pack its tensor carries
// (packcache.go); the accumulator is pre-packed into pooled scratch
// when the output layout is not direct, which keeps the per-element
// accumulation order identical to the reference in every case. The
// accumulator pack is never kept: the kernel itself mutates it.
func (p *gemmPlan) run(out, lhs, rhs *Tensor, workers, splitK int) {
	B, M, K, N := p.sizes(lhs, rhs)
	if B*M*N == 0 {
		return // no output elements (K == 0 alone leaves out unchanged below)
	}

	a := lhs.data
	if !p.lhsDirect {
		pk := lhs.packed(p.lhsPerm)
		defer lhs.unpack(pk)
		a = *pk.buf
	}
	b := rhs.data
	if !p.rhsDirect {
		pk := rhs.packed(p.rhsPerm)
		defer rhs.unpack(pk)
		b = *pk.buf
	}
	c := out.data
	var cBuf *[]float64
	if !p.outDirect {
		cBuf = getBuf(B * M * N)
		permCopy(*cBuf, out, p.outPerm, true)
		c = *cBuf
	}

	gemm(c, a, b, B, M, K, N, workers, splitK)

	if cBuf != nil {
		permCopy(*cBuf, out, p.outPerm, false)
		putBuf(cBuf)
	}
	out.noteMutation()
}

// permCopy moves elements between a tensor and a packed row-major
// buffer whose dimension order is t's dims permuted by perm. toPacked
// true packs t into packed; false scatters packed back into t. The
// innermost packed dimension is copied with stride-1 fast paths.
func permCopy(packed []float64, t *Tensor, perm []int, toPacked bool) {
	rank := len(perm)
	if rank == 0 {
		if toPacked {
			packed[0] = t.data[0]
		} else {
			t.data[0] = packed[0]
		}
		return
	}
	// Stack-backed scratch for the walk: einsum rank is bounded by the
	// 52 distinct labels, so heap allocations here (which would dominate
	// the packed accumulate path's steady state) are avoidable.
	var dimsArr, stridesArr, odoArr [52]int
	dims, strides := dimsArr[:rank], stridesArr[:rank]
	total := 1
	for i, pd := range perm {
		dims[i] = t.shape[pd]
		strides[i] = t.strides[pd]
		total *= dims[i]
	}
	if total == 0 {
		return
	}
	inner := dims[rank-1]
	innerStride := strides[rank-1]
	odo := odoArr[:rank-1]
	off := 0
	for d := 0; d < total; d += inner {
		row := packed[d : d+inner]
		switch {
		case innerStride == 1 && toPacked:
			copy(row, t.data[off:off+inner])
		case innerStride == 1:
			copy(t.data[off:off+inner], row)
		case toPacked:
			o := off
			for j := range row {
				row[j] = t.data[o]
				o += innerStride
			}
		default:
			o := off
			for j := range row {
				t.data[o] = row[j]
				o += innerStride
			}
		}
		for i := rank - 2; i >= 0; i-- {
			odo[i]++
			off += strides[i]
			if odo[i] < dims[i] {
				break
			}
			odo[i] = 0
			off -= dims[i] * strides[i]
		}
	}
}

// gemmParallelMinFlops is the work floor below which partitioning the
// output across workers costs more than it saves (the dispatch is a few
// microseconds; this is roughly a 64^3 matmul).
const gemmParallelMinFlops = 1 << 19

// gemm executes C[g,i,j] += sum_k A[g,i,k]*B[g,k,j] over contiguous
// row-major buffers, choosing a strategy by shape:
//
//   - split-K tree reduction when a factor is planned and the shape is
//     skinny (splitk.go) — byte-identical across worker counts for a
//     fixed factor, reassociated relative to factor 0;
//   - row partition when the output has at least as many rows as
//     columns — each row owned by one worker, ascending-k, so bytes
//     match the reference at any worker count;
//   - column partition for skinny outputs (few rows, many columns) —
//     each column range owned by one worker, still ascending-k per
//     element, so bytes again match the reference exactly.
//
// Only the split-K factor — a planned, fingerprinted decision — ever
// changes result bytes; the worker count and the rows/columns choice
// never do.
func gemm(c, a, b []float64, B, M, K, N, workers, splitK int) {
	rows := B * M
	if s := splitFactor(rows, K, N, splitK); s > 1 {
		gemmSplitK(c, a, b, B, M, K, N, s, workers)
		return
	}
	flops := 2 * int64(rows) * int64(K) * int64(N)
	if workers > 1 && flops >= gemmParallelMinFlops {
		switch {
		case rows >= N && rows > 1:
			parallelRows(rows, workers, func(lo, hi int) {
				gemmRows(c, a, b, M, K, N, lo, hi)
			})
			return
		case N > 1:
			parallelRows(N, workers, func(lo, hi int) {
				gemmCols(c, a, b, B, M, K, N, lo, hi)
			})
			return
		}
	}
	gemmRows(c, a, b, M, K, N, 0, rows)
}

// gemmRows computes output rows [lo, hi) — row r is batch r/M, row r%M.
// Rows within one batch are processed four at a time so each streamed
// row of B feeds four register accumulating C rows.
func gemmRows(c, a, b []float64, M, K, N, lo, hi int) {
	if K == 0 || N == 0 {
		return
	}
	r := lo
	for r < hi {
		g, i := r/M, r%M
		span := hi - r
		if left := M - i; left < span {
			span = left
		}
		bmat := b[g*K*N : (g+1)*K*N]
		aoff := (g*M + i) * K
		coff := (g*M + i) * N
		for span >= 4 {
			gemm4Rows(c[coff:coff+4*N], a[aoff:aoff+4*K], bmat, K, K, N)
			span -= 4
			r += 4
			aoff += 4 * K
			coff += 4 * N
		}
		for ; span > 0; span-- {
			gemmRow(c[coff:coff+N], a[aoff:aoff+K], bmat, K, N)
			r++
			aoff += K
			coff += N
		}
	}
}

// gemm4Rows updates four C rows against the shared B panel: one load of
// each B row feeds four multiply-accumulates, quartering the B memory
// traffic of the single-row kernel. K is the panel length; aStride the
// distance between consecutive A rows (== K on the full matrix, larger
// when a split-K chunk reads a K-subrange of each row).
func gemm4Rows(c, a, b []float64, K, aStride, N int) {
	c0 := c[0*N : 1*N]
	c1 := c[1*N : 2*N]
	c2 := c[2*N : 3*N]
	c3 := c[3*N : 4*N]
	for p := 0; p < K; p++ {
		brow := b[p*N : p*N+N]
		a0, a1, a2, a3 := a[p], a[aStride+p], a[2*aStride+p], a[3*aStride+p]
		for j, bv := range brow {
			c0[j] += a0 * bv
			c1[j] += a1 * bv
			c2[j] += a2 * bv
			c3[j] += a3 * bv
		}
	}
}

// gemmRow updates one C row, unrolling K by four. The unrolled body
// adds each term separately so the per-element accumulation order stays
// k-ascending (a fused sum would round differently).
func gemmRow(crow, arow, b []float64, K, N int) {
	p := 0
	for ; p+4 <= K; p += 4 {
		a0, a1, a2, a3 := arow[p], arow[p+1], arow[p+2], arow[p+3]
		b0 := b[p*N : p*N+N]
		b1 := b[(p+1)*N : (p+1)*N+N]
		b2 := b[(p+2)*N : (p+2)*N+N]
		b3 := b[(p+3)*N : (p+3)*N+N]
		for j := range b0 {
			s := crow[j]
			s += a0 * b0[j]
			s += a1 * b1[j]
			s += a2 * b2[j]
			s += a3 * b3[j]
			crow[j] = s
		}
	}
	for ; p < K; p++ {
		ap := arow[p]
		brow := b[p*N : p*N+N]
		for j, bv := range brow {
			crow[j] += ap * bv
		}
	}
}

// gemmCols computes output columns [lo, hi) of every row — the
// partition axis for skinny outputs, where too few rows exist to feed
// the worker pool. Each element still accumulates its K terms in
// ascending order and is written by exactly one worker, so the bytes
// match the reference at any worker count.
func gemmCols(c, a, b []float64, B, M, K, N, lo, hi int) {
	w := hi - lo
	if K == 0 || w <= 0 {
		return
	}
	for g := 0; g < B; g++ {
		bmat := b[g*K*N:]
		for i := 0; i < M; i++ {
			r := g*M + i
			arow := a[r*K : r*K+K]
			crow := c[r*N+lo : r*N+hi]
			p := 0
			for ; p+4 <= K; p += 4 {
				a0, a1, a2, a3 := arow[p], arow[p+1], arow[p+2], arow[p+3]
				b0 := bmat[p*N+lo : p*N+lo+w]
				b1 := bmat[(p+1)*N+lo : (p+1)*N+lo+w]
				b2 := bmat[(p+2)*N+lo : (p+2)*N+lo+w]
				b3 := bmat[(p+3)*N+lo : (p+3)*N+lo+w]
				for j := range b0 {
					s := crow[j]
					s += a0 * b0[j]
					s += a1 * b1[j]
					s += a2 * b2[j]
					s += a3 * b3[j]
					crow[j] = s
				}
			}
			for ; p < K; p++ {
				ap := arow[p]
				brow := bmat[p*N+lo : p*N+lo+w]
				for j, bv := range brow {
					crow[j] += ap * bv
				}
			}
		}
	}
}

// ---- spec/plan cache and dispatch ----

// einsumEntry is the cached compilation of one spec string: the parsed
// form, its GEMM plan, or the parse error. The cache is unbounded but
// keyed by compiler-emitted spec strings, of which any program has a
// small fixed set.
type einsumEntry struct {
	spec EinsumSpec
	plan *gemmPlan
	err  error
}

var einsumCache sync.Map // spec string -> *einsumEntry

func einsumLookup(spec string) (*einsumEntry, error) {
	if v, ok := einsumCache.Load(spec); ok {
		e := v.(*einsumEntry)
		return e, e.err
	}
	parsed, err := ParseEinsum(spec)
	e := &einsumEntry{spec: parsed, err: err}
	if err == nil {
		e.plan = buildPlan(parsed)
	}
	einsumCache.Store(spec, e)
	return e, e.err
}

// EinsumAddInto accumulates spec(lhs, rhs) into acc in place and
// returns acc. It is the fused form of Add(acc, Einsum(spec, lhs, rhs))
// that the executors use for the decomposed ReduceScatter accumulation
// chain: no partial-result temporary is materialized, the contracted
// terms land directly on the circulating accumulator shard (packing
// scratch, when the layout needs it, comes from the buffer pool). Each
// element accumulates its terms in ascending contraction order on top
// of acc's prior value. Like Einsum, it panics on malformed specs or
// mismatched shapes.
func EinsumAddInto(acc *Tensor, spec string, lhs, rhs *Tensor) *Tensor {
	return EinsumAddIntoSplitK(acc, spec, lhs, rhs, KernelSplitK())
}

// EinsumAddIntoSplitK is EinsumAddInto with an explicit split-K factor
// for this call, like EinsumSplitK.
func EinsumAddIntoSplitK(acc *Tensor, spec string, lhs, rhs *Tensor, splitK int) *Tensor {
	e, err := einsumLookup(spec)
	if err != nil {
		panic(err)
	}
	if len(e.spec.Inputs) != 2 {
		panic(fmt.Sprintf("tensor: EinsumAddInto needs a two-operand spec, got %q", spec))
	}
	t0, timed := kernelTimerStart()
	if e.plan.ok {
		if err := e.plan.check(acc, lhs, rhs); err != nil {
			panic(err)
		}
		e.plan.run(acc, lhs, rhs, KernelWorkers(), splitK)
		kernelGemmOps.Inc()
	} else {
		if err := checkReferenceShapes(e.spec, acc, lhs, rhs); err != nil {
			panic(err)
		}
		einsumReference(acc, e.spec, []*Tensor{lhs, rhs})
		kernelFallbackOps.Inc()
	}
	kernelAccumOps.Inc()
	kernelTimerEnd(t0, timed)
	return acc
}

// checkReferenceShapes validates an accumulate target against the
// spec's induced output shape on the fallback path.
func checkReferenceShapes(spec EinsumSpec, acc, lhs, rhs *Tensor) error {
	outShape, err := spec.OutputShape(lhs.shape, rhs.shape)
	if err != nil {
		return err
	}
	if len(outShape) != len(acc.shape) {
		return fmt.Errorf("tensor: EinsumAddInto accumulator rank %d, want %d", len(acc.shape), len(outShape))
	}
	for i := range outShape {
		if acc.shape[i] != outShape[i] {
			return fmt.Errorf("tensor: EinsumAddInto accumulator shape %v, want %v", acc.shape, outShape)
		}
	}
	return nil
}
