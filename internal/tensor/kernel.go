package tensor

import (
	"fmt"
	"strings"
	"sync"
)

// This file is the einsum kernel engine: any two-operand einsum whose
// labels classify cleanly into batch/M/N/K groups is lowered to a
// canonical batched GEMM, C[batch, m, n] += A[batch, m, k]·B[batch, k, n],
// and executed by cache-blocked microkernels with stride-1 inner loops
// and register accumulation, optionally partitioned across the
// process-wide worker pool (see parallel.go). Specs that do not lower
// (single-operand reductions, labels summed within one operand) fall
// back to the odometer reference path in einsum.go.
//
// The kernels read three operand layouts where they lie:
//
//   - direct: the operand is row-major in canonical order;
//   - NT, rhs laid out [batch, n, k] (`mk,nk->mn`, the input gradients
//     `ef,df->ed`): the NT kernel computes each element as the dot
//     product of a row of A and a row of the stored rhs;
//   - TN, lhs laid out [batch, k, m] (the weight gradients `ef,ed->fd`,
//     `ptd,ptf->pdf`): the row kernels read A with its row and k strides
//     swapped.
//
// Every other layout — a contraction label between two free labels, as
// in the rhs of `ed,het->dht`, or a TN lhs beside an NT rhs (the NT
// kernel reads A rows contiguously) — is permute-packed into canonical
// order in pooled scratch (pool.go) that lives for one kernel call.
// An output laid out [batch, n, m] (the weight gradients `ef,ed->df`,
// `ed,ef->fd`) is the GEMM of the operands swapped, written directly;
// any other output layout accumulates in a packed scratch copy.
//
// On amd64 with AVX, the 4-row kernels — NT (nt4x8) and direct or TN
// (gemm4x4) — run in assembly (kernel_amd64.s), each vector lane a
// different output element; the one-row kernels and the column tails
// stay scalar, as does every kernel elsewhere (kernel_other.go).
//
// Determinism contract: for every output element the contracted terms
// are accumulated in ascending flattened-K order — exactly the order
// the odometer reference uses — with one rounded multiply and one
// rounded add per term, never fused, and each element is written by
// exactly one worker. Kernel results are therefore byte-identical to
// einsumReference, whichever layout a kernel read and whether a lane
// or a scalar register held the sum, and byte-identical across any
// worker count.

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

	// How each operand reaches the kernels, picked from the layout
	// alone. Direct: already row-major in packed order, so its backing
	// array is used without copying. rhsNT: rhs is [batch, n, k], read
	// in place by the NT kernel. lhsTN: lhs is [batch, k, m], read in
	// place by the row kernels — unless rhsNT, since the NT kernel reads
	// A's rows contiguously. An input that is none of these is packed;
	// an output that is not direct accumulates in a pooled scratch copy.
	lhsDirect, lhsTN, rhsDirect, rhsNT, outDirect bool

	// swap: the plan is the GEMM of the operands swapped (the spec's
	// output is [batch, n, m]), so check and run take rhs as the GEMM's
	// lhs, and every field above describes the swapped GEMM.
	swap bool
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

	// An output laid out [batch, n, m] is the GEMM of the swapped
	// operands, Cᵀ = Bᵀ·Aᵀ, written where it lies: run that GEMM rather
	// than scatter the accumulator. k keeps the spec's order, so each
	// element still adds its terms in the reference's order.
	if string(batch)+string(m)+string(n) != out && string(batch)+string(n)+string(m) == out {
		p.swap = true
		lhs, rhs, m, n = rhs, lhs, n, m
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
	p.rhsNT = !p.rhsDirect && string(batch)+string(n)+string(k) == rhs
	p.lhsTN = !p.lhsDirect && !p.rhsNT && string(batch)+string(k)+string(m) == lhs
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
	l, r := lhs, rhs
	if p.swap {
		l, r = rhs, lhs
	}
	if len(l.shape) != len(p.lhsPerm) || len(r.shape) != len(p.rhsPerm) {
		return fmt.Errorf("tensor: einsum operand rank mismatch: got %v and %v", lhs.shape, rhs.shape)
	}
	if len(out.shape) != len(p.outPerm) {
		return fmt.Errorf("tensor: einsum output rank %d, want %d", len(out.shape), len(p.outPerm))
	}
	for i := 0; i < p.nBatch; i++ {
		x, y := l.shape[p.lhsPerm[i]], r.shape[p.rhsPerm[i]]
		if x != y {
			return fmt.Errorf("tensor: einsum batch size mismatch %d vs %d", x, y)
		}
		if o := out.shape[p.outPerm[i]]; o != x {
			return fmt.Errorf("tensor: einsum output batch size %d, want %d", o, x)
		}
	}
	for i := 0; i < p.nK; i++ {
		x, y := l.shape[p.lhsPerm[p.nBatch+p.nM+i]], r.shape[p.rhsPerm[p.nBatch+i]]
		if x != y {
			return fmt.Errorf("tensor: einsum contraction size mismatch %d vs %d", x, y)
		}
	}
	for i := 0; i < p.nM; i++ {
		if o, x := out.shape[p.outPerm[p.nBatch+i]], l.shape[p.lhsPerm[p.nBatch+i]]; o != x {
			return fmt.Errorf("tensor: einsum output size %d, want %d", o, x)
		}
	}
	for i := 0; i < p.nN; i++ {
		if o, y := out.shape[p.outPerm[p.nBatch+p.nM+i]], r.shape[p.rhsPerm[p.nBatch+p.nK+i]]; o != y {
			return fmt.Errorf("tensor: einsum output size %d, want %d", o, y)
		}
	}
	return nil
}

// run accumulates spec(lhs, rhs) into out — out's existing contents are
// the accumulator, so callers computing a fresh einsum pass a zeroed
// tensor. An input the kernels cannot read in place, and an accumulator
// whose layout is not direct, is permute-packed into pooled scratch for
// the length of this call, which keeps the per-element accumulation
// order identical to the reference in every case.
func (p *gemmPlan) run(out, lhs, rhs *Tensor, workers, splitK int, sc *Stash) {
	if p.swap {
		lhs, rhs = rhs, lhs
	}
	B, M, K, N := p.sizes(lhs, rhs)
	if B*M*N == 0 {
		return // no output elements (K == 0 alone leaves out unchanged below)
	}

	g := gemmOperands{a: lhs.data, b: rhs.data, B: B, M: M, K: K, N: N, aRow: K, aK: 1, bT: p.rhsNT}
	switch {
	case p.lhsTN:
		g.aRow, g.aK = 1, M
	case !p.lhsDirect:
		buf := packOperand(lhs, p.lhsPerm, sc)
		defer sc.putBuf(buf)
		g.a = *buf
	}
	if !p.rhsDirect && !p.rhsNT {
		buf := packOperand(rhs, p.rhsPerm, sc)
		defer sc.putBuf(buf)
		g.b = *buf
	}
	c := out.data
	var cBuf *[]float64
	if !p.outDirect {
		cBuf = sc.getBuf(B * M * N)
		permCopy(*cBuf, out, p.outPerm, true)
		c = *cBuf
	}

	gemm(c, g, workers, splitK, sc)

	if cBuf != nil {
		permCopy(*cBuf, out, p.outPerm, false)
		sc.putBuf(cBuf)
	}
}

// packOperand returns t's elements packed under perm in a buffer from
// the scratch pool by way of sc, which the caller hands back with
// sc.putBuf.
func packOperand(t *Tensor, perm []int, sc *Stash) *[]float64 {
	buf := sc.getBuf(len(t.data))
	permCopy(*buf, t, perm, true)
	kernelPackBytes.Add(float64(8 * len(t.data)))
	return buf
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

// gemmOperands is one GEMM's inputs as the kernels read them. A is
// [B, M, K] at the strides below; b is B row-major, [B, K, N], or with
// bT its transpose, [B, N, K], which only the NT kernel reads.
type gemmOperands struct {
	a, b       []float64
	B, M, K, N int
	// A[g, i, p] is a[g*M*K + i*aRow + p*aK]: (K, 1) when A is row-major,
	// (1, M) for a TN lhs read in place. The NT kernel needs (K, 1).
	aRow, aK int
	bT       bool
}

// gemm executes C[g,i,j] += sum_k A[g,i,k]*B[g,k,j] into the row-major
// c, choosing a strategy by shape:
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
// changes result bytes; the worker count, the rows/columns choice and
// the kernel a layout selects never do.
func gemm(c []float64, g gemmOperands, workers, splitK int, sc *Stash) {
	rows := g.B * g.M
	if s := splitFactor(rows, g.K, g.N, splitK); s > 1 {
		gemmSplitK(c, g, s, workers, sc)
		return
	}
	flops := 2 * int64(rows) * int64(g.K) * int64(g.N)
	if workers > 1 && flops >= gemmParallelMinFlops {
		switch {
		case rows >= g.N && rows > 1:
			j := getJob(fanRows, c, g)
			j.fanOut(rows, workers)
			putJob(j)
			return
		case g.N > 1:
			j := getJob(fanCols, c, g)
			j.fanOut(g.N, workers)
			putJob(j)
			return
		}
	}
	g.block(c, 0, rows, 0, g.N, 0, g.K)
}

// block accumulates the contraction range [k0, k1) of output rows
// [rlo, rhi) and columns [clo, chi) into c — a row range is the row
// partition's share, a column range the column partition's, a K range
// one split-K chunk. Row r is batch r/M, row r%M; rows are handed to
// the kernel one batch at a time.
func (g gemmOperands) block(c []float64, rlo, rhi, clo, chi, k0, k1 int) {
	if k1 <= k0 || chi <= clo {
		return
	}
	for r := rlo; r < rhi; {
		span := min(rhi-r, g.M-r%g.M)
		if g.bT {
			g.ntRows(c, r, span, clo, chi, k0, k1)
		} else {
			g.rows(c, r, span, clo, chi, k0, k1)
		}
		r += span
	}
}

// rows is block over rows [r, r+span) of one batch when B is
// row-major. Rows go four at a time so each streamed row of B feeds
// four C rows.
func (g gemmOperands) rows(c []float64, r, span, clo, chi, k0, k1 int) {
	M, K, N := g.M, g.K, g.N
	b := g.b[r/M*K*N+k0*N+clo:]
	aoff := r/M*M*K + r%M*g.aRow + k0*g.aK
	kLen, w := k1-k0, chi-clo
	for ; span >= 4; span -= 4 {
		if useAVX {
			gemm4RowsAVX(c[r*N+clo:], g.a[aoff:], b, kLen, w, N, g.aRow, g.aK)
		} else {
			gemm4Rows(c[r*N+clo:], g.a[aoff:], b, kLen, w, N, g.aRow, g.aK)
		}
		r += 4
		aoff += 4 * g.aRow
	}
	for ; span > 0; span-- {
		gemmRow(c[r*N+clo:r*N+chi], g.a[aoff:], b, kLen, N, g.aK)
		r++
		aoff += g.aRow
	}
}

// gemm4Rows adds a kLen-long panel of B (rows N apart, w wide) to four
// C rows (N apart, w wide): one load of each B row feeds four
// multiply-accumulates, quartering the B memory traffic of the
// single-row kernel, and K is unrolled by two, halving the C traffic.
// The four rows' A elements at step p sit at p·aK + {0, 1, 2, 3}·aRow.
func gemm4Rows(c, a, b []float64, kLen, w, N, aRow, aK int) {
	c0 := c[0*N:][:w]
	c1 := c[1*N:][:w]
	c2 := c[2*N:][:w]
	c3 := c[3*N:][:w]
	p, o := 0, 0
	for ; p+2 <= kLen; p, o = p+2, o+2*aK {
		b0 := b[p*N:][:w]
		b1 := b[(p+1)*N:][:w]
		a00, a10, a20, a30 := a[o], a[o+aRow], a[o+2*aRow], a[o+3*aRow]
		q := o + aK
		a01, a11, a21, a31 := a[q], a[q+aRow], a[q+2*aRow], a[q+3*aRow]
		for j := 0; j < w; j++ {
			x, y := b0[j], b1[j]
			s := c0[j]
			s += a00 * x
			s += a01 * y
			c0[j] = s
			s = c1[j]
			s += a10 * x
			s += a11 * y
			c1[j] = s
			s = c2[j]
			s += a20 * x
			s += a21 * y
			c2[j] = s
			s = c3[j]
			s += a30 * x
			s += a31 * y
			c3[j] = s
		}
	}
	for ; p < kLen; p, o = p+1, o+aK {
		brow := b[p*N:][:w]
		a0, a1, a2, a3 := a[o], a[o+aRow], a[o+2*aRow], a[o+3*aRow]
		for j, bv := range brow {
			c0[j] += a0 * bv
			c1[j] += a1 * bv
			c2[j] += a2 * bv
			c3[j] += a3 * bv
		}
	}
}

// gemm4RowsAVX is gemm4Rows on the AVX kernel (gemm4x4), four columns
// to a lane group, the last w%4 columns on gemm4Rows. The slices are
// checked for every element the kernel touches before it runs.
func gemm4RowsAVX(c, a, b []float64, kLen, w, N, aRow, aK int) {
	if v := w &^ 3; v > 0 {
		_ = c[3*N+v-1]
		_ = a[(kLen-1)*aK+3*aRow]
		_ = b[(kLen-1)*N+v-1]
		gemm4x4(&c[0], &a[0], &b[0], N, aRow, aK, kLen, v)
		if v == w {
			return
		}
		c, b, w = c[v:], b[v:], w-v
	}
	gemm4Rows(c, a, b, kLen, w, N, aRow, aK)
}

// gemmRow adds a kLen-long panel of B (rows N apart, len(crow) wide)
// to one C row, unrolling K by four; the row's A element at step p is
// a[p·aK]. The unrolled body adds each term separately so the
// per-element accumulation order stays k-ascending (a fused sum would
// round differently).
func gemmRow(crow, a, b []float64, kLen, N, aK int) {
	w := len(crow)
	p, o := 0, 0
	for ; p+4 <= kLen; p, o = p+4, o+4*aK {
		a0, a1, a2, a3 := a[o], a[o+aK], a[o+2*aK], a[o+3*aK]
		b0 := b[p*N:][:w]
		b1 := b[(p+1)*N:][:w]
		b2 := b[(p+2)*N:][:w]
		b3 := b[(p+3)*N:][:w]
		for j := range b0 {
			s := crow[j]
			s += a0 * b0[j]
			s += a1 * b1[j]
			s += a2 * b2[j]
			s += a3 * b3[j]
			crow[j] = s
		}
	}
	for ; p < kLen; p, o = p+1, o+aK {
		ap := a[o]
		brow := b[p*N:][:w]
		for j, bv := range brow {
			crow[j] += ap * bv
		}
	}
}

// ntRows is block over rows [r, r+span) of one batch when b holds B
// transposed, [B, N, K]: every output element is the dot product of a
// row of A and a row of b, both contiguous, so neither is copied. Four
// rows of A meet two rows of b at a time, the eight elements held in
// registers across the whole K range.
func (g gemmOperands) ntRows(c []float64, r, span, clo, chi, k0, k1 int) {
	K, N := g.K, g.N
	a, bt := g.a, g.b[r/g.M*N*K:]
	for ; span >= 4; span -= 4 {
		a0 := a[r*K+k0 : r*K+k1]
		a1 := a[(r+1)*K+k0 : (r+1)*K+k1]
		a2 := a[(r+2)*K+k0 : (r+2)*K+k1]
		a3 := a[(r+3)*K+k0 : (r+3)*K+k1]
		j := clo
		for ; useAVX && j+8 <= chi; j += 8 {
			nt4x8AVX(c[r*N+j:], N, a[r*K+k0:], bt[j*K+k0:], K, k1-k0)
		}
		for ; j+2 <= chi; j += 2 {
			nt4x2(c[r*N+j:], N, a0, a1, a2, a3, bt[j*K+k0:j*K+k1], bt[(j+1)*K+k0:(j+1)*K+k1])
		}
		if j < chi {
			b0 := bt[j*K+k0 : j*K+k1]
			for q, aq := range [4][]float64{a0, a1, a2, a3} {
				c[(r+q)*N+j] = ntDot(c[(r+q)*N+j], aq, b0)
			}
		}
		r += 4
	}
	for ; span > 0; span-- {
		a0 := a[r*K+k0 : r*K+k1]
		j := clo
		for ; j+4 <= chi; j += 4 {
			nt1x4(c[r*N+j:], a0, bt[j*K+k0:j*K+k1], bt[(j+1)*K+k0:(j+1)*K+k1],
				bt[(j+2)*K+k0:(j+2)*K+k1], bt[(j+3)*K+k0:(j+3)*K+k1])
		}
		for ; j < chi; j++ {
			c[r*N+j] = ntDot(c[r*N+j], a0, bt[j*K+k0:j*K+k1])
		}
		r++
	}
}

// nt4x2 adds the dot products of rows a0..a3 with rows b0 and b1 onto
// the 4×2 block of c whose rows are ldc apart. Each element is one
// accumulator that starts from its value in c and adds its terms in
// ascending k, one add per term — the reference's order.
func nt4x2(c []float64, ldc int, a0, a1, a2, a3, b0, b1 []float64) {
	n := len(b0)
	a0, a1, a2, a3, b1 = a0[:n], a1[:n], a2[:n], a3[:n], b1[:n]
	s00, s01 := c[0], c[1]
	s10, s11 := c[ldc], c[ldc+1]
	s20, s21 := c[2*ldc], c[2*ldc+1]
	s30, s31 := c[3*ldc], c[3*ldc+1]
	for p, x := range b0 {
		y := b1[p]
		v := a0[p]
		s00 += v * x
		s01 += v * y
		v = a1[p]
		s10 += v * x
		s11 += v * y
		v = a2[p]
		s20 += v * x
		s21 += v * y
		v = a3[p]
		s30 += v * x
		s31 += v * y
	}
	c[0], c[1] = s00, s01
	c[ldc], c[ldc+1] = s10, s11
	c[2*ldc], c[2*ldc+1] = s20, s21
	c[3*ldc], c[3*ldc+1] = s30, s31
}

// nt4x8AVX adds the dot products of four rows of a with eight rows of
// b, all K apart and n long, onto the 4×8 block of c whose rows are ldc
// apart, on the AVX kernel nt4x8. The slices are checked for every
// element the kernel touches before it runs.
func nt4x8AVX(c []float64, ldc int, a, b []float64, K, n int) {
	_ = c[3*ldc+7]
	_ = a[3*K+n-1]
	_ = b[7*K+n-1]
	nt4x8(&c[0], ldc, &a[0], &b[0], K, n)
}

// nt1x4 is nt4x2 for a row of A left over below four: one row against
// four rows of b, onto c[0..3].
func nt1x4(c, a, b0, b1, b2, b3 []float64) {
	n := len(a)
	b0, b1, b2, b3 = b0[:n], b1[:n], b2[:n], b3[:n]
	s0, s1, s2, s3 := c[0], c[1], c[2], c[3]
	for p, v := range a {
		s0 += v * b0[p]
		s1 += v * b1[p]
		s2 += v * b2[p]
		s3 += v * b3[p]
	}
	c[0], c[1], c[2], c[3] = s0, s1, s2, s3
}

// ntDot returns s plus the dot product of a and b, added term by term
// in ascending k.
func ntDot(s float64, a, b []float64) float64 {
	b = b[:len(a)]
	for p, v := range a {
		s += v * b[p]
	}
	return s
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
	return EinsumAddIntoSplitK(acc, nil, spec, lhs, rhs, KernelSplitK())
}

// EinsumAddIntoSplitK is EinsumAddInto with an explicit split-K factor
// for this call, like EinsumSplitK, and its packing scratch by way of
// scratch (nil: the shared classes).
func EinsumAddIntoSplitK(acc *Tensor, scratch *Stash, spec string, lhs, rhs *Tensor, splitK int) *Tensor {
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
		e.plan.run(acc, lhs, rhs, KernelWorkers(), splitK, scratch)
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
