package tensor

import (
	"math/rand"
	"runtime"
	"testing"
)

// splitOracleMatmul is the scalar oracle for the split-K contract on a
// 2D matmul: K cut at the same i·K/s boundaries, each chunk
// accumulated per element in ascending k, chunks combined by the same
// fixed stride-doubling tree, folded onto a zero output. Written with
// plain loops and no shared code with the engine, so agreement is
// evidence rather than tautology.
func splitOracleMatmul(x, y *Tensor, s int) *Tensor {
	m, k, n := x.Dim(0), x.Dim(1), y.Dim(1)
	parts := make([][]float64, s)
	for i := range parts {
		p := make([]float64, m*n)
		k0, k1 := i*k/s, (i+1)*k/s
		for r := 0; r < m; r++ {
			for kk := k0; kk < k1; kk++ {
				a := x.At(r, kk)
				for c := 0; c < n; c++ {
					p[r*n+c] += a * y.At(kk, c)
				}
			}
		}
		parts[i] = p
	}
	for gap := 1; gap < s; gap *= 2 {
		for i := 0; i+gap < s; i += 2 * gap {
			for j := range parts[i] {
				parts[i][j] += parts[i+gap][j]
			}
		}
	}
	out := New(m, n)
	for j, v := range parts[0] {
		out.data[j] += v
	}
	return out
}

// TestSplitKMatchesOracleFuzz is the differential test backing split-K
// determinism: for randomized skinny shapes, factors and worker
// counts, the engine must produce exactly the oracle's bytes whenever
// the shape gate accepts the factor, and exactly the plain reference
// when it does not. The gate itself (splitFactor) is consulted
// directly, so a gate/dispatch mismatch fails here too.
func TestSplitKMatchesOracleFuzz(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	rng := rand.New(rand.NewSource(21))
	workerChoices := []int{1, 2, 3, runtime.GOMAXPROCS(0)}
	split := 0
	for iter := 0; iter < 200; iter++ {
		m := 1 + rng.Intn(8)
		k := 32 + rng.Intn(600)
		n := 1 + rng.Intn(64)
		s := 2 + rng.Intn(7)
		x := Rand(rng, m, k)
		y := Rand(rng, k, n)
		runtime.GOMAXPROCS(workerChoices[rng.Intn(len(workerChoices))])
		got := EinsumSplitK(s, "mk,kn->mn", x, y)
		var want *Tensor
		if eff := splitFactor(m, k, n, s); eff > 1 {
			split++
			want = splitOracleMatmul(x, y, eff)
		} else {
			want = ReferenceEinsum("mk,kn->mn", x, y)
		}
		if !got.Equal(want) {
			t.Fatalf("m=%d k=%d n=%d s=%d: engine differs from oracle (max diff %g)",
				m, k, n, s, got.MaxDifference(want))
		}
	}
	if split == 0 {
		t.Fatal("fuzz never passed the split-K gate")
	}
}

// TestSplitKWorkerCountDeterminism pins the contract the factor is
// allowed to exist under: for a fixed factor, result bytes are
// identical at every worker count, for direct and transposed layouts —
// and identical to the scalar oracle.
func TestSplitKWorkerCountDeterminism(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	rng := rand.New(rand.NewSource(22))
	const m, k, n = 4, 1024, 64
	x := Rand(rng, m, k)
	y := Rand(rng, k, n)
	yT := Rand(rng, n, k)
	counts := []int{1, 2, 3, 5, runtime.GOMAXPROCS(0)}
	for _, s := range []int{2, 3, 4, 5, 8} {
		if splitFactor(m, k, n, s) != s {
			t.Fatalf("factor %d did not pass the gate for m=%d k=%d n=%d", s, m, k, n)
		}
		want := splitOracleMatmul(x, y, s)
		for _, w := range counts {
			runtime.GOMAXPROCS(w)
			if got := EinsumSplitK(s, "mk,kn->mn", x, y); !got.Equal(want) {
				t.Fatalf("factor %d, %d workers: bytes differ from oracle", s, w)
			}
		}
		// Transposed rhs, read in place by the NT kernel: same tree,
		// the kernel must not change bytes.
		var base *Tensor
		for _, w := range counts {
			runtime.GOMAXPROCS(w)
			got := EinsumSplitK(s, "mk,nk->mn", x, yT)
			if base == nil {
				base = got
			} else if !got.Equal(base) {
				t.Fatalf("factor %d, %d workers: packed-layout bytes vary with workers", s, w)
			}
		}
	}
}

// TestSplitKExactOnDyadicValues: on integer-valued operands every
// partial sum is exact, so reassociation cannot round differently and
// split-K must equal the plain reference bit for bit — the property
// the train package's dyadic gradient fixtures rely on.
func TestSplitKExactOnDyadicValues(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const m, k, n = 2, 512, 32
	x, y := New(m, k), New(k, n)
	for i := range x.data {
		x.data[i] = float64(rng.Intn(17) - 8)
	}
	for i := range y.data {
		y.data[i] = float64(rng.Intn(17) - 8)
	}
	want := ReferenceEinsum("mk,kn->mn", x, y)
	for _, s := range []int{2, 4, 8} {
		if got := EinsumSplitK(s, "mk,kn->mn", x, y); !got.Equal(want) {
			t.Fatalf("factor %d: integer-valued split-K differs from reference", s)
		}
	}
}

// TestSplitKCloseToReference bounds the reassociation error on random
// floats: different factors may legitimately round differently, but
// the tree reduction must stay within a few ulps of the ascending-k
// reference. It runs through the bare-call default (SetKernelSplitK +
// Einsum), which must produce the explicit-factor entry point's bytes.
func TestSplitKCloseToReference(t *testing.T) {
	defer SetKernelSplitK(0)
	rng := rand.New(rand.NewSource(24))
	const m, k, n = 8, 2048, 32
	x := Rand(rng, m, k)
	y := Rand(rng, k, n)
	want := ReferenceEinsum("mk,kn->mn", x, y)
	for _, s := range []int{2, 4, 16} {
		SetKernelSplitK(s)
		got := Einsum("mk,kn->mn", x, y)
		if d := got.MaxDifference(want); d > 1e-10 {
			t.Fatalf("factor %d: split-K drifts %g from reference", s, d)
		}
		if !got.Equal(EinsumSplitK(s, "mk,kn->mn", x, y)) {
			t.Fatalf("factor %d: bare Einsum differs from EinsumSplitK", s)
		}
	}
}

// TestSplitKAccumulatesOntoPrior verifies the fused-accumulate form:
// split-K lands on the accumulator as prior + tree(chunks), matching
// the oracle folded onto the same prior.
func TestSplitKAccumulatesOntoPrior(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	const m, k, n = 4, 512, 32
	x := Rand(rng, m, k)
	y := Rand(rng, k, n)
	acc := Rand(rng, m, n)
	want := acc.Clone()
	oracle := splitOracleMatmul(x, y, 4)
	for j := range want.data {
		want.data[j] += oracle.data[j]
	}
	if got := EinsumAddIntoSplitK(acc.Clone(), nil, "mk,kn->mn", x, y, 4); !got.Equal(want) {
		t.Fatal("split-K EinsumAddInto differs from oracle folded onto the prior accumulator")
	}
}

// TestKernelStrategyGrid is the bitwise contract over the whole
// strategy space: for every (spec, split factor) cell, the result
// bytes are identical across worker counts, and the factor-0 cell
// equals the scalar reference exactly. The layouts cover every way an
// operand reaches the kernels: direct, read in place transposed (NT
// rhs, TN lhs), and packed.
func TestKernelStrategyGrid(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	rng := rand.New(rand.NewSource(26))
	counts := []int{1, 2, runtime.GOMAXPROCS(0)}
	specs := []struct {
		spec     string
		lhs, rhs []int
	}{
		{"mk,kn->mn", []int{8, 512}, []int{512, 64}},      // direct
		{"mk,nk->mn", []int{8, 512}, []int{64, 512}},      // rhs NT
		{"km,kn->mn", []int{512, 8}, []int{512, 64}},      // lhs TN
		{"ed,het->dht", []int{512, 8}, []int{4, 512, 16}}, // rhs packed
	}
	for _, tc := range specs {
		lhs := Rand(rng, tc.lhs...)
		rhs := Rand(rng, tc.rhs...)
		for _, s := range []int{0, 2, 4} {
			var base *Tensor
			for _, w := range counts {
				runtime.GOMAXPROCS(w)
				got := EinsumSplitK(s, tc.spec, lhs, rhs)
				if base == nil {
					base = got
				} else if !got.Equal(base) {
					t.Fatalf("%s splitk=%d workers=%d: bytes differ within cell", tc.spec, s, w)
				}
			}
			if s == 0 {
				if want := ReferenceEinsum(tc.spec, lhs, rhs); !base.Equal(want) {
					t.Fatalf("%s splitk=0: differs from scalar reference", tc.spec)
				}
			}
		}
	}
}

// TestSplitFactorGate pins the eligibility rules: worker-independent,
// rows-bounded, chunk-floor and flops-floor gated.
func TestSplitFactorGate(t *testing.T) {
	cases := []struct {
		rows, k, n, want int
	}{
		{4, 1024, 64, 4},  // skinny: eligible
		{64, 1024, 64, 0}, // too many rows
		{4, 60, 64, 0},    // chunks below the floor (60 < 4*16)
		{1, 256, 8, 0},    // below the flops floor
		{1, 4096, 64, 4},  // single row, long K: the motivating shape
	}
	for _, tc := range cases {
		if got := splitFactor(tc.rows, tc.k, tc.n, 4); got != tc.want {
			t.Errorf("splitFactor(%d,%d,%d) = %d, want %d", tc.rows, tc.k, tc.n, got, tc.want)
		}
	}
	for _, off := range []int{-1, 0, 1} {
		if got := splitFactor(4, 1024, 64, off); got != 0 {
			t.Errorf("splitFactor with factor %d = %d, want 0", off, got)
		}
	}
}
