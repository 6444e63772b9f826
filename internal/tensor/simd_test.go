package tensor

import (
	"fmt"
	"math/rand"
	"testing"
)

// withScalarKernels runs f on the scalar kernels alone, as a host
// without AVX would. No test in this package runs in parallel, so the
// switch is never flipped under a running kernel.
func withScalarKernels(f func()) {
	defer func(v bool) { useAVX = v }(useAVX)
	useAVX = false
	f()
}

// TestSIMDMatchesScalarAndReference is the differential grid behind
// the AVX kernels' byte contract: on every M%4 and N%8 tail (M 1–13,
// N 1–40), K 1–70, batch 1–3, the direct, NT and TN layouts, split-K
// factors 2 and 4 where a shape takes them, fresh and accumulated onto
// a non-zero prior, and the golden site's shape, the AVX kernels give
// exactly the scalar kernels' bytes — and, unsplit, einsumReference's.
func TestSIMDMatchesScalarAndReference(t *testing.T) {
	if !useAVX {
		t.Skip("no AVX on this host: the scalar kernels are the only ones")
	}
	layouts := []struct {
		name, spec string
		lhs, rhs   func(b, m, k, n int) []int
	}{
		{"direct", "gmk,gkn->gmn", func(b, m, k, _ int) []int { return []int{b, m, k} }, func(b, _, k, n int) []int { return []int{b, k, n} }},
		{"NT", "gmk,gnk->gmn", func(b, m, k, _ int) []int { return []int{b, m, k} }, func(b, _, k, n int) []int { return []int{b, n, k} }},
		{"TN", "gkm,gkn->gmn", func(b, m, k, _ int) []int { return []int{b, k, m} }, func(b, _, k, n int) []int { return []int{b, k, n} }},
	}
	rng := rand.New(rand.NewSource(49))
	// check runs spec at factor s on the AVX and the scalar kernels,
	// fresh and onto a copy of prior, and wants equal bytes; unsplit,
	// the reference's too.
	check := func(name, spec string, lhs, rhs, prior *Tensor, s int) {
		t.Helper()
		var fresh, acc *Tensor
		withScalarKernels(func() {
			fresh = EinsumSplitK(s, spec, lhs, rhs)
			acc = EinsumAddIntoSplitK(prior.Clone(), nil, spec, lhs, rhs, s)
		})
		if got := EinsumSplitK(s, spec, lhs, rhs); !got.Equal(fresh) {
			t.Fatalf("%s splitk=%d: AVX and scalar bytes differ (max diff %g)", name, s, got.MaxDifference(fresh))
		}
		if got := EinsumAddIntoSplitK(prior.Clone(), nil, spec, lhs, rhs, s); !got.Equal(acc) {
			t.Fatalf("%s splitk=%d, accumulating: AVX and scalar bytes differ (max diff %g)", name, s, got.MaxDifference(acc))
		}
		if s != 0 {
			return
		}
		if want := ReferenceEinsum(spec, lhs, rhs); !fresh.Equal(want) {
			t.Fatalf("%s: kernels differ from the reference (max diff %g)", name, fresh.MaxDifference(want))
		}
		want := prior.Clone()
		e, _ := einsumLookup(spec)
		einsumReference(want, e.spec, []*Tensor{lhs, rhs})
		if !acc.Equal(want) {
			t.Fatalf("%s, accumulating: kernels differ from the reference (max diff %g)", name, acc.MaxDifference(want))
		}
	}

	splits := map[int]int{}
	for li, l := range layouts {
		for m := 1; m <= 13; m++ {
			for n := 1; n <= 40; n++ {
				// K and the batch walk 1–70 and 1–3 across the (M, N)
				// grid, so every K meets many tails.
				k := 1 + (7*m+13*n+23*li)%70
				b := 1 + (m+n+li)%3
				lhs, rhs := Rand(rng, l.lhs(b, m, k, n)...), Rand(rng, l.rhs(b, m, k, n)...)
				prior := Rand(rng, b, m, n)
				name := fmt.Sprintf("%s b%d m%d k%d n%d", l.name, b, m, k, n)
				check(name, l.spec, lhs, rhs, prior, 0)
				for _, s := range []int{2, 4} {
					if splitFactor(b*m, k, n, s) == s {
						splits[s]++
						check(name, l.spec, lhs, rhs, prior, s)
					}
				}
			}
		}
	}
	if splits[2] == 0 || splits[4] == 0 {
		t.Fatalf("split-K factors taken %v times: the grid must reach 2 and 4", splits)
	}

	// The golden site's partial einsum, a shard's rows against the
	// transposed weight, through the column partition and split-K.
	lhs, rhs, prior := Rand(rng, 4, 8192), Rand(rng, 256, 8192), Rand(rng, 4, 256)
	for _, s := range []int{0, 2, 4} {
		check("site m4 k8192 n256", "mk,nk->mn", lhs, rhs, prior, s)
	}
}

// TestTransposedOutputRunsSwapped: a spec whose output is laid out
// [batch, n, m] runs as the GEMM of its operands swapped, with a direct
// output and no scatter of the accumulator, and keeps the reference's
// bytes, fresh and accumulating — with two contraction labels, whose
// order (the lhs's) fixes each element's order of terms even where the
// rhs holds them the other way round.
func TestTransposedOutputRunsSwapped(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	cases := []struct {
		spec     string
		lhs, rhs []int
	}{
		{"ef,ed->df", []int{32, 512}, []int{32, 128}}, // megatron's weight gradients
		{"ed,ef->fd", []int{32, 128}, []int{32, 512}},
		{"mkl,nkl->nm", []int{12, 9, 7}, []int{21, 9, 7}},
		{"mkl,nlk->nm", []int{12, 9, 7}, []int{21, 7, 9}},
		{"klm,lkn->nm", []int{9, 7, 12}, []int{7, 9, 21}},
		{"gmkl,glkn->gnm", []int{3, 6, 5, 4}, []int{3, 4, 5, 17}},
	}
	for _, tc := range cases {
		e, err := einsumLookup(tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		if !e.plan.swap || !e.plan.outDirect {
			t.Fatalf("%s: plan swap=%v outDirect=%v, want the swapped GEMM writing its output directly", tc.spec, e.plan.swap, e.plan.outDirect)
		}
		lhs, rhs := Rand(rng, tc.lhs...), Rand(rng, tc.rhs...)
		for _, simd := range []bool{true, false} {
			run := func(f func()) { f() }
			if !simd {
				run = withScalarKernels
			}
			run(func() {
				if got, want := Einsum(tc.spec, lhs, rhs), ReferenceEinsum(tc.spec, lhs, rhs); !got.Equal(want) {
					t.Fatalf("%s (AVX %v): differs from the reference (max diff %g)", tc.spec, simd && useAVX, got.MaxDifference(want))
				}
				shape, err := e.spec.OutputShape(lhs.Shape(), rhs.Shape())
				if err != nil {
					t.Fatal(err)
				}
				prior := Rand(rng, shape...)
				want := prior.Clone()
				einsumReference(want, e.spec, []*Tensor{lhs, rhs})
				if got := EinsumAddInto(prior, tc.spec, lhs, rhs); !got.Equal(want) {
					t.Fatalf("%s (AVX %v), accumulating: differs from the reference (max diff %g)", tc.spec, simd && useAVX, got.MaxDifference(want))
				}
			})
		}
	}
}
