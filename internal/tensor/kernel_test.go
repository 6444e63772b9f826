package tensor

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// randomGemmSpec builds a random lowerable two-operand spec: up to two
// labels in each of the batch/M/N/K groups, with operand and output
// dimension orders independently shuffled so packed (non-direct)
// layouts are exercised. Returns the spec text and the label universe.
func randomGemmSpec(rng *rand.Rand) (string, []byte) {
	pool := []byte("abcdefgh")
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	next := 0
	take := func(n int) []byte {
		out := pool[next : next+n]
		next += n
		return out
	}
	batch := take(rng.Intn(3))
	m := take(rng.Intn(3))
	n := take(rng.Intn(3))
	k := take(rng.Intn(3))

	shuffled := func(groups ...[]byte) string {
		var all []byte
		for _, g := range groups {
			all = append(all, g...)
		}
		rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
		return string(all)
	}
	lhs := shuffled(batch, m, k)
	rhs := shuffled(batch, k, n)
	out := shuffled(batch, m, n)
	labels := append(append(append(append([]byte{}, batch...), m...), n...), k...)
	return lhs + "," + rhs + "->" + out, labels
}

// randomSizes assigns each label a size in [1,4], occasionally zero to
// cover empty iteration spaces.
func randomSizes(rng *rand.Rand, labels []byte) map[byte]int {
	sizes := map[byte]int{}
	for _, c := range labels {
		if rng.Intn(10) == 0 {
			sizes[c] = 0
		} else {
			sizes[c] = 1 + rng.Intn(4)
		}
	}
	return sizes
}

func tensorFor(rng *rand.Rand, labels string, sizes map[byte]int) *Tensor {
	shape := make([]int, len(labels))
	for i := 0; i < len(labels); i++ {
		shape[i] = sizes[labels[i]]
	}
	return Rand(rng, shape...)
}

// TestKernelMatchesReferenceFuzz is the differential test backing the
// kernel's bit-exactness contract: for randomized lowerable specs and
// shapes, the GEMM path must produce *exactly* the bytes of the
// odometer reference — same values, same rounding — both for fresh
// einsums and for fused accumulation onto a non-zero accumulator.
func TestKernelMatchesReferenceFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	kernelUsed := 0
	for iter := 0; iter < 500; iter++ {
		spec, labels := randomGemmSpec(rng)
		sizes := randomSizes(rng, labels)
		parsed, err := ParseEinsum(spec)
		if err != nil {
			t.Fatalf("generated invalid spec %q: %v", spec, err)
		}
		lhs := tensorFor(rng, parsed.Inputs[0], sizes)
		rhs := tensorFor(rng, parsed.Inputs[1], sizes)

		e, err := einsumLookup(spec)
		if err != nil {
			t.Fatalf("einsumLookup(%q): %v", spec, err)
		}
		if !e.plan.ok {
			t.Fatalf("spec %q did not lower to GEMM", spec)
		}
		kernelUsed++

		got := Einsum(spec, lhs, rhs)
		want := ReferenceEinsum(spec, lhs, rhs)
		if !got.Equal(want) {
			t.Fatalf("spec %q lhs %v rhs %v: kernel differs from reference (max diff %g)",
				spec, lhs.Shape(), rhs.Shape(), got.MaxDifference(want))
		}

		acc := tensorFor(rng, parsed.Output, sizes)
		wantAcc := acc.Clone()
		einsumReference(wantAcc, parsed, []*Tensor{lhs, rhs})
		gotAcc := EinsumAddInto(acc.Clone(), spec, lhs, rhs)
		if !gotAcc.Equal(wantAcc) {
			t.Fatalf("spec %q: EinsumAddInto differs from reference accumulate (max diff %g)",
				spec, gotAcc.MaxDifference(wantAcc))
		}
	}
	if kernelUsed == 0 {
		t.Fatal("fuzz never exercised the kernel path")
	}
}

// TestKernelFallbackSpecs pins which spec shapes do NOT lower to GEMM
// and verifies they still evaluate correctly through the reference
// path, including via EinsumAddInto.
func TestKernelFallbackSpecs(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cases := []string{
		"ab->ba",    // single operand: transpose
		"ab->a",     // single operand: reduction
		"ab,bc->bc", // 'a' summed within lhs alone
		"ab,ac->ab", // 'c' summed within rhs alone
	}
	for _, spec := range cases {
		e, err := einsumLookup(spec)
		if err != nil {
			t.Fatalf("einsumLookup(%q): %v", spec, err)
		}
		if e.plan.ok {
			t.Fatalf("spec %q unexpectedly lowered to GEMM", spec)
		}
		sizes := map[byte]int{'a': 3, 'b': 4, 'c': 5}
		ops := make([]*Tensor, len(e.spec.Inputs))
		for i, in := range e.spec.Inputs {
			ops[i] = tensorFor(rng, in, sizes)
		}
		got := Einsum(spec, ops...)
		want := ReferenceEinsum(spec, ops...)
		if !got.Equal(want) {
			t.Fatalf("fallback spec %q: Einsum differs from reference", spec)
		}
		if len(ops) == 2 {
			acc := tensorFor(rng, e.spec.Output, sizes)
			wantAcc := acc.Clone()
			einsumReference(wantAcc, e.spec, ops)
			if got := EinsumAddInto(acc.Clone(), spec, ops[0], ops[1]); !got.Equal(wantAcc) {
				t.Fatalf("fallback spec %q: EinsumAddInto differs from reference", spec)
			}
		}
	}
}

// TestKernelWorkerCountDeterminism verifies the partitioning contract:
// results are byte-identical for 1, 2 and the host's GOMAXPROCS
// workers, on sizes large enough to cross the parallel threshold, for
// direct and packed layouts.
func TestKernelWorkerCountDeterminism(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	rng := rand.New(rand.NewSource(3))
	specs := []struct {
		spec     string
		lhs, rhs []int
	}{
		{"ik,kj->ij", []int{160, 160}, []int{160, 160}},      // fully direct
		{"ik,jk->ij", []int{160, 160}, []int{160, 160}},      // rhs packed
		{"gik,gkj->gij", []int{4, 96, 96}, []int{4, 96, 96}}, // batched
		{"ki,kj->ji", []int{160, 160}, []int{160, 160}},      // all packed
	}
	counts := []int{1, 2, runtime.GOMAXPROCS(0)}
	for _, tc := range specs {
		lhs := Rand(rng, tc.lhs...)
		rhs := Rand(rng, tc.rhs...)
		var base *Tensor
		for _, w := range counts {
			runtime.GOMAXPROCS(w)
			got := Einsum(tc.spec, lhs, rhs)
			if base == nil {
				base = got
				continue
			}
			if !got.Equal(base) {
				t.Fatalf("spec %q: %d workers produced different bytes than 1 worker", tc.spec, w)
			}
		}
		runtime.GOMAXPROCS(1)
		want := ReferenceEinsum(tc.spec, lhs, rhs)
		if !base.Equal(want) {
			t.Fatalf("spec %q: kernel differs from reference at parallel sizes", tc.spec)
		}
	}
}

// TestEinsumAddIntoSteadyStateAllocs pins the fused accumulate path at
// zero steady-state allocations for direct layouts: the spec/plan cache
// is warm, no output temporary is materialized, and no packing scratch
// is needed.
func TestEinsumAddIntoSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not representative under the race detector")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	rng := rand.New(rand.NewSource(5))
	lhs := Rand(rng, 64, 64)
	rhs := Rand(rng, 64, 64)
	acc := New(64, 64)
	EinsumAddInto(acc, "ik,kj->ij", lhs, rhs) // warm the spec cache
	allocs := testing.AllocsPerRun(100, func() {
		EinsumAddInto(acc, "ik,kj->ij", lhs, rhs)
	})
	if allocs != 0 {
		t.Fatalf("EinsumAddInto direct path allocates %.1f objects/op, want 0", allocs)
	}
}

// TestEinsumAddIntoPackedPathPoolsScratch pins that packing scratch is
// recycled: a packed-layout accumulate averages well under one
// allocation per run once the buffer pool is warm (three fresh
// data-sized buffers per run would be the unpooled cost).
func TestEinsumAddIntoPackedPathPoolsScratch(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool deliberately drops items under the race detector")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	rng := rand.New(rand.NewSource(6))
	lhs := Rand(rng, 64, 64)
	rhs := Rand(rng, 64, 64)
	acc := New(64, 64)
	EinsumAddInto(acc, "ki,kj->ji", lhs, rhs) // warm spec cache and pool
	allocs := testing.AllocsPerRun(200, func() {
		EinsumAddInto(acc, "ki,kj->ji", lhs, rhs)
	})
	if allocs >= 1 {
		t.Fatalf("EinsumAddInto packed path allocates %.2f objects/op, want < 1 with pooled scratch", allocs)
	}
}

// BenchmarkEinsum sweeps square matmuls from 32 to 512, reporting
// GFLOP/s alongside ns/op.
func BenchmarkEinsum(b *testing.B) {
	for _, size := range []int{32, 64, 128, 256, 512} {
		b.Run(fmt.Sprintf("matmul%d", size), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			x := Rand(rng, size, size)
			y := Rand(rng, size, size)
			flops := 2 * float64(size) * float64(size) * float64(size)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Einsum("ik,kj->ij", x, y)
			}
			b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		})
	}
}

// BenchmarkEinsumReference is the pre-kernel baseline for the same
// shapes; the ratio to BenchmarkEinsum is the engine's speedup.
func BenchmarkEinsumReference(b *testing.B) {
	for _, size := range []int{32, 64, 128} {
		b.Run(fmt.Sprintf("matmul%d", size), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			x := Rand(rng, size, size)
			y := Rand(rng, size, size)
			flops := 2 * float64(size) * float64(size) * float64(size)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ReferenceEinsum("ik,kj->ij", x, y)
			}
			b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		})
	}
}

// BenchmarkEinsumAddInto measures the fused accumulate against the
// unfused temporary-plus-AddInPlace pair it replaces in the decomposed
// ReduceScatter chain.
func BenchmarkEinsumAddInto(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := Rand(rng, 128, 128)
	y := Rand(rng, 128, 128)
	acc := New(128, 128)
	b.Run("fused", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			EinsumAddInto(acc, "ik,kj->ij", x, y)
		}
	})
	b.Run("unfused", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			AddInPlace(acc, Einsum("ik,kj->ij", x, y))
		}
	})
}
