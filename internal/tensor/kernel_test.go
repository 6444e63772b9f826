package tensor

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
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
// direct, in-place transposed and packed layouts.
func TestKernelWorkerCountDeterminism(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	rng := rand.New(rand.NewSource(3))
	specs := []struct {
		spec     string
		lhs, rhs []int
	}{
		{"ik,kj->ij", []int{160, 160}, []int{160, 160}},      // fully direct
		{"ik,jk->ij", []int{160, 160}, []int{160, 160}},      // rhs NT, read in place
		{"ki,kj->ij", []int{160, 160}, []int{160, 160}},      // lhs TN, read in place
		{"ki,jk->ij", []int{160, 160}, []int{160, 160}},      // NT rhs in place, TN lhs packed
		{"mk,nk->mn", []int{4, 2048}, []int{256, 2048}},      // the site's skinny NT: column partition
		{"gik,gkj->gij", []int{4, 96, 96}, []int{4, 96, 96}}, // batched
		{"ki,kj->ji", []int{160, 160}, []int{160, 160}},      // output [n, m]: the swapped GEMM
		{"gik,gkj->igj", []int{4, 96, 96}, []int{4, 96, 96}}, // output packed
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
// zero steady-state allocations for the layouts the kernels read in
// place — direct, NT and TN: the spec/plan cache is warm, no output
// temporary is materialized, and no packing scratch is needed.
func TestEinsumAddIntoSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not representative under the race detector")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	rng := rand.New(rand.NewSource(5))
	lhs := Rand(rng, 64, 64)
	rhs := Rand(rng, 64, 64)
	acc := New(64, 64)
	for _, spec := range []string{"ik,kj->ij", "ik,jk->ij", "ki,kj->ij"} {
		EinsumAddInto(acc, spec, lhs, rhs) // warm the spec cache
		allocs := testing.AllocsPerRun(100, func() {
			EinsumAddInto(acc, spec, lhs, rhs)
		})
		if allocs != 0 {
			t.Fatalf("EinsumAddInto %s allocates %.1f objects/op, want 0", spec, allocs)
		}
	}
}

// TestTransposedOperandsReadInPlace: a transposed operand the kernels
// read where it lies gives exactly the bytes of the same operand
// physically transposed and read directly, at every split-K factor and
// worker count — the layout picks a kernel, never a result. Only the
// NT+TN pair packs (its lhs); no other case packs a byte.
func TestTransposedOperandsReadInPlace(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	rng := rand.New(rand.NewSource(8))
	cases := []struct {
		spec, direct string
		lhs, rhs     []int // operand shapes under spec
		lhsT, rhsT   []int // the permutation that lays each out for direct; nil if it already is
		packs        bool
	}{
		{"mk,nk->mn", "mk,kn->mn", []int{4, 1024}, []int{64, 1024}, nil, []int{1, 0}, false},
		{"km,kn->mn", "mk,kn->mn", []int{1024, 4}, []int{1024, 64}, []int{1, 0}, nil, false},
		{"km,nk->mn", "mk,kn->mn", []int{1024, 4}, []int{64, 1024}, []int{1, 0}, []int{1, 0}, true},
		{"mk,nk->mn", "mk,kn->mn", []int{96, 128}, []int{48, 128}, nil, []int{1, 0}, false},
		{"km,kn->mn", "mk,kn->mn", []int{128, 96}, []int{128, 48}, []int{1, 0}, nil, false},
		{"gmk,gnk->gmn", "gmk,gkn->gmn", []int{3, 5, 512}, []int{3, 18, 512}, nil, []int{0, 2, 1}, false},
		{"gkm,gkn->gmn", "gmk,gkn->gmn", []int{3, 512, 5}, []int{3, 512, 18}, []int{0, 2, 1}, nil, false},
	}
	for _, tc := range cases {
		lhs, rhs := Rand(rng, tc.lhs...), Rand(rng, tc.rhs...)
		dl, dr := lhs, rhs
		if tc.lhsT != nil {
			dl = Transpose(lhs, tc.lhsT...)
		}
		if tc.rhsT != nil {
			dr = Transpose(rhs, tc.rhsT...)
		}
		for _, s := range []int{0, 2, 4} {
			for _, procs := range []int{1, 2, 4} {
				runtime.GOMAXPROCS(procs)
				bytes0 := kernelPackBytes.Value()
				got := EinsumSplitK(s, tc.spec, lhs, rhs)
				if packed := kernelPackBytes.Value() > bytes0; packed != tc.packs {
					t.Fatalf("%s: packed %v, want %v", tc.spec, packed, tc.packs)
				}
				if want := EinsumSplitK(s, tc.direct, dl, dr); !got.Equal(want) {
					t.Fatalf("%s %v×%v splitk=%d GOMAXPROCS=%d: bytes differ from the transposed copy read directly (max diff %g)",
						tc.spec, tc.lhs, tc.rhs, s, procs, got.MaxDifference(want))
				}
			}
		}
	}
}

// TestEinsumAddIntoPackedPathPoolsScratch pins that packing scratch is
// recycled: an accumulate onto a non-direct output layout, which
// accumulates in a pre-packed scratch copy, and one whose lhs is packed
// (TN beside an NT rhs) each average well under one allocation per run
// once the buffer pool is warm.
func TestEinsumAddIntoPackedPathPoolsScratch(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool deliberately drops items under the race detector")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	rng := rand.New(rand.NewSource(6))
	for _, tc := range []struct {
		spec          string
		lhs, rhs, acc []int
	}{
		{"gik,gkj->igj", []int{4, 16, 64}, []int{4, 64, 16}, []int{16, 4, 16}},
		{"ki,jk->ij", []int{64, 64}, []int{64, 64}, []int{64, 64}},
	} {
		lhs, rhs, acc := Rand(rng, tc.lhs...), Rand(rng, tc.rhs...), New(tc.acc...)
		EinsumAddInto(acc, tc.spec, lhs, rhs) // warm spec cache and pool
		allocs := testing.AllocsPerRun(200, func() {
			EinsumAddInto(acc, tc.spec, lhs, rhs)
		})
		if allocs >= 1 {
			t.Fatalf("EinsumAddInto %s packed path allocates %.2f objects/op, want < 1 with pooled scratch", tc.spec, allocs)
		}
	}
}

// TestPackedOperandsUnderContention runs a layout whose rhs is packed
// (ed,het->dht: the contraction label e sits between the free labels h
// and t) from eight goroutines at once. Each packs into its own scratch
// for the length of one kernel, so a shared operand is only ever read,
// and a private one written between kernels is packed as it is now.
// The CI race job runs it under the detector.
func TestPackedOperandsUnderContention(t *testing.T) {
	const spec = "ed,het->dht"
	rng := rand.New(rand.NewSource(35))
	x, shared := Rand(rng, 48, 2), Rand(rng, 4, 48, 6)
	want := ReferenceEinsum(spec, x, shared)
	bytes0 := kernelPackBytes.Value()

	const goroutines, iters = 8, 50
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			own := Rand(rng, 4, 48, 6)
			for i := 0; i < iters; i++ {
				if got := Einsum(spec, x, shared); !got.Equal(want) {
					errs <- fmt.Errorf("shared operand: wrong bytes on iteration %d", i)
					return
				}
				own.Set(rng.Float64(), i%4, i%48, i%6)
				if got, ref := Einsum(spec, x, own), ReferenceEinsum(spec, x, own); !got.Equal(ref) {
					errs <- fmt.Errorf("private operand: wrong bytes on iteration %d", i)
					return
				}
			}
		}(int64(100 + g))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// Every kernel packed its rhs: two per iteration per goroutine.
	if got, want := kernelPackBytes.Value()-bytes0, float64(goroutines*iters*2*8*shared.NumElements()); got < want {
		t.Fatalf("%g bytes packed, want at least %g", got, want)
	}
}

type layoutCase struct {
	name, spec string
	lhs, rhs   []int
}

// einsumLayouts is BenchmarkEinsum's layout table: the golden site's
// partial einsum (a shard's rows against the transposed weight), square
// NT, TN and direct matrices, and the four gradient einsums of a
// megatron layer at model 128, hidden 512 and 32 tokens per device.
func einsumLayouts() []layoutCase {
	cases := []layoutCase{
		{"site/m4", "mk,nk->mn", []int{4, 8192}, []int{256, 8192}},
		{"site/m16", "mk,nk->mn", []int{16, 8192}, []int{256, 8192}},
	}
	for _, n := range []int{16, 32, 64, 128, 256} {
		cases = append(cases,
			layoutCase{fmt.Sprintf("nt/%d", n), "ik,jk->ij", []int{n, n}, []int{n, n}},
			layoutCase{fmt.Sprintf("tn/%d", n), "ki,kj->ij", []int{n, n}, []int{n, n}},
			layoutCase{fmt.Sprintf("direct/%d", n), "ik,kj->ij", []int{n, n}, []int{n, n}})
	}
	return append(cases,
		layoutCase{"megatron/ef,df->ed", "ef,df->ed", []int{32, 512}, []int{128, 512}},
		layoutCase{"megatron/ed,fd->ef", "ed,fd->ef", []int{32, 128}, []int{512, 128}},
		layoutCase{"megatron/ed,ef->df", "ed,ef->df", []int{32, 128}, []int{32, 512}},
		layoutCase{"megatron/ef,ed->fd", "ef,ed->fd", []int{32, 512}, []int{32, 128}})
}

// BenchmarkEinsum sweeps square matmuls from 32 to 512, then runs the
// layout table, reporting GFLOP/s alongside ns/op. A layout that packs
// pays its pack on every call, so a row that reads in place compares
// directly with the same row where it packs.
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
	for _, tc := range einsumLayouts() {
		b.Run(tc.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			x, y := Rand(rng, tc.lhs...), Rand(rng, tc.rhs...)
			e, err := einsumLookup(tc.spec)
			if err != nil {
				b.Fatal(err)
			}
			flops, err := e.spec.Flops(tc.lhs, tc.rhs)
			if err != nil {
				b.Fatal(err)
			}
			out := Einsum(tc.spec, x, y)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				EinsumIntoSplitK(out, nil, 0, tc.spec, x, y)
			}
			b.ReportMetric(float64(flops)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
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
