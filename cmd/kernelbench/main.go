// Command kernelbench sweeps the einsum kernel engine over square
// matmuls plus the skinny shapes the decomposed loop actually runs
// (few output rows, long contraction) and writes a machine-readable
// report. CI runs the short sweep on every push and uploads the JSON
// next to the telemetry artifacts, so kernel regressions show up as a
// diffable number rather than a feeling. The per-size reference timing
// (odometer path) is included so the report carries its own speedup
// baseline; sizes whose reference run would be too slow carry an
// explicit ref_skipped marker instead of silently dropping the fields.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"testing"

	"overlap"
	"overlap/internal/tensor"
)

type sizeResult struct {
	Size        int     `json:"size"`
	NsPerOp     int64   `json:"ns_per_op"`
	GFLOPs      float64 `json:"gflops"`
	RefNsPerOp  int64   `json:"ref_ns_per_op,omitempty"`
	RefGFLOPs   float64 `json:"ref_gflops,omitempty"`
	Speedup     float64 `json:"speedup,omitempty"`
	RefSkipped  bool    `json:"ref_skipped,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// skinnyResult is one skinny-GEMM measurement: M output rows against a
// K-long contraction (N fixed), under one kernel strategy. SplitK 0 is
// the reference-order engine; factors >= 2 run the deterministic
// split-K tree. Packed entries store the rhs operand transposed
// ("mk,nk->mn") so every execution exercises the permute-pack path —
// and, across benchmark iterations, the persistent pack cache.
type skinnyResult struct {
	M                 int     `json:"m"`
	K                 int     `json:"k"`
	N                 int     `json:"n"`
	SplitK            int     `json:"split_k"`
	Packed            bool    `json:"packed,omitempty"`
	NsPerOp           int64   `json:"ns_per_op"`
	GFLOPs            float64 `json:"gflops"`
	RefNsPerOp        int64   `json:"ref_ns_per_op,omitempty"`
	RefGFLOPs         float64 `json:"ref_gflops,omitempty"`
	Speedup           float64 `json:"speedup,omitempty"`
	RefSkipped        bool    `json:"ref_skipped,omitempty"`
	PackCacheOff      bool    `json:"pack_cache_off,omitempty"`
	SpeedupVsSplitOff float64 `json:"speedup_vs_split_off,omitempty"`
	SpeedupVsNoCache  float64 `json:"speedup_vs_no_cache,omitempty"`
	AllocsPerOp       int64   `json:"allocs_per_op"`
	BytesPerOp        int64   `json:"bytes_per_op"`
}

type report struct {
	Workers    int            `json:"kernel_workers"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	PackCache  bool           `json:"pack_cache"`
	Sizes      []sizeResult   `json:"sizes"`
	Skinny     []skinnyResult `json:"skinny"`
}

func main() {
	short := flag.Bool("short", false, "sweep sizes 32-128 only and skip reference timings above 64")
	out := flag.String("out", "", "write the JSON report to this file (default stdout)")
	workers := flag.Int("workers", 0, "kernel worker count (0 = GOMAXPROCS)")
	packCache := flag.Bool("pack-cache", true, "enable the persistent operand-pack cache")
	skinnySplitK := flag.Int("skinny-splitk", 4, "split-K factor the skinny sweep measures against factor 0")
	flag.Parse()

	overlap.SetKernelWorkers(*workers)
	tensor.SetPackCache(*packCache)

	sizes := []int{32, 64, 128, 256, 512}
	refCeiling := 256 // reference is O(n^3) scalar; cap how long we wait
	if *short {
		sizes = []int{32, 64, 128}
		refCeiling = 64
	}

	rep := report{
		Workers:    overlap.KernelWorkers(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		PackCache:  *packCache,
	}
	for _, size := range sizes {
		rng := rand.New(rand.NewSource(1))
		x := tensor.Rand(rng, size, size)
		y := tensor.Rand(rng, size, size)
		flops := 2 * float64(size) * float64(size) * float64(size)

		kr := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tensor.Einsum("ik,kj->ij", x, y)
			}
		})
		res := sizeResult{
			Size:        size,
			NsPerOp:     kr.NsPerOp(),
			GFLOPs:      flops / float64(kr.NsPerOp()),
			AllocsPerOp: kr.AllocsPerOp(),
			BytesPerOp:  kr.AllocedBytesPerOp(),
		}
		if size <= refCeiling {
			rr := testing.Benchmark(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					tensor.ReferenceEinsum("ik,kj->ij", x, y)
				}
			})
			res.RefNsPerOp = rr.NsPerOp()
			res.RefGFLOPs = flops / float64(rr.NsPerOp())
			res.Speedup = float64(rr.NsPerOp()) / float64(kr.NsPerOp())
		} else {
			res.RefSkipped = true
		}
		rep.Sizes = append(rep.Sizes, res)
		fmt.Fprintf(os.Stderr, "matmul%-4d %10d ns/op %8.2f GFLOP/s", size, res.NsPerOp, res.GFLOPs)
		if res.Speedup != 0 {
			fmt.Fprintf(os.Stderr, "  %5.1fx vs reference", res.Speedup)
		}
		fmt.Fprintln(os.Stderr)
	}

	rep.Skinny = skinnySweep(*skinnySplitK)

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fail(err)
	}
	data = append(data, '\n')
	if *out == "" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fail(err)
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", *out)
}

// skinnySweep measures the decomposed loop's shapes — M in {1, 4, 16}
// output rows against contractions of 1k and 4k, N fixed at 256 —
// under four strategies per shape: the reference-order engine, the
// split-K tree at the given factor, and the reference-order engine
// with the rhs stored transposed (the permute-pack path) both with the
// persistent pack cache and without it. The cached/uncached pair is
// the decomposed loop's before/after: with the cache, the recurring
// weight shard packs once instead of once per iteration.
func skinnySweep(factor int) []skinnyResult {
	const n = 256
	cacheWas := tensor.PackCacheEnabled()
	defer tensor.SetPackCache(cacheWas)
	var out []skinnyResult
	for _, m := range []int{1, 4, 16} {
		for _, k := range []int{1024, 4096} {
			rng := rand.New(rand.NewSource(1))
			x := tensor.Rand(rng, m, k)
			y := tensor.Rand(rng, k, n)
			yT := tensor.Rand(rng, n, k) // transposed weight: rhs packs
			flops := 2 * float64(m) * float64(k) * float64(n)

			base := skinnyBench(m, k, n, 0, false, "mk,kn->mn", x, y, flops)
			split := skinnyBench(m, k, n, factor, false, "mk,kn->mn", x, y, flops)
			split.SpeedupVsSplitOff = float64(base.NsPerOp) / float64(split.NsPerOp)
			tensor.SetPackCache(true)
			packed := skinnyBench(m, k, n, 0, true, "mk,nk->mn", x, yT, flops)
			tensor.SetPackCache(false)
			packedCold := skinnyBench(m, k, n, 0, true, "mk,nk->mn", x, yT, flops)
			tensor.SetPackCache(cacheWas)
			packedCold.PackCacheOff = true
			packed.SpeedupVsNoCache = float64(packedCold.NsPerOp) / float64(packed.NsPerOp)
			out = append(out, base, split, packed, packedCold)

			fmt.Fprintf(os.Stderr,
				"skinny m=%-2d k=%-4d %9d ns/op | splitk%d %9d ns/op (%4.2fx) | packed %9d ns/op (%4.2fx vs no cache)\n",
				m, k, base.NsPerOp, factor, split.NsPerOp, split.SpeedupVsSplitOff,
				packed.NsPerOp, packed.SpeedupVsNoCache)
		}
	}
	return out
}

// skinnyBench runs one skinny benchmark under the given split-K factor
// and annotates it with its scalar-reference baseline. Skinny
// references are cheap — the work is O(M·K·N) with tiny M — so they
// are never skipped.
func skinnyBench(m, k, n, factor int, packed bool, spec string, x, y *tensor.Tensor, flops float64) skinnyResult {
	kr := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tensor.EinsumSplitK(factor, spec, x, y)
		}
	})
	rr := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tensor.ReferenceEinsum(spec, x, y)
		}
	})
	return skinnyResult{
		M:           m,
		K:           k,
		N:           n,
		SplitK:      factor,
		Packed:      packed,
		NsPerOp:     kr.NsPerOp(),
		GFLOPs:      flops / float64(kr.NsPerOp()),
		RefNsPerOp:  rr.NsPerOp(),
		RefGFLOPs:   flops / float64(rr.NsPerOp()),
		Speedup:     float64(rr.NsPerOp()) / float64(kr.NsPerOp()),
		AllocsPerOp: kr.AllocsPerOp(),
		BytesPerOp:  kr.AllocedBytesPerOp(),
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "kernelbench:", err)
	os.Exit(1)
}
