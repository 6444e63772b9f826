package tensor

import (
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
)

// TestParallelGemmAllocatesNothing pins the kernel fan-out at zero
// allocations: a warm GEMM partitioned by output rows, by output
// columns and by split-K ranges takes its job from the pool and hands
// its chunks to the workers by value. The same calls from eight
// goroutines at once, sharing the pooled jobs and the queue, each give
// the serial bytes; the CI race job runs that part under the detector,
// where only the count is skipped.
func TestParallelGemmAllocatesNothing(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	// testing.AllocsPerRun runs at GOMAXPROCS 1, so the worker count is
	// passed to the kernel rather than read from the host.
	const workers = 4
	rng := rand.New(rand.NewSource(35))
	cases := []struct {
		name         string
		m, k, n, fac int
	}{
		{"rows", 128, 64, 64, 0},
		{"columns", 8, 256, 256, 0},
		{"split-K", 4, 1024, 64, 4},
	}
	for _, tc := range cases {
		if 2*tc.m*tc.k*tc.n < gemmParallelMinFlops || (splitFactor(tc.m, tc.k, tc.n, tc.fac) > 1) != (tc.fac > 1) {
			t.Fatalf("%s: %d×%d×%d does not reach the %s partition", tc.name, tc.m, tc.k, tc.n, tc.name)
		}
		a, b := Rand(rng, tc.m, tc.k), Rand(rng, tc.k, tc.n)
		g := gemmOperands{a: a.data, b: b.data, B: 1, M: tc.m, K: tc.k, N: tc.n, aRow: tc.k, aK: 1}
		want := make([]float64, tc.m*tc.n)
		gemm(want, g, 1, tc.fac, nil)

		var wg sync.WaitGroup
		bad := make(chan int, 8)
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got := make([]float64, len(want))
				for i := 0; i < 3; i++ {
					clear(got)
					gemm(got, g, workers, tc.fac, nil)
					if !slices.Equal(got, want) {
						bad <- w
						return
					}
				}
			}()
		}
		wg.Wait()
		close(bad)
		for w := range bad {
			t.Errorf("%s: goroutine %d's parallel GEMM differs from the serial bytes", tc.name, w)
		}

		if raceEnabled {
			continue // allocation counts are not representative under the race detector
		}
		c := make([]float64, len(want))
		gemm(c, g, workers, tc.fac, nil) // warm the job pool and the scratch classes
		if allocs := testing.AllocsPerRun(100, func() { gemm(c, g, workers, tc.fac, nil) }); allocs != 0 {
			t.Errorf("%s: a warm parallel GEMM allocates %.1f objects per call, want 0", tc.name, allocs)
		}
	}
}
