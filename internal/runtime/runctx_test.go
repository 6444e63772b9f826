package runtime_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	goruntime "runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"overlap/internal/machine"
	"overlap/internal/runtime"
	"overlap/internal/tensor"
)

// sameOutputs reports where got's outputs differ from want's, bit for
// bit, or nil. The number of transfers a device posted is a count a
// stale counter would move, so it must match too.
func sameOutputs(got, want *runtime.Result) error {
	if len(got.All) != len(want.All) {
		return fmt.Errorf("%d outputs, want %d", len(got.All), len(want.All))
	}
	for in, per := range want.All {
		for d, w := range per {
			if !got.All[in][d].Equal(w) {
				return fmt.Errorf("%s on device %d differs by %v", in.Name, d, got.All[in][d].MaxDifference(w))
			}
		}
	}
	if g, w := got.Breakdown.AsyncTransfers, want.Breakdown.AsyncTransfers; g != w {
		return fmt.Errorf("%d asynchronous transfers, want %d", g, w)
	}
	return nil
}

// TestRunAfterAbortMatchesFreshExecutable pins the run context's rule:
// a clean run hands its context back to the Executable, reset, and a
// failed one drops it. After a deadline abort and after an injected
// crash — parcels left on links, mailboxes half filled, a collective
// generation some devices never reached — the next runs, the second
// on a context the first handed back, equal a run on a fresh
// Executable bit for bit, on both transports, with every released
// buffer poisoned. The deadline fires on a transfer dropped on the
// wire, so only a program with transfers has one: in the rolled
// program nothing waits for anything but its peers.
func TestRunAfterAbortMatchesFreshExecutable(t *testing.T) {
	defer runtime.PoisonReleased()()
	const n = 4
	crash := &runtime.FaultPlan{Seed: 3, Faults: []runtime.Fault{{Kind: runtime.FaultCrash, Device: 1, K: 2}}}
	type abort struct {
		name     string
		opts     runtime.Options
		deadline time.Duration
		sentinel error
	}
	run := func(x *runtime.Executable, ctx context.Context, args [][]*tensor.Tensor, opts runtime.Options) (*runtime.Result, error) {
		opts.Trace = true
		return x.Run(ctx, args, opts)
	}
	for name, c := range reusePrograms(t) {
		aborts := []abort{{"crash", runtime.Options{TimeScale: 20, Faults: crash}, 10 * time.Second, runtime.ErrInjectedCrash}}
		if edges := asyncEdges(c); len(edges) > 0 {
			drop := &runtime.FaultPlan{Seed: 3, Faults: []runtime.Fault{{Kind: runtime.FaultDrop, Src: edges[0][0], Dst: edges[0][1], K: 0}}}
			aborts = append(aborts, abort{"deadline", runtime.Options{TimeScale: 20, Faults: drop}, 100 * time.Millisecond, context.DeadlineExceeded})
		}
		args := randomArgs(c, n, rand.New(rand.NewSource(59)))
		for _, tr := range transports {
			clean := runtime.Options{Transport: tr, TimeScale: 20}
			fresh, err := runtime.Compile(c, n, machine.TPUv4())
			if err != nil {
				t.Fatal(err)
			}
			want, err := run(fresh, context.Background(), args, clean)
			if err != nil {
				t.Fatalf("%s (%s): fresh run: %v", name, tr, err)
			}
			for _, a := range aborts {
				x, err := runtime.Compile(c, n, machine.TPUv4())
				if err != nil {
					t.Fatal(err)
				}
				res, err := run(x, context.Background(), args, clean)
				if err != nil {
					t.Fatalf("%s (%s): first run: %v", name, tr, err)
				}
				res.Release()
				if got := x.IdleRunContexts(); got != 1 {
					t.Fatalf("%s (%s): a clean run left %d idle run contexts, want 1", name, tr, got)
				}
				ctx, cancel := context.WithTimeout(context.Background(), a.deadline)
				opts := a.opts
				opts.Transport = tr
				_, err = run(x, ctx, args, opts)
				cancel()
				var re *runtime.RunError
				if !errors.Is(err, a.sentinel) || !errors.As(err, &re) {
					t.Fatalf("%s (%s): %s: error %v, want a *RunError wrapping %v", name, tr, a.name, err, a.sentinel)
				}
				if got := x.IdleRunContexts(); got != 0 {
					t.Fatalf("%s (%s): the run aborted by %s handed its context back (%d idle)", name, tr, a.name, got)
				}
				for i := 0; i < 2; i++ {
					res, err := run(x, context.Background(), args, clean)
					if err != nil {
						t.Fatalf("%s (%s): run %d after %s: %v", name, tr, i, a.name, err)
					}
					if err := sameOutputs(res, want); err != nil {
						t.Fatalf("%s (%s): run %d after %s differs from a fresh Executable's: %v", name, tr, i, a.name, err)
					}
					res.Release()
				}
				if got := x.IdleRunContexts(); got != 1 {
					t.Fatalf("%s (%s): two clean runs after %s left %d idle run contexts, want 1", name, tr, a.name, got)
				}
			}
			want.Release()
		}
	}
}

// TestRunContextsUnderConcurrency: serve runs one Executable for many
// requests at once, so run contexts are checked out and handed back
// concurrently, and span slabs go back to their free list while other
// runs draw from it. Eight goroutines each run one Executable five
// times, traced, on arguments of their own, and hand every trace back;
// every run equals the serial run on its arguments bit for bit.
func TestRunContextsUnderConcurrency(t *testing.T) {
	defer runtime.PoisonReleased()()
	const n, workers, runs = 4, 8, 5
	for name, c := range reusePrograms(t) {
		x, err := runtime.Compile(c, n, machine.TPUv4())
		if err != nil {
			t.Fatal(err)
		}
		opts := runtime.Options{TimeScale: 20, Trace: true}
		rng := rand.New(rand.NewSource(61))
		args := make([][][]*tensor.Tensor, workers)
		want := make([]*runtime.Result, workers)
		for w := range args {
			args[w] = randomArgs(c, n, rng)
			if want[w], err = x.Run(context.Background(), args[w], opts); err != nil {
				t.Fatalf("%s: serial run %d: %v", name, w, err)
			}
		}
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < runs; i++ {
					res, err := x.Run(context.Background(), args[w], opts)
					if err == nil {
						err = sameOutputs(res, want[w])
					}
					if err != nil {
						t.Errorf("%s: goroutine %d run %d: %v", name, w, i, err)
						return
					}
					runtime.ReleaseTrace(res.Trace)
					res.Release()
				}
			}(w)
		}
		wg.Wait()
		if got := x.IdleRunContexts(); got < 1 || got > workers {
			t.Errorf("%s: %d idle run contexts after %d concurrent runners, want 1 to %d", name, got, workers, workers)
		}
		for _, res := range want {
			res.Release()
		}
	}
}

// TestReleasedTablesUnderConcurrency: a holder releases a result on its
// own goroutine, whenever it is done with it, while the run context
// that filled the result's tables runs again and refills tables others
// released. Four goroutines run one Executable and hand every result to
// four others, which compare it with the serial run on its arguments
// bit for bit and release it; under the detector a table refilled while
// its last holder still reads it is a reported race.
func TestReleasedTablesUnderConcurrency(t *testing.T) {
	defer runtime.PoisonReleased()()
	const n, runners, runs = 4, 4, 6
	c := reuseProgram(t, forceOpts(false, false))
	x, err := runtime.Compile(c, n, machine.TPUv4())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(67))
	args := make([][][]*tensor.Tensor, runners)
	want := make([]*runtime.Result, runners)
	for w := range args {
		args[w] = randomArgs(c, n, rng)
		if want[w], err = x.Run(context.Background(), args[w], runtime.Options{}); err != nil {
			t.Fatalf("serial run %d: %v", w, err)
		}
	}
	type held struct {
		w   int
		res *runtime.Result
	}
	done := make(chan held)
	var run, release sync.WaitGroup
	for w := 0; w < runners; w++ {
		run.Add(1)
		go func(w int) {
			defer run.Done()
			for i := 0; i < runs; i++ {
				res, err := x.Run(context.Background(), args[w], runtime.Options{})
				if err != nil {
					t.Errorf("goroutine %d run %d: %v", w, i, err)
					return
				}
				done <- held{w, res}
			}
		}(w)
		release.Add(1)
		go func() {
			defer release.Done()
			for h := range done {
				if err := sameOutputs(h.res, want[h.w]); err != nil {
					t.Errorf("a result of goroutine %d: %v", h.w, err)
				}
				h.res.Release()
			}
		}()
	}
	run.Wait()
	close(done)
	release.Wait()
	for _, res := range want {
		res.Release()
	}
}

// TestUnreleasedResultPinsNoExecutable: a caller of the one-shot Run
// that never releases its Result keeps the result's tensors and tables,
// not the Executable Run compiled: its tape and its run contexts go to
// the garbage collector while the Result is still held.
func TestUnreleasedResultPinsNoExecutable(t *testing.T) {
	const n = 4
	c := reuseProgram(t, forceOpts(false, false))
	args := randomArgs(c, n, rand.New(rand.NewSource(71)))
	var collected atomic.Bool
	res := func() *runtime.Result {
		x, err := runtime.Compile(c, n, machine.TPUv4())
		if err != nil {
			t.Fatal(err)
		}
		x.OnTapeCollected(&collected)
		res, err := x.Run(context.Background(), args, runtime.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}()
	for i := 0; i < 100 && !collected.Load(); i++ {
		goruntime.GC()
		time.Sleep(time.Millisecond)
	}
	if !collected.Load() {
		t.Fatal("an unreleased Result keeps its Executable alive")
	}
	if len(res.All) == 0 {
		t.Fatal("the held result lost its outputs")
	}
	res.Release()
}
