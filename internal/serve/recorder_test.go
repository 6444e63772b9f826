package serve

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"overlap/internal/hlo"
	"overlap/internal/machine"
	"overlap/internal/obs"
	"overlap/internal/runtime"
	"overlap/internal/tensor"
)

// mkRun is a run as the server records it: a header and (here, no)
// spans.
func mkRun(id string, totalMS float64, failed bool) (*obs.RunTrace, []obs.Span) {
	t := obs.NewRunHeader(id, "run", 0)
	t.TotalMS = totalMS
	if failed {
		t.SetError(obs.RunTraceError{Device: 0, Cause: "injected"})
	}
	return t, nil
}

// TestFlightRecorderEviction drives the ring far past wraparound and
// asserts the policy: the slowest runs and the failed run survive in
// the kept set, fast ordinary runs from early traffic are gone, and
// every ring overwrite is eviction-counted.
func TestFlightRecorderEviction(t *testing.T) {
	fr := newFlightRecorder(4, 2)
	before := svTraceEvictions.Value()

	// Two keep-worthy runs up front: a very slow run and a failure.
	fr.record(mkRun("r-slow", 5000, false))
	fr.record(mkRun("r-failed", 10, true))
	// Then enough fast runs to wrap the ring several times over.
	for i := 0; i < 20; i++ {
		fr.record(mkRun(fmt.Sprintf("r-fast-%02d", i), 1+float64(i)/100, false))
	}

	if got := fr.get("r-slow"); got == nil {
		t.Error("slowest run did not survive ring wraparound")
	}
	if got := fr.get("r-failed"); got == nil {
		t.Error("failed run did not survive ring wraparound")
	}
	if got := fr.get("r-fast-00"); got != nil {
		t.Error("early fast run should have been evicted")
	}
	// The last 4 fast runs still sit in the ring.
	for i := 16; i < 20; i++ {
		id := fmt.Sprintf("r-fast-%02d", i)
		if fr.get(id) == nil {
			t.Errorf("%s should still be in the ring", id)
		}
	}

	// 22 records into a size-4 ring force 18 overwrites; 2 victims moved
	// to the kept set without evicting anyone, but every later overwrite
	// evicted something (the victim or a displaced keeper).
	evicted := svTraceEvictions.Value() - before
	if evicted != 16 {
		t.Errorf("eviction counter moved by %v, want 16", evicted)
	}

	list := fr.list()
	if len(list) != 6 {
		t.Fatalf("list has %d entries, want 6 (ring 4 + kept 2)", len(list))
	}
	// Newest first: the most recent record leads.
	if list[0].ID != "r-fast-19" {
		t.Errorf("list is not newest-first: leads with %s", list[0].ID)
	}
	keptCount := 0
	for _, s := range list {
		if s.Kept {
			keptCount++
			if s.ID != "r-slow" && s.ID != "r-failed" {
				t.Errorf("unexpected kept entry %s", s.ID)
			}
		}
	}
	if keptCount != 2 {
		t.Errorf("kept %d entries, want 2", keptCount)
	}
}

// TestFlightRecorderFailedOutranksSlow pins the keep ranking: when the
// kept set is full of slow successes, a failed run still displaces one.
func TestFlightRecorderFailedOutranksSlow(t *testing.T) {
	fr := newFlightRecorder(2, 1)
	fr.record(mkRun("r-slow", 9999, false))
	fr.record(mkRun("r-a", 1, false))
	fr.record(mkRun("r-b", 1, false)) // wraps: r-slow retires into the kept slot
	if fr.get("r-slow") == nil {
		t.Fatal("slow run should hold the keep slot")
	}
	fr.record(mkRun("r-failed", 1, true))
	fr.record(mkRun("r-c", 1, false))
	fr.record(mkRun("r-d", 1, false)) // wraps twice: r-failed retires, displacing r-slow
	if fr.get("r-failed") == nil {
		t.Error("failed run should displace the slow success from the keep slot")
	}
	if fr.get("r-slow") != nil {
		t.Error("slow success should have been displaced by the failure")
	}
}

// TestFlightRecorderConcurrent hammers record/list/get from many
// goroutines; run under -race this is the data-race witness for the
// daemon's read-while-record traffic.
func TestFlightRecorderConcurrent(t *testing.T) {
	fr := newFlightRecorder(8, 2)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				fr.record(mkRun(fmt.Sprintf("r-%d-%03d", w, i), float64(i), i%7 == 0))
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				for _, s := range fr.list() {
					if tr := fr.get(s.ID); tr != nil && tr.ID != s.ID {
						t.Errorf("get(%s) returned trace %s", s.ID, tr.ID)
						return
					}
				}
			}
		}(r)
	}
	wg.Wait()
	if len(fr.list()) == 0 {
		t.Error("recorder empty after concurrent traffic")
	}
}

// TestFlightRecorderRecyclesSlabs: the recorder hands every span slab it
// evicts back to the runtime, whose next traced run records into it.
// Four goroutines run a small program traced and record each run under
// its own ID — its spans renamed after it — into a ring of four, far
// past wraparound, while two more GET the newest runs. A GET must see
// only its own run's spans, never a slab another run is writing into
// after the recorder gave it back; under -race, a read outside the
// recorder's lock is a reported race as well.
func TestFlightRecorderRecyclesSlabs(t *testing.T) {
	const n, writers, runs = 4, 4, 50
	c := hlo.NewComputation("slabs")
	p := c.Parameter(0, "p", []int{2, 2})
	pairs := make([]hlo.SourceTargetPair, n)
	for d := range pairs {
		pairs[d] = hlo.SourceTargetPair{Source: d, Target: (d + 1) % n}
	}
	c.Add(c.CollectivePermuteDone(c.CollectivePermuteStart(p, pairs)), p)
	x, err := runtime.Compile(c, n, machine.Spec{})
	if err != nil {
		t.Fatal(err)
	}
	args := [][]*tensor.Tensor{{tensor.New(2, 2)}}
	fr := newFlightRecorder(4, 1)

	var (
		mu    sync.Mutex
		ids   []string
		slabs = map[*obs.Span]int{} // how many runs recorded into each slab
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < runs; i++ {
				res, err := x.Run(context.Background(), args, runtime.Options{Trace: true})
				if err != nil {
					t.Error(err)
					return
				}
				res.Release()
				id := fmt.Sprintf("r-%d-%03d", w, i)
				for k := range res.Trace {
					res.Trace[k].Name = id
				}
				mu.Lock()
				slabs[&res.Trace[:1][0]]++
				ids = append(ids, id)
				mu.Unlock()
				fr.record(obs.NewRunHeader(id, "run", obs.OverlapEfficiency(res.Trace)), res.Trace)
			}
		}(w)
	}
	done := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				mu.Lock()
				recent := ids[max(0, len(ids)-6):]
				mu.Unlock()
				for _, id := range recent {
					tr := fr.get(id)
					if tr == nil {
						continue
					}
					for _, s := range tr.Spans {
						if s.Name != id {
							t.Errorf("GET %s read a span of %s", id, s.Name)
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	close(done)
	readers.Wait()
	reused := 0
	for _, runs := range slabs {
		reused += runs - 1
	}
	if reused == 0 {
		t.Errorf("%d traced runs never recorded into a slab the recorder had evicted", writers*runs)
	}
}
