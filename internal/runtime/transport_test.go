package runtime_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	goruntime "runtime"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"overlap/internal/hlo"
	"overlap/internal/machine"
	"overlap/internal/runtime"
	"overlap/internal/runtime/wire"
	"overlap/internal/sim"
	"overlap/internal/tensor"
)

// TestMain lets this test binary serve as its own transport worker: a
// TransportProc run re-executes os.Executable(), which during `go test`
// is the test binary itself. MaybeWorker never returns in a worker
// process and is free otherwise.
func TestMain(m *testing.M) {
	runtime.MaybeWorker()
	os.Exit(m.Run())
}

// transports lists the fabric implementations every conformance case
// runs under.
var transports = []runtime.TransportKind{runtime.TransportChan, runtime.TransportProc}

// TestTransportConformanceGolden is the shared-suite half of the
// transport contract: for every golden decomposition case and pipeline
// variant, both transports must produce results bit-identical to the
// lockstep interpreter — and therefore to each other. Only the movement
// layer differs between them; any divergence is a transport bug by
// construction.
func TestTransportConformanceGolden(t *testing.T) {
	const n = 4
	vars := variants()
	if testing.Short() {
		vars = vars[:3]
	}
	for _, v := range vars {
		rng := rand.New(rand.NewSource(7))
		for _, site := range goldenSites(n, rng) {
			transformed := site.build()
			if err := v.apply(transformed); err != nil {
				t.Fatalf("%s/%s apply: %v", site.name, v.name, err)
			}
			want, err := sim.Interpret(transformed, site.n, site.args)
			if err != nil {
				t.Fatalf("%s/%s interpret: %v", site.name, v.name, err)
			}
			got := map[runtime.TransportKind][]*tensor.Tensor{}
			for _, tr := range transports {
				tr := tr
				t.Run(fmt.Sprintf("%s/%s/%s", site.name, v.name, tr), func(t *testing.T) {
					res, err := runtime.Run(transformed, site.n, site.args, runtime.Options{Transport: tr})
					if err != nil {
						t.Fatalf("runtime run: %v", err)
					}
					for d := 0; d < site.n; d++ {
						if !res.Values[d].Equal(want[d]) {
							t.Fatalf("device %d: transport %s diverges bitwise from interpreter by %v",
								d, tr, res.Values[d].MaxDifference(want[d]))
						}
					}
					got[tr] = res.Values
				})
			}
			if a, b := got[runtime.TransportChan], got[runtime.TransportProc]; a != nil && b != nil {
				for d := range a {
					if !a[d].Equal(b[d]) {
						t.Fatalf("%s/%s device %d: chan and proc transports disagree bitwise", site.name, v.name, d)
					}
				}
			}
		}
	}
}

// faultSite builds one decomposed golden site and extracts its directed
// fabric edges, for fault scenarios that must address a real link.
func faultSite(t *testing.T) (siteCase, [][2]int) {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	site := goldenSites(4, rng)[0]
	c := site.build()
	if err := variants()[2].apply(c); err != nil { // decomposed
		t.Fatalf("apply: %v", err)
	}
	edges := asyncEdges(c)
	if len(edges) == 0 {
		t.Fatal("decomposed site has no fabric edges")
	}
	site.build = func() *hlo.Computation { return c }
	return site, edges
}

// asyncEdges lists the directed fabric edges c's starts post on, in
// program order.
func asyncEdges(c *hlo.Computation) [][2]int {
	var edges [][2]int
	seen := map[[2]int]bool{}
	c.Walk(func(in *hlo.Instruction) {
		if in.Op != hlo.OpCollectivePermuteStart {
			return
		}
		for _, p := range in.Pairs {
			e := [2]int{p.Source, p.Target}
			if !seen[e] {
				seen[e] = true
				edges = append(edges, e)
			}
		}
	})
	return edges
}

// TestTransportConformanceFaults pins identical failure semantics
// across transports: the same seeded fault plan must surface the same
// *RunError attribution — device, instruction, phase, fault string, and
// sentinel class — whether the fault acted on a Go channel or on a real
// socket.
func TestTransportConformanceFaults(t *testing.T) {
	site, edges := faultSite(t)
	comp := site.build()
	edge := edges[0]

	cases := []struct {
		name     string
		fault    runtime.Fault
		deadline time.Duration
		sentinel error
	}{
		{
			name:     "drop-stalls",
			fault:    runtime.Fault{Kind: runtime.FaultDrop, Src: edge[0], Dst: edge[1], K: 0},
			deadline: 200 * time.Millisecond,
			sentinel: context.DeadlineExceeded,
		},
		{
			name:     "dup-detected",
			fault:    runtime.Fault{Kind: runtime.FaultDuplicate, Src: edge[0], Dst: edge[1], K: 0},
			deadline: 10 * time.Second,
			sentinel: runtime.ErrDuplicateDelivery,
		},
		{
			name:     "crash-attributed",
			fault:    runtime.Fault{Kind: runtime.FaultCrash, Device: 1, K: 2},
			deadline: 10 * time.Second,
			sentinel: runtime.ErrInjectedCrash,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := map[runtime.TransportKind]*runtime.RunError{}
			for _, tr := range transports {
				plan := &runtime.FaultPlan{Seed: 3, Faults: []runtime.Fault{tc.fault}}
				ctx, cancel := context.WithTimeout(context.Background(), tc.deadline)
				_, err := runtime.RunContext(ctx, comp, site.n, site.args, runtime.Options{Faults: plan, Transport: tr})
				cancel()
				if err == nil {
					t.Fatalf("%s: injected %s but the run succeeded", tr, tc.fault)
				}
				if !errors.Is(err, tc.sentinel) {
					t.Fatalf("%s: error %v does not unwrap to %v", tr, err, tc.sentinel)
				}
				var re *runtime.RunError
				if !errors.As(err, &re) {
					t.Fatalf("%s: error %v is not a *RunError", tr, err)
				}
				got[tr] = re
			}
			a, b := got[runtime.TransportChan], got[runtime.TransportProc]
			if a.Device != b.Device || a.Instr != b.Instr || a.Phase != b.Phase || a.Fault != b.Fault {
				t.Fatalf("transports attribute the same fault differently:\n  chan: device=%d instr=%q phase=%s fault=%q\n  proc: device=%d instr=%q phase=%s fault=%q",
					a.Device, a.Instr, a.Phase, a.Fault, b.Device, b.Instr, b.Phase, b.Fault)
			}
		})
	}
}

// workerProcs scans /proc for live transport-worker children of this
// process (identified by the worker environment variable).
func workerProcs(t *testing.T) []int {
	t.Helper()
	self := os.Getpid()
	entries, err := os.ReadDir("/proc")
	if err != nil {
		t.Skipf("no /proc: %v", err)
	}
	var pids []int
	for _, ent := range entries {
		pid, err := strconv.Atoi(ent.Name())
		if err != nil {
			continue
		}
		stat, err := os.ReadFile(filepath.Join("/proc", ent.Name(), "stat"))
		if err != nil {
			continue
		}
		// Field 4 of /proc/pid/stat (after the parenthesized comm) is the ppid.
		rest := string(stat)
		if i := strings.LastIndexByte(rest, ')'); i >= 0 {
			rest = rest[i+2:]
		}
		fields := strings.Fields(rest)
		if len(fields) < 2 || fields[1] != strconv.Itoa(self) {
			continue
		}
		env, err := os.ReadFile(filepath.Join("/proc", ent.Name(), "environ"))
		if err != nil {
			continue
		}
		if strings.Contains(string(env), "OVERLAP_PROC_WORKER=") {
			pids = append(pids, pid)
		}
	}
	return pids
}

// TestTransportProcCleanShutdown pins the no-leak half of the proc
// contract: after a successful run and after an aborted one, every
// worker process is reaped and the goroutine count returns to baseline.
func TestTransportProcCleanShutdown(t *testing.T) {
	site, edges := faultSite(t)
	comp := site.build()
	baseline := goruntime.NumGoroutine()

	// Successful run.
	if _, err := runtime.Run(comp, site.n, site.args, runtime.Options{Transport: runtime.TransportProc}); err != nil {
		t.Fatalf("clean run: %v", err)
	}
	if pids := workerProcs(t); len(pids) != 0 {
		t.Fatalf("worker processes leaked after a clean run: %v", pids)
	}

	// Aborted run: a dropped delivery stalls the receiver until the
	// context deadline fires mid-flight.
	plan := &runtime.FaultPlan{Seed: 5, Faults: []runtime.Fault{
		{Kind: runtime.FaultDrop, Src: edges[0][0], Dst: edges[0][1], K: 0},
	}}
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	_, err := runtime.RunContext(ctx, comp, site.n, site.args, runtime.Options{Faults: plan, Transport: runtime.TransportProc})
	if err == nil {
		t.Fatal("dropped delivery did not fail the run")
	}
	var re *runtime.RunError
	if !errors.As(err, &re) {
		t.Fatalf("abort error %v is not a *RunError", err)
	}
	if pids := workerProcs(t); len(pids) != 0 {
		t.Fatalf("worker processes leaked after an aborted run: %v", pids)
	}

	deadline := time.Now().Add(5 * time.Second)
	for goruntime.NumGoroutine() > baseline+3 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d at start, %d after runs", baseline, goruntime.NumGoroutine())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestTransportProcWorkerSIGTERM pins worker-death detection: killing a
// worker process mid-run must fail the run promptly with a structured
// ErrWorkerExit attributing the dead device — never hang, never return
// a wrong answer — and the survivors must still be reaped.
func TestTransportProcWorkerSIGTERM(t *testing.T) {
	site, edges := faultSite(t)
	comp := site.build()
	// A transfer dropped on the wire keeps the run waiting (and its
	// workers needed) while the signal lands.
	plan := &runtime.FaultPlan{Seed: 9, Faults: []runtime.Fault{
		{Kind: runtime.FaultDrop, Src: edges[0][0], Dst: edges[0][1], K: 0},
	}}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	errCh := make(chan error, 1)
	go func() {
		_, err := runtime.RunContext(ctx, comp, site.n, site.args, runtime.Options{Faults: plan, Transport: runtime.TransportProc})
		errCh <- err
	}()

	// Wait for workers to appear, then SIGTERM one.
	var victim int
	for deadline := time.Now().Add(10 * time.Second); ; {
		if pids := workerProcs(t); len(pids) > 0 {
			victim = pids[0]
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no worker processes appeared")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := syscall.Kill(victim, syscall.SIGTERM); err != nil {
		t.Fatalf("kill worker %d: %v", victim, err)
	}

	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("run succeeded despite a killed worker")
		}
		if !errors.Is(err, runtime.ErrWorkerExit) {
			t.Fatalf("error %v does not unwrap to ErrWorkerExit", err)
		}
		var re *runtime.RunError
		if !errors.As(err, &re) {
			t.Fatalf("error %v is not a *RunError", err)
		}
		if re.Device < 0 {
			t.Fatalf("worker exit not attributed to a device: %v", re)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("run did not fail after its worker was killed")
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if pids := workerProcs(t); len(pids) == 0 {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("worker processes leaked after worker death: %v", pids)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestMalformedFramesFailTheRun: a frame coming up from a worker
// process that no schedule can have sent ends the run in one *RunError
// at phase receive and leaves no worker process or goroutine behind.
// Dims whose product overflows into agreement with an empty payload are
// refused by the source worker's decoder, and the worker exits; an
// instance past what its edge carries, and a shape other than the start
// operand's of the same element count, are refused by the parent
// before any mailbox holds them.
func TestMalformedFramesFailTheRun(t *testing.T) {
	c := hlo.NewComputation("one-link")
	a := c.Parameter(0, "a", []int{2, 2})
	c.CollectivePermuteDone(c.CollectivePermuteStart(a, []hlo.SourceTargetPair{{Source: 0, Target: 1}}))
	x, err := runtime.Compile(c, 2, machine.Spec{})
	if err != nil {
		t.Fatal(err)
	}
	args := [][]*tensor.Tensor{{tensor.Rand(rand.New(rand.NewSource(3)), 2, 2)}}
	baseline := goruntime.NumGoroutine()
	for _, tc := range []struct {
		name   string
		edit   func(*wire.Frame)
		device int
		cause  error
	}{
		{"dims overflow", func(f *wire.Frame) { f.Shape, f.Data = []int{65536, 65536, 65536, 65536}, nil }, 0, runtime.ErrWorkerExit},
		{"instance past its edge", func(f *wire.Frame) { f.Inst = math.MaxUint32 }, 1, nil},
		{"shape not the operand's", func(f *wire.Frame) { f.Shape = []int{4, 1} }, 1, nil},
	} {
		restore := runtime.EditFrames(tc.edit)
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		_, err := x.Run(ctx, args, runtime.Options{Transport: runtime.TransportProc})
		cancel()
		restore()
		var re *runtime.RunError
		if !errors.As(err, &re) || errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("%s: error %v, want a *RunError before the deadline", tc.name, err)
		}
		if re.Device != tc.device || re.Phase != runtime.PhaseReceive || (tc.cause != nil && !errors.Is(err, tc.cause)) {
			t.Errorf("%s: error %v, want device %d, phase receive, cause %v", tc.name, re, tc.device, tc.cause)
		}
		if pids := workerProcs(t); len(pids) != 0 {
			t.Fatalf("%s: worker processes leaked: %v", tc.name, pids)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for goruntime.NumGoroutine() > baseline+3 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d at start, %d after runs", baseline, goruntime.NumGoroutine())
		}
		time.Sleep(20 * time.Millisecond)
	}
}
