package runtime

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"overlap/internal/sim"
)

// Phase names where in the execution pipeline a device was (or failed)
// when a run ended: evaluating a local instruction, posting a transfer
// onto its link, waiting for a transfer to arrive, or blocked in a
// blocking-collective rendezvous.
type Phase string

const (
	PhaseCompute    Phase = "compute"
	PhasePost       Phase = "post"
	PhaseReceive    Phase = "receive"
	PhaseRendezvous Phase = "rendezvous"
	// PhaseTransport marks failures of the transport layer itself —
	// spawning worker processes, the socket data plane — rather than of
	// any one device's pipeline position.
	PhaseTransport Phase = "transport"
)

// RunError is the structured failure every aborted run surfaces: which
// device the failure is attributed to (-1 when no single device is),
// the instruction it was executing, the pipeline phase, how much
// wall-clock had elapsed since the run was called, and — when fault
// injection caused it — the
// injected fault in ParseFaults syntax. The underlying cause unwraps,
// so errors.Is(err, context.DeadlineExceeded) works on deadline aborts.
type RunError struct {
	Device  int
	Instr   string
	Phase   Phase
	Elapsed time.Duration
	Fault   string
	Err     error

	// RunID is the failed execution's run identity, stamped by the
	// engine when the run aborts so the failure correlates with the
	// run's trace and structured logs.
	RunID string
}

func (e *RunError) Error() string {
	var b strings.Builder
	b.WriteString("runtime: run failed")
	if e.Device >= 0 {
		fmt.Fprintf(&b, ": device %d", e.Device)
	}
	if e.Instr != "" {
		fmt.Fprintf(&b, ": %s", e.Instr)
	}
	if e.Phase != "" {
		fmt.Fprintf(&b, " (phase %s)", e.Phase)
	}
	fmt.Fprintf(&b, ": %v", e.Err)
	if e.Elapsed > 0 {
		fmt.Fprintf(&b, " [elapsed %s]", e.Elapsed.Round(time.Microsecond))
	}
	if e.Fault != "" {
		fmt.Fprintf(&b, " [injected: %s]", e.Fault)
	}
	if e.RunID != "" {
		fmt.Fprintf(&b, " [run %s]", e.RunID)
	}
	return b.String()
}

func (e *RunError) Unwrap() error { return e.Err }

// MarshalJSON renders the structured failure for machine consumers —
// the serving daemon's 5xx bodies and the exported chaos artifacts —
// keeping every attribution field (device, instruction, phase, injected
// fault) individually addressable instead of smeared into one string.
func (e *RunError) MarshalJSON() ([]byte, error) {
	cause := ""
	if e.Err != nil {
		cause = e.Err.Error()
	}
	return json.Marshal(struct {
		Device    int     `json:"device"`
		Instr     string  `json:"instruction,omitempty"`
		Phase     Phase   `json:"phase,omitempty"`
		ElapsedMS float64 `json:"elapsed_ms,omitempty"`
		Fault     string  `json:"fault,omitempty"`
		Cause     string  `json:"cause"`
		RunID     string  `json:"run_id,omitempty"`
	}{e.Device, e.Instr, e.Phase, float64(e.Elapsed) / float64(time.Millisecond), e.Fault, cause, e.RunID})
}

// Sentinel causes for injected faults, exposed so tests can assert on
// the failure class independent of message wording.
var (
	ErrInjectedCrash     = errors.New("injected device crash")
	ErrDuplicateDelivery = errors.New("duplicate transfer delivery")
	// ErrWorkerExit marks a process-transport worker that died (or whose
	// socket broke) while the run was still live.
	ErrWorkerExit = errors.New("transport worker exited for device")
)

// FaultKind classifies one injected fault.
type FaultKind string

const (
	// FaultDelay lengthens a link's wire in the replay by extra time
	// (plus seeded jitter) on matching transfers: the transfer arrives
	// that much later and every transfer behind it on the link with it.
	// It holds no goroutine, so it slows a run's step, never its wall
	// time.
	FaultDelay FaultKind = "delay"
	// FaultDrop loses a link's k-th delivery on the wire.
	FaultDrop FaultKind = "drop"
	// FaultDuplicate delivers a link's k-th parcel twice; the fabric
	// detects the at-most-once violation and fails the run.
	FaultDuplicate FaultKind = "dup"
	// FaultCrash kills a device at its k-th executed instruction.
	FaultCrash FaultKind = "crash"
)

// Fault is one injected failure. Link faults (delay/drop/dup) address a
// directed (Src,Dst) edge and the K-th parcel traversing it (K == -1
// means every parcel, allowed for delay only). Crash faults address a
// device and the K-th instruction it executes (loop-body instructions
// count once per iteration).
type Fault struct {
	Kind     FaultKind
	Src, Dst int
	Device   int
	K        int
	Delay    time.Duration
	Jitter   time.Duration
}

// String renders the fault in the syntax ParseFaults accepts.
func (f Fault) String() string {
	switch f.Kind {
	case FaultCrash:
		return fmt.Sprintf("crash:dev:%d:%d", f.Device, f.K)
	case FaultDelay:
		s := fmt.Sprintf("delay:link:%d-%d:%s", f.Src, f.Dst, f.Delay)
		if f.Jitter > 0 {
			s += ":" + f.Jitter.String()
		}
		if f.K >= 0 {
			s = fmt.Sprintf("%s@%d", s, f.K)
		}
		return s
	default:
		return fmt.Sprintf("%s:link:%d-%d:%d", f.Kind, f.Src, f.Dst, f.K)
	}
}

// FaultPlan is a deterministic, seeded set of faults to inject into one
// run: the same plan against the same program always fires the same
// faults at the same logical points (per-link delivery order and
// per-device instruction order are both program-determined), and Seed
// fixes the jitter stream of every delay fault.
type FaultPlan struct {
	Seed   int64
	Faults []Fault
}

func (p *FaultPlan) String() string {
	if p == nil || len(p.Faults) == 0 {
		return "none"
	}
	parts := make([]string, len(p.Faults))
	for i, f := range p.Faults {
		parts[i] = f.String()
	}
	return strings.Join(parts, ",")
}

// Validate rejects a plan that addresses a device or an edge outside an
// n-device ring, or names an impossible index or delay. Run calls it on
// every plan; a caller that can judge a plan before a run (the daemon,
// before it acquires a plan) calls it too.
func (p *FaultPlan) Validate(n int) error {
	if p == nil {
		return nil
	}
	for _, f := range p.Faults {
		switch f.Kind {
		case FaultCrash:
			if f.Device < 0 || f.Device >= n {
				return formatErr("fault %s: device out of range [0,%d)", f, n)
			}
			if f.K < 0 {
				return formatErr("fault %s: instruction index must be >= 0", f)
			}
		case FaultDelay, FaultDrop, FaultDuplicate:
			if f.Src < 0 || f.Src >= n || f.Dst < 0 || f.Dst >= n {
				return formatErr("fault %s: link endpoint out of range [0,%d)", f, n)
			}
			if f.Kind != FaultDelay && f.K < 0 {
				return formatErr("fault %s: delivery index must be >= 0", f)
			}
			if f.Kind == FaultDelay && f.Delay <= 0 {
				return formatErr("fault %s: delay must be positive", f)
			}
		default:
			return formatErr("fault %s: unknown kind %q", f, f.Kind)
		}
	}
	return nil
}

// ParseFaults parses a comma-separated fault list:
//
//	crash:dev:D[:K]           crash device D at its K-th instruction (default 0)
//	drop:link:S-D[:K]         drop the K-th delivery on edge S->D (default 0)
//	dup:link:S-D[:K]          duplicate the K-th delivery on edge S->D (default 0)
//	delay:link:S-D:DUR[:JIT][@K]
//	                          delay every delivery on S->D — or only the
//	                          K-th — by DUR plus seeded jitter uniform in
//	                          [0,JIT)
//
// An empty spec returns a nil plan (no injection). Fault.String prints
// every fault back in this grammar.
func ParseFaults(spec string) (*FaultPlan, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	plan := &FaultPlan{}
	for _, one := range strings.Split(spec, ",") {
		f, err := parseFault(strings.TrimSpace(one))
		if err != nil {
			return nil, err
		}
		plan.Faults = append(plan.Faults, f)
	}
	return plan, nil
}

func parseFault(s string) (Fault, error) {
	parts := strings.Split(s, ":")
	bad := func(why string) (Fault, error) {
		return Fault{}, formatErr("fault %q: %s", s, why)
	}
	if len(parts) < 3 {
		return bad("want kind:scope:target, e.g. drop:link:0-1")
	}
	kind := FaultKind(parts[0])
	switch kind {
	case FaultCrash:
		if parts[1] != "dev" {
			return bad("crash faults address a device: crash:dev:D[:K]")
		}
		dev, err := strconv.Atoi(parts[2])
		if err != nil {
			return bad("device must be an integer")
		}
		k := 0
		if len(parts) > 3 {
			if k, err = strconv.Atoi(parts[3]); err != nil {
				return bad("instruction index must be an integer")
			}
		}
		if len(parts) > 4 {
			return bad("too many fields")
		}
		return Fault{Kind: kind, Device: dev, K: k}, nil

	case FaultDrop, FaultDuplicate, FaultDelay:
		if parts[1] != "link" {
			return bad("link faults address an edge: " + string(kind) + ":link:S-D")
		}
		src, dst, err := parseEdge(parts[2])
		if err != nil {
			return bad(err.Error())
		}
		f := Fault{Kind: kind, Src: src, Dst: dst, K: 0}
		rest := parts[3:]
		if kind == FaultDelay {
			f.K = -1 // every delivery
			if len(rest) == 0 {
				return bad("delay faults need a duration: delay:link:S-D:DUR[:JIT][@K]")
			}
			if last, k, one := strings.Cut(rest[len(rest)-1], "@"); one {
				if f.K, err = strconv.Atoi(k); err != nil || f.K < 0 {
					return bad("delivery index must be an integer >= 0")
				}
				rest[len(rest)-1] = last
			}
			if f.Delay, err = time.ParseDuration(rest[0]); err != nil {
				return bad("bad duration " + strconv.Quote(rest[0]))
			}
			if len(rest) > 1 {
				if f.Jitter, err = time.ParseDuration(rest[1]); err != nil || f.Jitter < 0 {
					return bad("bad jitter " + strconv.Quote(rest[1]))
				}
			}
			if len(rest) > 2 {
				return bad("too many fields")
			}
			return f, nil
		}
		if len(rest) > 0 {
			if f.K, err = strconv.Atoi(rest[0]); err != nil {
				return bad("delivery index must be an integer")
			}
		}
		if len(rest) > 1 {
			return bad("too many fields")
		}
		return f, nil
	}
	return bad("unknown kind (want crash, drop, dup, or delay)")
}

func parseEdge(s string) (src, dst int, err error) {
	a, b, ok := strings.Cut(s, "-")
	if !ok {
		return 0, 0, fmt.Errorf("edge must be S-D")
	}
	if src, err = strconv.Atoi(a); err != nil {
		return 0, 0, fmt.Errorf("edge source must be an integer")
	}
	if dst, err = strconv.Atoi(b); err != nil {
		return 0, 0, fmt.Errorf("edge target must be an integer")
	}
	return src, dst, nil
}

// injector is a run's fault plan compiled against its schedule: each
// link's fault state, by link index, and each device's crash points.
// A link fault on an edge no transfer takes is left out: nothing would
// ever fire it. drop is the first drop that fired, what a deadline
// abort is attributed to.
type injector struct {
	links   []linkFaults
	crashAt [][]Fault
	drop    atomic.Pointer[firedFault]
}

// linkFaults is one link's injection state: the faults addressing it,
// in plan order; how many deliveries its one sender has served, during
// the run; how many transfers the replay has priced, after it; and the
// seeded jitter stream of its delays. Transfers on one link are
// program-ordered, so all of it is deterministic.
type linkFaults struct {
	faults       []Fault
	sent, priced int
	rng          *rand.Rand
}

// firedFault is a fault that fired, with the instruction it hit.
type firedFault struct {
	fault Fault
	instr string
}

// newInjector compiles plan, which Validate accepted for an n-device
// ring, against that ring's schedule s.
func newInjector(plan *FaultPlan, s *sim.Schedule, n int) *injector {
	inj := &injector{links: make([]linkFaults, len(s.Edges)), crashAt: make([][]Fault, n)}
	for _, f := range plan.Faults {
		if f.Kind == FaultCrash {
			inj.crashAt[f.Device] = append(inj.crashAt[f.Device], f)
			continue
		}
		link, ok := s.Link(f.Src, f.Dst)
		if !ok {
			continue
		}
		lf := &inj.links[link]
		if lf.rng == nil {
			// Seed the jitter stream per edge so concurrency between
			// links cannot perturb it.
			lf.rng = rand.New(rand.NewSource(plan.Seed ^ (int64(f.Src)<<32 | int64(f.Dst))))
		}
		lf.faults = append(lf.faults, f)
	}
	return inj
}

// at returns the fault of kind that addresses the link's k-th delivery.
func (lf *linkFaults) at(kind FaultKind, k int) (*Fault, bool) {
	for i := range lf.faults {
		if f := &lf.faults[i]; f.Kind == kind && f.K == k {
			return f, true
		}
	}
	return nil, false
}

// delay is the wire, in seconds, the plan adds to the next transfer on
// the link: the length of every delay fault addressing it, plus each
// one's jitter, drawn from the link's seeded stream. The timing pass
// asks for each link's transfers in order, once each; a nil injector
// adds nothing.
func (inj *injector) delay(link int) float64 {
	if inj == nil {
		return 0
	}
	lf := &inj.links[link]
	k := lf.priced
	lf.priced++
	var extra time.Duration
	for _, flt := range lf.faults {
		if flt.Kind != FaultDelay || flt.K >= 0 && flt.K != k {
			continue
		}
		extra += flt.Delay
		if flt.Jitter > 0 {
			extra += time.Duration(lf.rng.Float64() * float64(flt.Jitter))
		}
		rtFaultInjections.Inc()
		rtFaultDelays.Inc()
	}
	return extra.Seconds()
}

// crash reports whether device dev should crash at instruction index k.
func (inj *injector) crash(dev, k int) (Fault, bool) {
	for _, f := range inj.crashAt[dev] {
		if f.K == k {
			return f, true
		}
	}
	return Fault{}, false
}
