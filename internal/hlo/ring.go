package hlo

import (
	"fmt"
	"slices"

	"overlap/internal/tensor"
)

// ParseProgram is the way program text from outside the process — a
// request body, a plan file, a file named on a command line — becomes a
// Computation: Parse, Verify and VerifyRing(numDevices) in one call, so
// no front door can forget a half. What it returns every executor
// accepts.
func ParseProgram(text string, numDevices int) (*Computation, error) {
	c, err := Parse(text)
	if err != nil {
		return nil, err
	}
	if err := c.Verify(); err != nil {
		return nil, err
	}
	if err := c.VerifyRing(numDevices); err != nil {
		return nil, err
	}
	return c, nil
}

// VerifyRing is the ring half of well-formedness, beside Verify's
// structure and shapes: whether the program can execute on an n-device
// ring without an executor indexing outside it, a rendezvous waiting
// for a device that never arrives, or a posted transfer nobody (or two
// readers) completes. Every group-collective device and every permute
// endpoint lies in [0,n); every device joins exactly one group of each
// group collective; every start is read by exactly one done, in the
// same sequence, with the same pairs; loops do not nest, and a loop
// body's parameters index the loop's operands.
//
// It is the one definition the executors share: runtime.Compile,
// sim.Interpret and sim.Simulate call it before they touch the program
// and keep no check of their own. It does not repeat Verify — a search
// that verifies per rewrite and simulates per node pays each half where
// it needs it — and allocates a bounded scratch once per call, however
// many collectives and loop bodies the program has.
func (c *Computation) VerifyRing(n int) error {
	if n <= 0 {
		return fmt.Errorf("hlo: need at least one device")
	}
	r := ringCheck{n: n}
	return r.sequence(c, false)
}

// ringCheck is one VerifyRing call's scratch.
type ringCheck struct {
	n int
	// seen marks the devices one group collective lists; reused by the
	// next. It is sized by what the program lists, never by n alone: n
	// comes from outside too.
	seen []bool
	// open holds the starts whose done has not been met yet, the
	// enclosing sequence's first. In-flight transfers are few, so a
	// scan of it is cheaper than any index.
	open []*Instruction
}

// sequence checks one instruction sequence: the program, or (inLoop) a
// loop's body.
func (r *ringCheck) sequence(c *Computation, inLoop bool) error {
	base := len(r.open)
	for _, in := range c.instrs {
		switch in.Op {
		case OpAllGather, OpReduceScatter, OpAllReduce, OpAllToAll:
			if err := r.groups(in); err != nil {
				return err
			}

		case OpCollectivePermute:
			if err := r.pairs(in); err != nil {
				return err
			}

		case OpCollectivePermuteStart:
			if err := r.pairs(in); err != nil {
				return err
			}
			done, dones := doneOf(in)
			if dones != 1 {
				return fmt.Errorf("hlo: %s has %d done users, want exactly 1", in.Name, dones)
			}
			if !slices.Equal(in.Pairs, done.Pairs) {
				return fmt.Errorf("hlo: %s and %s disagree on permute pairs", in.Name, done.Name)
			}
			r.open = append(r.open, in)

		case OpCollectivePermuteDone:
			if len(in.Operands) != 1 {
				continue // Verify's to report
			}
			at := slices.Index(r.open[base:], in.Operands[0])
			if at < 0 {
				return fmt.Errorf("hlo: %s completes in a different sequence than %s", in.Name, in.Operands[0].Name)
			}
			r.open = slices.Delete(r.open, base+at, base+at+1)

		case OpLoop:
			if inLoop {
				return fmt.Errorf("hlo: nested loop %s unsupported", in.Name)
			}
			if in.Body == nil {
				continue // Verify's to report
			}
			for _, p := range in.Body.instrs {
				if p.Op == OpParameter && (p.ParamIndex < 0 || p.ParamIndex >= len(in.Operands)) {
					return fmt.Errorf("hlo: loop %s body parameter %s index %d out of range", in.Name, p.Name, p.ParamIndex)
				}
			}
			if err := r.sequence(in.Body, true); err != nil {
				return err
			}
		}
	}
	if len(r.open) > base {
		start := r.open[base]
		done, _ := doneOf(start)
		return fmt.Errorf("hlo: %s completes in a different sequence than %s", done.Name, start.Name)
	}
	return nil
}

// doneOf returns the last done reading a start, and how many do.
func doneOf(start *Instruction) (done *Instruction, dones int) {
	for _, u := range start.users {
		if u.user.Op == OpCollectivePermuteDone {
			done = u.user
			dones++
		}
	}
	return done, dones
}

// groups checks that every device joins exactly one group of a group
// collective — otherwise its rendezvous waits forever for a device that
// never arrives. Verify has the groups disjoint; should they not be,
// the device a duplicate displaced is the one reported missing.
func (r *ringCheck) groups(in *Instruction) error {
	listed := 0
	for _, g := range in.Groups {
		for _, d := range g {
			if d < 0 || d >= r.n {
				return fmt.Errorf("hlo: %s group device %d out of range [0,%d)", in.Name, d, r.n)
			}
		}
		listed += len(g)
	}
	// Fewer devices listed than the ring has: one of the first
	// listed+1 is missing, and marking those finds it.
	m := min(r.n, listed+1)
	if cap(r.seen) < m {
		r.seen = make([]bool, m)
	}
	seen := r.seen[:m]
	clear(seen)
	for _, g := range in.Groups {
		for _, d := range g {
			if d < m {
				seen[d] = true
			}
		}
	}
	if d := slices.Index(seen, false); d >= 0 {
		return fmt.Errorf("hlo: device %d does not participate in %s", d, in.Name)
	}
	return nil
}

// pairs checks a permute's endpoints against the ring.
func (r *ringCheck) pairs(in *Instruction) error {
	for _, p := range in.Pairs {
		if p.Source < 0 || p.Source >= r.n || p.Target < 0 || p.Target >= r.n {
			return fmt.Errorf("hlo: %s pair %d->%d out of range [0,%d)", in.Name, p.Source, p.Target, r.n)
		}
	}
	return nil
}

// VerifyArgs checks one run's arguments against the program's
// parameters on n devices, the convention every executor takes them in:
// args[i] holds parameter i's value on each device, or one replicated
// tensor. A nil or mis-shaped argument must fail here, on the caller's
// goroutine, not as a nil dereference inside an executor.
func (c *Computation) VerifyArgs(n int, args [][]*tensor.Tensor) error {
	var stack [16]*Instruction // a run's check allocates nothing
	params := c.appendParameters(stack[:0])
	if len(args) != len(params) {
		return fmt.Errorf("hlo: computation %s has %d parameters, got %d arguments", c.Name, len(params), len(args))
	}
	for _, p := range params {
		if p.ParamIndex < 0 || p.ParamIndex >= len(args) {
			return fmt.Errorf("hlo: computation %s parameter %s index %d out of range", c.Name, p.Name, p.ParamIndex)
		}
		set := args[p.ParamIndex]
		if len(set) != 1 && len(set) != n {
			return fmt.Errorf("hlo: parameter %d has %d values, want 1 or %d", p.ParamIndex, len(set), n)
		}
		for d, v := range set {
			if v == nil {
				return fmt.Errorf("hlo: parameter %d value %d of %d is nil", p.ParamIndex, d, len(set))
			}
			if !v.HasShape(p.Shape) {
				return fmt.Errorf("hlo: parameter %d value shape %v, declared %v", p.ParamIndex, v.Shape(), p.Shape)
			}
		}
	}
	return nil
}
