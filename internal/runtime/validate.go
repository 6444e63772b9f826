package runtime

import (
	"overlap/internal/hlo"
	"overlap/internal/tensor"
)

// validateRun is the per-run half of the preflight: the run's options
// and arguments against the compiled program. A nil or mis-shaped
// argument must fail here, on the caller's goroutine, not as a nil
// dereference on a device's.
func (x *Executable) validateRun(args [][]*tensor.Tensor, opts Options) error {
	if opts.TimeScale > 0 && x.specErr != nil {
		return x.specErr
	}
	if _, err := ParseTransport(string(opts.Transport)); err != nil {
		return err
	}
	if len(args) != len(x.params) {
		return formatErr("computation %s has %d parameters, got %d arguments", x.comp.Name, len(x.params), len(args))
	}
	for _, p := range x.params {
		set := args[p.ParamIndex]
		if len(set) != 1 && len(set) != x.n {
			return formatErr("parameter %d has %d values, want 1 or %d", p.ParamIndex, len(set), x.n)
		}
		for d, v := range set {
			if v == nil {
				return formatErr("parameter %d value %d of %d is nil", p.ParamIndex, d, len(set))
			}
			if !sameShape(v.Shape(), p.Shape) {
				return formatErr("parameter %d value shape %v, declared %v", p.ParamIndex, v.Shape(), p.Shape)
			}
		}
	}
	return nil
}

// validateSeq is the program half, run once per Executable: it
// preflights a sequence so that device goroutines cannot deadlock on a
// malformed program — every blocking collective must be joinable by all
// of its devices, every posted transfer must have exactly one reader,
// and loops must be shaped the way the interpreter expects. Programs
// produced by internal/core satisfy all of this; the checks exist so
// hand-built or fuzzed programs fail fast with an error instead of
// hanging the goroutine fleet.
func validateSeq(c *hlo.Computation, n int, inLoop bool) error {
	for _, in := range c.Instructions() {
		switch in.Op {
		case hlo.OpAllGather, hlo.OpReduceScatter, hlo.OpAllReduce, hlo.OpAllToAll:
			if err := validateGroups(in, n); err != nil {
				return err
			}

		case hlo.OpCollectivePermute:
			if err := validatePairs(in, n); err != nil {
				return err
			}

		case hlo.OpCollectivePermuteStart:
			if err := validatePairs(in, n); err != nil {
				return err
			}
			dones := 0
			var done *hlo.Instruction
			for _, u := range in.Users() {
				if u.Op == hlo.OpCollectivePermuteDone {
					dones++
					done = u
				}
			}
			if dones != 1 {
				return formatErr("%s has %d done users, want exactly 1", in.Name, dones)
			}
			if !samePairs(in.Pairs, done.Pairs) {
				return formatErr("%s and %s disagree on permute pairs", in.Name, done.Name)
			}
			if c.Find(done.Name) != done {
				return formatErr("%s completes in a different sequence than %s", done.Name, in.Name)
			}

		case hlo.OpCollectivePermuteDone:
			if len(in.Operands) != 1 || in.Operands[0].Op != hlo.OpCollectivePermuteStart {
				return formatErr("%s does not complete a collective-permute-start", in.Name)
			}

		case hlo.OpLoop:
			if inLoop {
				return formatErr("nested loop %s unsupported", in.Name)
			}
			if in.Body == nil || in.TripCount < 0 {
				return formatErr("loop %s is malformed", in.Name)
			}
			root := in.Body.Root()
			if root == nil || root.Op != hlo.OpTuple || len(root.Operands) != len(in.Operands) {
				return formatErr("loop %s body root must be a tuple of the %d carried values", in.Name, len(in.Operands))
			}
			if in.ResultIndex < 0 || in.ResultIndex >= len(in.Operands) {
				return formatErr("loop %s result index %d out of range", in.Name, in.ResultIndex)
			}
			for _, p := range in.Body.Parameters() {
				if p.ParamIndex < 0 || p.ParamIndex >= len(in.Operands) {
					return formatErr("loop %s body parameter %s index %d out of range", in.Name, p.Name, p.ParamIndex)
				}
			}
			if err := validateSeq(in.Body, n, true); err != nil {
				return err
			}
		}
	}
	return nil
}

// validateGroups checks that every device joins exactly one group of a
// blocking group collective — otherwise its rendezvous would wait
// forever for a device that never arrives.
func validateGroups(in *hlo.Instruction, n int) error {
	seen := make([]bool, n)
	for _, g := range in.Groups {
		for _, d := range g {
			if d < 0 || d >= n {
				return formatErr("%s group device %d out of range [0,%d)", in.Name, d, n)
			}
			if seen[d] {
				return formatErr("%s lists device %d in two groups", in.Name, d)
			}
			seen[d] = true
		}
	}
	for d, ok := range seen {
		if !ok {
			return formatErr("device %d does not participate in %s", d, in.Name)
		}
	}
	return nil
}

// validatePairs checks a permute's source-target pairs: devices in
// range, no source sending twice, no target receiving twice — the
// uniqueness that lets one mailbox slot per transfer instance suffice.
func validatePairs(in *hlo.Instruction, n int) error {
	srcSeen := make([]bool, n)
	dstSeen := make([]bool, n)
	for _, p := range in.Pairs {
		if p.Source < 0 || p.Source >= n || p.Target < 0 || p.Target >= n {
			return formatErr("%s pair %d->%d out of range [0,%d)", in.Name, p.Source, p.Target, n)
		}
		if srcSeen[p.Source] {
			return formatErr("%s source %d sends twice", in.Name, p.Source)
		}
		if dstSeen[p.Target] {
			return formatErr("%s target %d receives twice", in.Name, p.Target)
		}
		srcSeen[p.Source] = true
		dstSeen[p.Target] = true
	}
	return nil
}

func samePairs(a, b []hlo.SourceTargetPair) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func sameShape(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
