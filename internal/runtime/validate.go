package runtime

import "overlap/internal/tensor"

// validateRun is the per-run half of the preflight: the run's options
// and arguments against the compiled program. The program's own half —
// hlo.VerifyRing — ran once, in Compile.
func (x *Executable) validateRun(args [][]*tensor.Tensor, opts Options) error {
	if opts.TimeScale > 0 && x.specErr != nil {
		return x.specErr
	}
	if _, err := ParseTransport(string(opts.Transport)); err != nil {
		return err
	}
	return x.comp.VerifyArgs(x.n, args)
}
