package runtime

import (
	"fmt"

	"overlap/internal/tensor"
)

// validateRun is the per-run half of the preflight: that the program
// is still the one compiled, and the run's options and arguments
// against it. The program's own half — hlo.VerifyRing — ran once, in
// Compile.
func (x *Executable) validateRun(args [][]*tensor.Tensor, opts Options) error {
	if gen := x.comp.Generation(); gen != x.gen {
		return fmt.Errorf("runtime: %s: %w (generation %d, compiled at %d)", x.comp.Name, ErrModified, gen, x.gen)
	}
	if opts.TimeScale > 0 && x.specErr != nil {
		return x.specErr
	}
	if _, err := ParseTransport(string(opts.Transport)); err != nil {
		return err
	}
	return x.comp.VerifyArgs(x.n, args)
}
