package autotune

import "overlap/internal/machine"

// ResultOf returns the Result a tune under spec that decided p carries,
// so external tests can call its methods without running a search.
func ResultOf(p *Plan, spec machine.Spec) *Result { return &Result{Plan: p, spec: spec} }
