//go:build race

package corpus

// RaceEnabled reports that this binary was built with the race
// detector, whose instrumentation allocates and slows every memory
// access: allocation budgets are skipped under it and the long sweeps
// take their short form.
const RaceEnabled = true
