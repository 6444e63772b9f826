package obs

import (
	"io"
	"log/slog"
	"math"
	"sync/atomic"
)

// The process-wide structured logger. Every subsystem that executes a
// run (serve, train, autotune, the runtime's failure path) logs through
// Log() with the run's ID as a "run_id" attribute, so a single grep of
// the JSON log stream reconstructs any run's story — and correlates it
// with the flight-recorder trace of the same ID. Until a sink is
// installed records are discarded — no level is enabled, so a record is
// never built, let alone formatted — which keeps library users and
// tests silent by default; the daemon and CLIs opt in via SetLogOutput.
// A per-step or per-request call site checks Enabled before it boxes
// its attributes.
var logPtr atomic.Pointer[slog.Logger]

func init() {
	logPtr.Store(discarding())
}

// discarding returns a logger with no sink: its handler's level is
// above every level there is, so Enabled is false and no record is
// built.
func discarding() *slog.Logger {
	return slog.New(slog.NewJSONHandler(io.Discard, &slog.HandlerOptions{Level: slog.Level(math.MaxInt)}))
}

// Log returns the process-wide structured logger.
func Log() *slog.Logger { return logPtr.Load() }

// SetLogOutput directs the process-wide logger at w as JSON lines (one
// object per record, "run_id" keyed where a run is involved). Pass
// io.Discard to silence it again, which restores the default: no level
// enabled.
func SetLogOutput(w io.Writer) {
	if w == io.Discard {
		logPtr.Store(discarding())
		return
	}
	logPtr.Store(slog.New(slog.NewJSONHandler(w, nil)))
}
