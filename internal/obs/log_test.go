package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"testing"
)

// TestDefaultLoggerIsDisabled: until a sink is installed no level is
// enabled, so a guarded call site builds nothing; SetLogOutput turns
// JSON lines on, and io.Discard turns them off again.
func TestDefaultLoggerIsDisabled(t *testing.T) {
	ctx := context.Background()
	if Log().Enabled(ctx, slog.LevelError) {
		t.Fatal("the default logger enables the error level")
	}
	var buf bytes.Buffer
	SetLogOutput(&buf)
	defer SetLogOutput(io.Discard)
	if !Log().Enabled(ctx, slog.LevelInfo) {
		t.Fatal("a logger with a sink does not enable the info level")
	}
	Log().Info("train.step", "run_id", "r1.s0", "step", 0)
	var line map[string]any
	if err := json.Unmarshal(buf.Bytes(), &line); err != nil || line["run_id"] != "r1.s0" || line["msg"] != "train.step" {
		t.Fatalf("logged %q (%v), want one JSON line for run r1.s0", buf.String(), err)
	}
	SetLogOutput(io.Discard)
	if Log().Enabled(ctx, slog.LevelError) {
		t.Fatal("SetLogOutput(io.Discard) left a level enabled")
	}
	buf.Reset()
	Log().Error("dropped")
	if buf.Len() != 0 {
		t.Fatalf("a discarded logger wrote %q", buf.String())
	}
}
