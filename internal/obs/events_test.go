package obs

import (
	"context"
	"log/slog"
	"testing"
)

// TestNopLoggerDisabled: the no-op logger is enabled at no level, so a
// record it discards is never formatted, and a call allocates nothing.
func TestNopLoggerDisabled(t *testing.T) {
	for _, l := range []*slog.Logger{NopLogger(), OrNop(nil), NopLogger().With("k", "v").WithGroup("g")} {
		for _, level := range []slog.Level{slog.LevelDebug, slog.LevelInfo, slog.LevelWarn, slog.LevelError, slog.LevelError + 4} {
			if l.Enabled(context.Background(), level) {
				t.Fatalf("the no-op logger is enabled at %v", level)
			}
		}
	}
	l := NopLogger()
	if n := testing.AllocsPerRun(100, func() { l.Info("summary published", "flips", 360, "messages", 1) }); n != 0 {
		t.Fatalf("a discarded Info allocated %v times, want 0", n)
	}
}
