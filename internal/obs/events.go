package obs

import (
	"context"
	"log/slog"
)

// Structured event logging: the mesh's state transitions (peer up/down,
// summary publications, filter rebuilds) are emitted as slog events so
// operators can correlate them with the metric timelines. Components take
// a *slog.Logger in their config; these helpers supply the defaults.

// NopLogger returns a logger that discards everything — the default for
// library components whose caller did not ask for event logging, keeping
// tests and benchmarks quiet without nil checks at every call site. Its
// handler is disabled at every level, so a discarded record is never
// built: a call costs the level check alone.
func NopLogger() *slog.Logger { return slog.New(nopHandler{}) }

// OrNop returns l, or a discarding logger when l is nil.
func OrNop(l *slog.Logger) *slog.Logger {
	if l == nil {
		return NopLogger()
	}
	return l
}

// nopHandler is a slog.Handler enabled at no level (slog.DiscardHandler,
// which needs Go 1.24).
type nopHandler struct{}

func (nopHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (nopHandler) Handle(context.Context, slog.Record) error { return nil }
func (h nopHandler) WithAttrs([]slog.Attr) slog.Handler      { return h }
func (h nopHandler) WithGroup(string) slog.Handler           { return h }
