package obs

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"strings"
)

// LogConfig selects the level and encoding of a pipeline logger.
type LogConfig struct {
	Level  slog.Level
	Format string    // "text" (default) or "json"
	Output io.Writer // nil discards everything
}

// ParseLevel maps the -log-level flag values (debug, info, warn,
// error) to slog levels; unknown strings error.
func ParseLevel(s string) (slog.Level, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "debug":
		return slog.LevelDebug, nil
	case "info", "":
		return slog.LevelInfo, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return 0, fmt.Errorf("unknown log level %q (want debug|info|warn|error)", s)
}

// NewLogger builds a structured logger per cfg. With a nil Output the
// logger discards records at zero cost (the handler reports every
// level disabled), so library code can log unconditionally.
func NewLogger(cfg LogConfig) *slog.Logger {
	if cfg.Output == nil {
		return slog.New(discardHandler{})
	}
	opts := &slog.HandlerOptions{Level: cfg.Level}
	switch strings.ToLower(cfg.Format) {
	case "json":
		return slog.New(slog.NewJSONHandler(cfg.Output, opts))
	default:
		return slog.New(slog.NewTextHandler(cfg.Output, opts))
	}
}

// Component derives a per-component child logger (serve, wal, repl,
// elect, ship) carrying a component attribute on every record, so one
// grep isolates a subsystem. A nil parent yields a discard logger.
func Component(parent *slog.Logger, name string) *slog.Logger {
	if parent == nil {
		return NewLogger(LogConfig{})
	}
	return parent.With(slog.String("component", name))
}

// discardHandler drops all records. (slog.DiscardHandler exists only
// from Go 1.24; this module targets 1.22.)
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (d discardHandler) WithAttrs([]slog.Attr) slog.Handler      { return d }
func (d discardHandler) WithGroup(string) slog.Handler           { return d }
