package obs

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"os"
	"strings"
)

// Structured logging is the standard library's log/slog. init installs a
// JSON handler on stderr as the process default, at info level, one line
// per record:
//
//	{"time":"2026-08-08T12:00:00.000Z","level":"INFO","msg":"serve: listening on","addr":":8080"}
//
// SetLevel moves the threshold (-log-level), and every ERROR record is
// counted into kset_obs_log_errors_total. Components take a *slog.Logger
// and default to slog.Default().

var logLevel slog.LevelVar

var errorLines = DefaultRegistry().Counter("kset_obs_log_errors_total",
	"ERROR-level structured log lines emitted")

// countingHandler counts ERROR records before passing them on.
type countingHandler struct{ slog.Handler }

func (h countingHandler) Handle(ctx context.Context, r slog.Record) error {
	if r.Level >= slog.LevelError {
		errorLines.Inc()
	}
	return h.Handler.Handle(ctx, r)
}

func (h countingHandler) WithAttrs(attrs []slog.Attr) slog.Handler {
	return countingHandler{h.Handler.WithAttrs(attrs)}
}

func (h countingHandler) WithGroup(name string) slog.Handler {
	return countingHandler{h.Handler.WithGroup(name)}
}

// newLogHandler is the process log handler writing to w: JSON lines at or
// above the SetLevel threshold, ERROR records counted.
func newLogHandler(w io.Writer) slog.Handler {
	return countingHandler{slog.NewJSONHandler(w, &slog.HandlerOptions{Level: &logLevel})}
}

func init() { slog.SetDefault(slog.New(newLogHandler(os.Stderr))) }

// ParseLevel parses "debug" | "info" | "warn" (or "warning") | "error",
// case insensitive.
func ParseLevel(s string) (slog.Level, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "debug":
		return slog.LevelDebug, nil
	case "info":
		return slog.LevelInfo, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return slog.LevelInfo, fmt.Errorf("obs: unknown log level %q (want debug|info|warn|error)", s)
}

// SetLevel sets the default logger's minimum level (-log-level).
func SetLevel(level slog.Level) { logLevel.Set(level) }
