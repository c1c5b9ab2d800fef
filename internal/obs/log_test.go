package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"log/slog"
	"strings"
	"sync"
	"testing"
)

// jsonLines decodes buf as one JSON object per line.
func jsonLines(t *testing.T, buf *bytes.Buffer) []map[string]any {
	t.Helper()
	var lines []map[string]any
	sc := bufio.NewScanner(buf)
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("line is not JSON: %q: %v", sc.Text(), err)
		}
		lines = append(lines, m)
	}
	return lines
}

func TestLoggerLevelsAndJSON(t *testing.T) {
	if _, ok := slog.Default().Handler().(countingHandler); !ok {
		t.Fatalf("default slog handler is %T, want the obs handler", slog.Default().Handler())
	}
	var buf bytes.Buffer
	l := slog.New(newLogHandler(&buf))
	l.Debug("hidden", "n", 1)
	l.Info("visible", "x", "y")
	l.Warn("warned")
	l.Error("failed", "err", "boom")
	lines := jsonLines(t, &buf)
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want 3 (debug filtered)", len(lines))
	}
	for i, want := range []string{"INFO", "WARN", "ERROR"} {
		if lines[i]["level"] != want {
			t.Errorf("line %d level = %v, want %q", i, lines[i]["level"], want)
		}
		if lines[i]["time"] == nil || lines[i]["msg"] == nil {
			t.Errorf("line %d missing time/msg: %v", i, lines[i])
		}
	}
	if lines[0]["msg"] != "visible" || lines[0]["x"] != "y" {
		t.Errorf("message or attribute lost: %v", lines[0])
	}
}

// -log-level warn drops info records and keeps warnings.
func TestLoggerSetLevel(t *testing.T) {
	defer SetLevel(slog.LevelInfo)
	var buf bytes.Buffer
	l := slog.New(newLogHandler(&buf))
	lvl, err := ParseLevel("warn")
	if err != nil {
		t.Fatal(err)
	}
	SetLevel(lvl)
	l.Info("nope")
	l.Warn("kept")
	SetLevel(slog.LevelDebug)
	l.Debug("yep")
	if got := buf.String(); !strings.Contains(got, "kept") || !strings.Contains(got, "yep") || strings.Contains(got, "nope") {
		t.Fatalf("SetLevel not honored: %q", got)
	}
}

func TestParseLevel(t *testing.T) {
	for in, want := range map[string]slog.Level{
		"debug": slog.LevelDebug, "INFO": slog.LevelInfo, " warn ": slog.LevelWarn,
		"warning": slog.LevelWarn, "Error": slog.LevelError,
	} {
		got, err := ParseLevel(in)
		if err != nil || got != want {
			t.Errorf("ParseLevel(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Error("ParseLevel should reject unknown levels")
	}
}

// An ERROR record bumps kset_obs_log_errors_total, a WARN record does not,
// and loggers derived with attributes keep counting.
func TestErrorCounter(t *testing.T) {
	l := slog.New(newLogHandler(&bytes.Buffer{}))
	before := errorLines.Value()
	l.Warn("not tracked")
	if errorLines.Value() != before {
		t.Fatal("a WARN record bumped the error-line counter")
	}
	l.Error("tracked")
	l.With("component", "test").Error("tracked too")
	if got := errorLines.Value(); got != before+2 {
		t.Fatalf("error-line counter = %d, want %d", got, before+2)
	}
	var prom bytes.Buffer
	WritePrometheusTo(&prom, DefaultRegistry())
	if !strings.Contains(prom.String(), "kset_obs_log_errors_total") {
		t.Fatal("kset_obs_log_errors_total missing from the default registry's exposition")
	}
}

func TestConcurrentLogging(t *testing.T) {
	// The slog handler serializes its writes, so a bare buffer is safe.
	var buf bytes.Buffer
	l := slog.New(newLogHandler(&buf))
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				l.Info("tick", "worker", i, "n", j)
			}
		}(i)
	}
	wg.Wait()
	if n := len(jsonLines(t, &buf)); n != 800 {
		t.Fatalf("got %d lines, want 800", n)
	}
}
