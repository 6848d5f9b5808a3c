package logx

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"
)

func decodeLine(t *testing.T, line []byte) map[string]any {
	t.Helper()
	var obj map[string]any
	if err := json.Unmarshal(line, &obj); err != nil {
		t.Fatalf("line is not valid JSON: %v\n%s", err, line)
	}
	return obj
}

func TestJSONHandlerShape(t *testing.T) {
	var buf bytes.Buffer
	log := slog.New(NewJSONHandler(&buf, slog.LevelDebug)).With("job", "gcd")
	log.Info("job done",
		slog.String("fingerprint", "abc123"),
		slog.Int("anchors", 3),
		slog.Bool("cache_hit", true),
		slog.Duration("dur", 1500*time.Nanosecond),
		slog.Any("err", errors.New(`bad "quote"`)),
	)
	line := strings.TrimSpace(buf.String())
	if !strings.HasPrefix(line, `{"t":"`) || !strings.Contains(line, `Z","level":"info","msg":"job done","job":"gcd",`) {
		t.Errorf("line does not lead with t (UTC), level, msg, then bound attributes:\n%s", line)
	}
	obj := decodeLine(t, []byte(line))
	want := map[string]any{
		"level":       "info",
		"msg":         "job done",
		"job":         "gcd",
		"fingerprint": "abc123",
		"anchors":     float64(3),
		"cache_hit":   true,
		"dur":         float64(1500),
		"err":         `bad "quote"`,
	}
	for k, v := range want {
		if obj[k] != v {
			t.Errorf("%s = %v (%T), want %v", k, obj[k], obj[k], v)
		}
	}
	if _, err := time.Parse(time.RFC3339Nano, obj["t"].(string)); err != nil {
		t.Errorf("t = %v: %v", obj["t"], err)
	}
}

// TestLevelGate checks that records below the handler's level are
// dropped, that Enabled agrees, and that level names are lower case.
func TestLevelGate(t *testing.T) {
	var buf bytes.Buffer
	log := slog.New(NewJSONHandler(&buf, slog.LevelWarn))
	log.Debug("d")
	log.Info("i")
	if buf.Len() != 0 {
		t.Fatalf("below-threshold records written: %s", buf.String())
	}
	ctx := context.Background()
	if log.Enabled(ctx, slog.LevelInfo) || !log.Enabled(ctx, slog.LevelError) {
		t.Error("Enabled disagrees with the handler threshold")
	}
	log.Warn("w")
	log.Error("e")
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2:\n%s", len(lines), buf.String())
	}
	for i, level := range []string{"warn", "error"} {
		if got := decodeLine(t, []byte(lines[i]))["level"]; got != level {
			t.Errorf("line %d level = %v, want %s", i, got, level)
		}
	}
}

func TestNilLoggerIsDisabled(t *testing.T) {
	for _, level := range []slog.Level{slog.LevelDebug, slog.LevelInfo, slog.LevelWarn, slog.LevelError} {
		LogAttrs(nil, level, "x", slog.String("k", "v"))
	}
	var buf bytes.Buffer
	LogAttrs(slog.New(NewJSONHandler(&buf, slog.LevelInfo)), slog.LevelWarn, "x", slog.String("k", "v"))
	if !strings.Contains(buf.String(), `"level":"warn","msg":"x","k":"v"`) {
		t.Errorf("LogAttrs on a logger wrote %q", buf.String())
	}
}

func TestParseLevel(t *testing.T) {
	for name, want := range map[string]slog.Level{
		"debug": slog.LevelDebug, "info": slog.LevelInfo, "warn": slog.LevelWarn, "warning": slog.LevelWarn, "error": slog.LevelError,
	} {
		got, ok := ParseLevel(name)
		if !ok || got != want {
			t.Errorf("ParseLevel(%q) = %v, %v", name, got, ok)
		}
	}
	for _, name := range []string{"loud", "INFO", ""} {
		if _, ok := ParseLevel(name); ok {
			t.Errorf("ParseLevel accepted %q", name)
		}
	}
}

// TestWithDoesNotMutateParent checks that sibling loggers share a
// capture's records but not their attributes, live or rendered, and
// that a group nests later attributes in the rendered line.
func TestWithDoesNotMutateParent(t *testing.T) {
	var buf bytes.Buffer
	cap := NewCapture(NewJSONHandler(&buf, slog.LevelDebug))
	base := slog.New(cap).With("a", "1")
	base.With("b", "2").Info("one")
	base.With("c", "3").Info("two")
	base.WithGroup("req").Info("three", "k", "v")
	logs, _ := cap.Logs()
	if len(logs) != 3 {
		t.Fatalf("capture = %d records, want 3", len(logs))
	}
	if one, two := string(logs[0]), string(logs[1]); strings.Contains(one, `"c"`) || strings.Contains(two, `"b"`) ||
		!strings.Contains(one, `"a":"1","b":"2"`) || !strings.Contains(two, `"a":"1","c":"3"`) {
		t.Errorf("sibling attributes leaked:\n%s\n%s", one, two)
	}
	if three := string(logs[2]); !strings.Contains(three, `"a":"1","req":{"k":"v"}`) {
		t.Errorf("grouped record = %s", three)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 || strings.Contains(lines[0], `"c"`) || strings.Contains(lines[1], `"b"`) {
		t.Errorf("sibling attributes leaked into the live stream:\n%s", buf.String())
	}
}

func TestCapture(t *testing.T) {
	var buf bytes.Buffer
	cap := NewCapture(NewJSONHandler(&buf, slog.LevelWarn))
	log := slog.New(cap).With("job", "j")
	log.Debug("kept below next threshold")
	log.Warn("forwarded")
	for i := 0; i < maxCaptured; i++ {
		log.Info("filler")
	}
	logs, dropped := cap.Logs()
	if len(logs) != maxCaptured || dropped != 2 {
		t.Fatalf("capture = %d records, %d dropped, want %d/2", len(logs), dropped, maxCaptured)
	}
	first := decodeLine(t, logs[0])
	if first["msg"] != "kept below next threshold" || first["level"] != "debug" || first["job"] != "j" {
		t.Errorf("first captured = %v", first)
	}
	// Only the warn line passed the live handler's gate, with the bound
	// attribute.
	if n := strings.Count(buf.String(), "\n"); n != 1 || !strings.Contains(buf.String(), `"msg":"forwarded","job":"j"`) {
		t.Errorf("forwarded %d lines, want the warn line:\n%s", n, buf.String())
	}

	// A capture with no live handler keeps records and forwards none.
	cap = NewCapture(nil)
	slog.New(cap).Error("only kept")
	if logs, _ := cap.Logs(); len(logs) != 1 || decodeLine(t, logs[0])["msg"] != "only kept" {
		t.Errorf("capture without a live handler = %q", logs)
	}
}

// TestConcurrentLogging writes from eight goroutines through a capture
// to a JSON handler: every forwarded line stays whole, and the capture
// keeps its bound under contention.
func TestConcurrentLogging(t *testing.T) {
	var buf bytes.Buffer
	cap := NewCapture(NewJSONHandler(&buf, slog.LevelDebug))
	log := slog.New(cap)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				log.Info("msg", "j", j)
			}
		}()
	}
	wg.Wait()
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 400 {
		t.Fatalf("got %d lines, want 400", len(lines))
	}
	for _, line := range lines {
		decodeLine(t, []byte(line))
	}
	logs, dropped := cap.Logs()
	if len(logs) != maxCaptured || dropped != 400-maxCaptured {
		t.Fatalf("capture = %d records, %d dropped, want %d/%d", len(logs), dropped, maxCaptured, 400-maxCaptured)
	}
}

// TestDisabledLoggerZeroAllocs pins the disabled path's allocation
// contract: LogAttrs on a nil logger, and a level-gated logger behind
// an Enabled guard (the form the engine's hot path uses), allocate
// nothing.
func TestDisabledLoggerZeroAllocs(t *testing.T) {
	if n := testing.AllocsPerRun(1000, func() {
		LogAttrs(nil, slog.LevelDebug, "cache probe", slog.String("fp", "abc"), slog.Bool("hit", true), slog.Int("n", 1))
	}); n != 0 {
		t.Errorf("nil logger: %v allocs/op, want 0", n)
	}
	ctx := context.Background()
	gated := slog.New(NewJSONHandler(&bytes.Buffer{}, slog.LevelWarn))
	if n := testing.AllocsPerRun(1000, func() {
		if gated.Enabled(ctx, slog.LevelDebug) {
			gated.LogAttrs(ctx, slog.LevelDebug, "cache probe", slog.String("fp", "abc"), slog.Bool("hit", true))
		}
	}); n != 0 {
		t.Errorf("level-gated logger: %v allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		LogAttrs(gated, slog.LevelDebug, "cache probe", slog.String("fp", "abc"), slog.Bool("hit", true))
	}); n != 0 {
		t.Errorf("level-gated logger through LogAttrs: %v allocs/op, want 0", n)
	}
}
