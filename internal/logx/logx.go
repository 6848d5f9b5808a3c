// Package logx holds what log/slog lacks for the scheduling stack: the
// JSON record shape that `relsched -log jsonl` streams and flight
// bundles embed (NewJSONHandler), the per-job Capture behind a bundle's
// logs, the -log-level names (ParseLevel), and LogAttrs, which treats a
// nil *slog.Logger as the disabled logger: every Logger option in the
// stack means "no logging" when nil, and slog's methods are not
// nil-safe.
package logx

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"sync"
)

// NewJSONHandler returns a log/slog JSON handler writing one line per
// record in the shape bundles embed and `relsched -log jsonl` streams:
//
//	{"t":"2026-08-06T12:00:00.0000015Z","level":"info","msg":"job scheduled","job":"gcd","dur":1500}
//
// The time is RFC 3339 with nanoseconds in UTC under "t", the level is
// lower case, attribute keys are inlined, durations are integer
// nanoseconds, and records below level are dropped.
func NewJSONHandler(w io.Writer, level slog.Leveler) *slog.JSONHandler {
	return slog.NewJSONHandler(w, &slog.HandlerOptions{Level: level, ReplaceAttr: recordShape})
}

// recordShape is the handler's ReplaceAttr. slog calls it for the
// built-in time and level and for every other attribute too, which it
// leaves alone.
func recordShape(groups []string, a slog.Attr) slog.Attr {
	if len(groups) > 0 {
		return a
	}
	switch a.Key {
	case slog.TimeKey:
		if a.Value.Kind() == slog.KindTime {
			return slog.Time("t", a.Value.Time().UTC())
		}
	case slog.LevelKey:
		if l, ok := a.Value.Any().(slog.Level); ok {
			return slog.String(slog.LevelKey, levelName(l))
		}
	}
	return a
}

// ParseLevel maps a -log-level name (debug, info, warn or warning,
// error) to its slog level.
func ParseLevel(name string) (slog.Level, bool) {
	switch name {
	case "debug":
		return slog.LevelDebug, true
	case "info":
		return slog.LevelInfo, true
	case "warn", "warning":
		return slog.LevelWarn, true
	case "error":
		return slog.LevelError, true
	}
	return slog.LevelInfo, false
}

// LogAttrs writes one record through l; a nil l logs nothing.
func LogAttrs(l *slog.Logger, level slog.Level, msg string, attrs ...slog.Attr) {
	if l != nil {
		l.LogAttrs(context.Background(), level, msg, attrs...)
	}
}

func levelName(l slog.Level) string {
	switch {
	case l < slog.LevelInfo:
		return "debug"
	case l < slog.LevelWarn:
		return "info"
	case l < slog.LevelError:
		return "warn"
	}
	return "error"
}

// maxCaptured bounds one job's captured records; later records are
// counted, not kept.
const maxCaptured = 64

// Capture is the slog.Handler behind one job's log section in a
// bundle. It keeps the job's first 64 records at every level, counts
// the rest, and forwards to the live handler the records that handler
// enables. Records are kept unrendered: Logs renders them, so a job
// that never dumps pays no JSON encoding.
type Capture struct {
	next   slog.Handler // live handler; nil captures without forwarding
	render slog.Handler // JSON handler carrying this handler's WithAttrs/WithGroup chain
	st     *captureState
}

type captureState struct {
	mu      sync.Mutex
	kept    []keptRecord
	dropped int
	out     bytes.Buffer // the render handlers write here
}

type keptRecord struct {
	r slog.Record
	h slog.Handler
}

// NewCapture returns an empty capture forwarding to next (nil: none).
func NewCapture(next slog.Handler) *Capture {
	st := &captureState{}
	return &Capture{next: next, render: NewJSONHandler(&st.out, slog.LevelDebug), st: st}
}

// Enabled reports true at every level: a bundle wants debug detail even
// when the live stream is info-only.
func (c *Capture) Enabled(context.Context, slog.Level) bool { return true }

// Handle keeps r (or counts it over the bound) and forwards it when the
// live handler enables its level.
func (c *Capture) Handle(ctx context.Context, r slog.Record) error {
	c.st.mu.Lock()
	if len(c.st.kept) < maxCaptured {
		c.st.kept = append(c.st.kept, keptRecord{r.Clone(), c.render})
	} else {
		c.st.dropped++
	}
	c.st.mu.Unlock()
	if c.next != nil && c.next.Enabled(ctx, r.Level) {
		return c.next.Handle(ctx, r)
	}
	return nil
}

// WithAttrs returns a capture that adds attrs to every record, live and
// rendered, and keeps its records with c's.
func (c *Capture) WithAttrs(attrs []slog.Attr) slog.Handler {
	d := *c
	if d.next != nil {
		d.next = d.next.WithAttrs(attrs)
	}
	d.render = d.render.WithAttrs(attrs)
	return &d
}

// WithGroup returns a capture that nests later attributes under name,
// live and rendered, and keeps its records with c's.
func (c *Capture) WithGroup(name string) slog.Handler {
	d := *c
	if d.next != nil {
		d.next = d.next.WithGroup(name)
	}
	d.render = d.render.WithGroup(name)
	return &d
}

// Logs renders the kept records, oldest first, one JSON object each in
// NewJSONHandler's shape, and reports how many records the bound
// dropped.
func (c *Capture) Logs() ([]json.RawMessage, int) {
	st := c.st
	st.mu.Lock()
	defer st.mu.Unlock()
	logs := make([]json.RawMessage, len(st.kept))
	for i, k := range st.kept {
		st.out.Reset()
		_ = k.h.Handle(context.Background(), k.r) // writes to a bytes.Buffer
		logs[i] = bytes.Clone(bytes.TrimSuffix(st.out.Bytes(), []byte("\n")))
	}
	return logs, st.dropped
}
