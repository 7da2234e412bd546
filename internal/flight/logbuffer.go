package flight

import (
	"context"
	"fmt"
	"log/slog"
	"strings"
	"sync"
)

// LogBuffer is a slog.Handler tee: it renders every record into a bounded
// in-memory ring (the flight dump's log tail) and forwards it to the inner
// handler. Wrap it around the process logger's handler:
//
//	h := rec.Logs().Wrap(slog.NewJSONHandler(os.Stderr, nil))
//	slog.New(h)
//
// Rendering takes a mutex and allocates; that is fine — it sits on the
// logging path, which is already allocation-bearing, never inside the
// traced execute loop.
type LogBuffer struct {
	mu     sync.Mutex
	lines  []string
	head   int
	filled int
}

func newLogBuffer(n int) *LogBuffer {
	return &LogBuffer{lines: make([]string, n)}
}

// append stores one rendered line, evicting the oldest when full.
func (b *LogBuffer) append(line string) {
	b.mu.Lock()
	b.lines[b.head] = line
	b.head = (b.head + 1) % len(b.lines)
	if b.filled < len(b.lines) {
		b.filled++
	}
	b.mu.Unlock()
}

// Tail returns the retained lines, oldest first.
func (b *LogBuffer) Tail() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]string, 0, b.filled)
	for i := 0; i < b.filled; i++ {
		out = append(out, b.lines[((b.head-b.filled+i)%len(b.lines)+len(b.lines))%len(b.lines)])
	}
	return out
}

// Wrap returns a slog.Handler that tees records into the buffer and
// forwards them to inner.
func (b *LogBuffer) Wrap(inner slog.Handler) slog.Handler {
	return &teeHandler{buf: b, inner: inner}
}

type teeHandler struct {
	buf   *LogBuffer
	inner slog.Handler
	attrs []slog.Attr
	group string
}

func (h *teeHandler) Enabled(ctx context.Context, level slog.Level) bool {
	return h.inner.Enabled(ctx, level)
}

func (h *teeHandler) Handle(ctx context.Context, rec slog.Record) error {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s %s %s", rec.Time.Format("15:04:05.000"), rec.Level, rec.Message)
	prefix := ""
	if h.group != "" {
		prefix = h.group + "."
	}
	for _, a := range h.attrs {
		fmt.Fprintf(&sb, " %s%s=%v", prefix, a.Key, a.Value)
	}
	rec.Attrs(func(a slog.Attr) bool {
		fmt.Fprintf(&sb, " %s%s=%v", prefix, a.Key, a.Value)
		return true
	})
	h.buf.append(sb.String())
	return h.inner.Handle(ctx, rec)
}

func (h *teeHandler) WithAttrs(attrs []slog.Attr) slog.Handler {
	return &teeHandler{
		buf:   h.buf,
		inner: h.inner.WithAttrs(attrs),
		attrs: append(append([]slog.Attr(nil), h.attrs...), attrs...),
		group: h.group,
	}
}

func (h *teeHandler) WithGroup(name string) slog.Handler {
	g := name
	if h.group != "" {
		g = h.group + "." + name
	}
	return &teeHandler{buf: h.buf, inner: h.inner.WithGroup(name), attrs: h.attrs, group: g}
}
