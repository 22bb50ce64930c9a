package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// tracer keeps a traced part's spans in memory; the run writes them once
// at the end. Every method is safe on a nil tracer (an untraced run), where
// it records nothing.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

// span is one timed interval: a call into a layer, a pipeline stage, a
// batch job or a served request. Parent is the ID of the span that
// caused it (0 for a root). Times are offsets from the run's start.
// Each part starts with a root span named after the part.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Name    string  `json:"name"`
	StartMS float64 `json:"start_ms"`
	EndMS   float64 `json:"end_ms"`
}

func newTracer(t0 time.Time) *tracer { return &tracer{t0: t0} }

// add records a finished span and returns its ID.
func (t *tracer) add(name string, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name,
		StartMS: float64(start.Sub(t.t0)) / float64(time.Millisecond),
		EndMS:   float64(end.Sub(t.t0)) / float64(time.Millisecond),
	})
	return id
}

// open starts a span whose end is set later by close; it returns the ID.
func (t *tracer) open(name string, parent int) int {
	now := time.Now()
	return t.add(name, parent, now, now)
}

// close sets an open span's end to now.
func (t *tracer) close(id int) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].EndMS = float64(time.Since(t.t0)) / float64(time.Millisecond)
}

// rebase renumbers a part's spans to follow n spans already merged and
// shifts their times by offsetMS, the part's start after the first part's.
func rebase(spans []span, n int, offsetMS float64) []span {
	out := make([]span, len(spans))
	for i, s := range spans {
		s.ID += n
		if s.Parent != 0 {
			s.Parent += n
		}
		s.StartMS += offsetMS
		s.EndMS += offsetMS
		out[i] = s
	}
	return out
}

// writeSpans stores spans as a JSON array.
func writeSpans(path string, spans []span) error {
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// timed runs f inside a span and adds its duration to the per-layer
// metric; untraced runs just call f.
func (b *bench) timed(metric string, parent int, f func() error) error {
	if b.trace == nil {
		return f()
	}
	start := time.Now()
	err := f()
	end := time.Now()
	b.trace.add(metric, parent, start, end)
	b.addLayer(metric, end.Sub(start).Seconds())
	return err
}
