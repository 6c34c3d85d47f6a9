package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// Span is one timed call recorded by a traced run. Spans of one
// simulation cell share a Cell id; Parent is the enclosing span (0 at
// the top level).
type Span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Cell   int64  `json:"cell"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Seconds is the span's duration.
func (s Span) Seconds() float64 { return float64(s.End-s.Start) / 1e9 }

// Tracer keeps spans in memory until the run writes them out. A nil
// *Tracer records nothing, so untraced runs pay one nil check per call.
type Tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []Span
	cells  int64
}

func newTracer() *Tracer { return &Tracer{origin: time.Now()} }

// NewCell allocates the id that a cell's spans share.
func (t *Tracer) NewCell() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.cells++
	return t.cells
}

// Begin opens a span and returns its id.
func (t *Tracer) Begin(name string, parent, cell int64) int64 {
	if t == nil {
		return 0
	}
	now := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Cell: cell, Name: name, Start: now})
	return id
}

// End closes the span id.
func (t *Tracer) End(id int64) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// Durations returns the durations in seconds of the closed spans named
// name, in start order.
func (t *Tracer) Durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.End != 0 {
			out = append(out, s.Seconds())
		}
	}
	return out
}

// WriteFile stores every span as JSON.
func (t *Tracer) WriteFile(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
