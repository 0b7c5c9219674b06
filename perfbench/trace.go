package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed call the benchmark made into a layer's public API.
// Spans of one op (a catalog experiment, a characterize cell, a fleet
// unit) share Op; Parent is the span that caused this one (0 for a root).
type Span struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent,omitempty"`
	Op     int64         `json:"op"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// Dur is the span's wall duration.
func (s Span) Dur() time.Duration { return s.End - s.Start }

// Tracer keeps spans in memory for the traced run; they are written out
// once the run ends. A nil *Tracer records nothing, so the untraced run
// passes nil and pays one nil check per call site.
type Tracer struct {
	epoch time.Time
	ids   atomic.Int64

	mu    sync.Mutex
	spans []Span
}

// NewTracer starts a tracer whose span times count from now.
func NewTracer() *Tracer { return &Tracer{epoch: time.Now()} }

// Begin opens a span; End records it.
func (t *Tracer) Begin(name string, op, parent int64) Span {
	if t == nil {
		return Span{}
	}
	return Span{ID: t.ids.Add(1), Parent: parent, Op: op, Name: name, Start: time.Since(t.epoch)}
}

// End closes and records a span opened by Begin.
func (t *Tracer) End(s Span) {
	if t == nil {
		return
	}
	s.End = time.Since(t.epoch)
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// Spans returns a copy of the recorded spans.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// Durations returns the durations of every span named name, in ms.
func (t *Tracer) Durations(name string) []float64 {
	var out []float64
	for _, s := range t.Spans() {
		if s.Name == name {
			out = append(out, float64(s.Dur())/float64(time.Millisecond))
		}
	}
	return out
}

// SelfTimes sums, per span name, each span's duration minus the part of
// its interval that its children cover. Children may overlap (two runner
// jobs under one runner.Run), so the covered part is the union of their
// intervals clipped to the parent.
func SelfTimes(spans []Span) map[string]time.Duration {
	children := map[int64][]Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := map[string]time.Duration{}
	for _, s := range spans {
		self[s.Name] += s.Dur() - covered(s, children[s.ID])
	}
	return self
}

// covered is the length of the union of kids' intervals within p.
func covered(p Span, kids []Span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, p.Start), min(k.End, p.End)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi time.Duration
	for i, x := range iv {
		if i == 0 || x[0] > curHi {
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
			continue
		}
		curHi = max(curHi, x[1])
	}
	return total + curHi - curLo
}

// WriteFile writes the spans as JSON lines.
func (t *Tracer) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.Spans() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}
