package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed interval at a layer boundary. Spans of one job share
// Job; Parent is the id of the span that caused this one (0 for a root).
type Span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Job    int64  `json:"job"`
	Name   string `json:"name"`
	Kind   string `json:"kind,omitempty"` // request kind on HTTP spans
	Start  int64  `json:"start_ns"`       // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

// Dur returns the span's length.
func (s Span) Dur() time.Duration { return time.Duration(s.End - s.Start) }

// Tracer keeps spans in memory until the run ends. A nil *Tracer records
// nothing, so untraced runs pass nil and pay one nil check per boundary.
type Tracer struct {
	epoch time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []Span
}

func newTracer() *Tracer { return &Tracer{epoch: time.Now()} }

// NewID allocates a span id (0 on a nil tracer).
func (t *Tracer) NewID() int64 {
	if t == nil {
		return 0
	}
	return t.next.Add(1)
}

// Now returns the tracer clock.
func (t *Tracer) Now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.epoch))
}

// Record stores a finished span. A zero id gets a fresh one.
func (t *Tracer) Record(s Span) {
	if t == nil {
		return
	}
	if s.ID == 0 {
		s.ID = t.NewID()
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// Spans returns a copy of every recorded span.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// WriteFile writes the spans as JSON lines, after a header line that stamps
// the environment.
func (t *Tracer) WriteFile(path string, header map[string]any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(header); err != nil {
		f.Close()
		return err
	}
	for _, s := range t.Spans() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}

// selfTimes returns, per span, its duration minus the part of its interval
// covered by its children. Overlapping children are counted once, and a
// child running past its parent's end is clipped to the parent.
func selfTimes(spans []Span) map[int64]time.Duration {
	children := make(map[int64][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.Dur() - covered(s, children[s.ID])
	}
	return out
}

// covered returns the length of the union of the children's intervals,
// clipped to the parent's interval.
func covered(parent Span, kids []Span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	curA, curB := int64(0), int64(-1)
	for _, x := range iv {
		if x[0] > curB {
			if curB > curA {
				total += curB - curA
			}
			curA, curB = x[0], x[1]
			continue
		}
		curB = max(curB, x[1])
	}
	if curB > curA {
		total += curB - curA
	}
	return time.Duration(total)
}

// selfByName sums self time per span name.
func selfByName(spans []Span) map[string]time.Duration {
	self := selfTimes(spans)
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.Name] += self[s.ID]
	}
	return out
}

// spanCtx carries the enclosing span and job through a request context.
type spanCtx struct{ id, job int64 }

type spanKey struct{}

func withSpan(ctx context.Context, id, job int64) context.Context {
	return context.WithValue(ctx, spanKey{}, spanCtx{id, job})
}

func spanFrom(ctx context.Context) spanCtx {
	sc, _ := ctx.Value(spanKey{}).(spanCtx)
	return sc
}
