package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call from the benchmark into a layer. Spans of one
// request (an experiment, a job, a cache hit) share Trace; Parent links a
// span to the one that caused it. Times are microseconds since the run began.
type span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent,omitempty"`
	Trace   string `json:"trace,omitempty"`
	Name    string `json:"name"`
	StartUS int64  `json:"start_us"`
	EndUS   int64  `json:"end_us"`
}

// tracer keeps spans in memory and writes them out when the run ends. A nil
// tracer (untraced runs) records nothing and costs a nil check.
type tracer struct {
	t0    time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

// openSpan is a started span; finish records it.
type openSpan struct {
	t     *tracer
	s     span
	start time.Time
}

// start opens a span. It returns nil on a nil tracer; every openSpan method
// accepts a nil receiver.
func (t *tracer) start(name, trace string, parent int64) *openSpan {
	if t == nil {
		return nil
	}
	return &openSpan{t: t, s: span{ID: t.next.Add(1), Parent: parent, Trace: trace, Name: name}, start: time.Now()}
}

func (o *openSpan) id() int64 {
	if o == nil {
		return 0
	}
	return o.s.ID
}

func (o *openSpan) finish() {
	if o == nil {
		return
	}
	o.s.StartUS = o.start.Sub(o.t.t0).Microseconds()
	o.s.EndUS = time.Since(o.t.t0).Microseconds()
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, o.s)
	o.t.mu.Unlock()
}

func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// spanRef travels in a request context so the HTTP wrapper can parent its
// round-trip spans under the operation that issued them.
type spanRef struct {
	trace  string
	parent int64
}

type spanKey struct{}

func withSpan(ctx context.Context, trace string, parent int64) context.Context {
	return context.WithValue(ctx, spanKey{}, spanRef{trace, parent})
}

func spanFrom(ctx context.Context) spanRef {
	r, _ := ctx.Value(spanKey{}).(spanRef)
	return r
}

// window is a workload's timed phase: host time, Go runtime counter deltas
// and, in traced runs, the benchmark's own CPU profile.
type window struct {
	traced  bool
	prof    bytes.Buffer
	start   time.Time
	elapsed time.Duration
	m0, m1  runtime.MemStats
}

func (w *window) begin() error {
	runtime.GC() // settle set-up garbage so it is not charged to the workload
	runtime.ReadMemStats(&w.m0)
	if w.traced {
		if err := pprof.StartCPUProfile(&w.prof); err != nil {
			return err
		}
	}
	w.start = time.Now()
	return nil
}

func (w *window) end() {
	w.elapsed = time.Since(w.start)
	if w.traced {
		pprof.StopCPUProfile()
	}
	runtime.ReadMemStats(&w.m1)
}

func (w *window) seconds() float64 { return w.elapsed.Seconds() }
