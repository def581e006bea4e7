package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call from the harness into a layer. Spans are taken
// from outside the product code (around its public functions), kept in
// memory and written out when the run ends.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"` // ns since the tracer's epoch
	End    int64  `json:"end"`
	Parent int    `json:"parent"` // index of the causing span, -1 for a root
	Op     int    `json:"op"`     // the op (or replay round) the span belongs to
	// Calls is how many back-to-back calls the span covers: nanosecond
	// probes time a batch as one span so the two clock reads do not
	// dominate what they measure.
	Calls int `json:"calls"`
}

// tracer records spans. A nil *tracer records nothing, which is how the
// untraced runs share the op code with the traced one.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its index (-1 from a nil tracer).
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Parent: parent, Op: op, Calls: 1, Start: int64(time.Since(t.epoch))})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) { t.endCalls(id, 1) }

// endCalls closes a span that covered calls back-to-back calls.
func (t *tracer) endCalls(id, calls int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id].End = now
	t.spans[id].Calls = calls
	t.mu.Unlock()
}

// perCall is the mean duration of one call over every span of that name.
func (t *tracer) perCall(name string) (time.Duration, int) {
	if t == nil {
		return 0, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var total int64
	calls := 0
	for _, s := range t.spans {
		if s.Name == name {
			total += s.End - s.Start
			calls += s.Calls
		}
	}
	if calls == 0 {
		return 0, 0
	}
	return time.Duration(total / int64(calls)), calls
}

// perOp is the summed duration of every span of that name divided by the
// number of distinct ops that have one.
func (t *tracer) perOp(name string) (time.Duration, int) {
	if t == nil {
		return 0, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var total int64
	ops := map[int]bool{}
	for _, s := range t.spans {
		if s.Name == name {
			total += s.End - s.Start
			ops[s.Op] = true
		}
	}
	if len(ops) == 0 {
		return 0, 0
	}
	return time.Duration(total / int64(len(ops))), len(ops)
}

// selfTimes attributes every span's duration to its own name minus the
// part of its interval that its direct children cover. Children that
// overlap each other (concurrent calls) are unioned first, so covered
// time is never subtracted twice; children are clipped to the parent.
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make(map[string]time.Duration)
	for i, s := range spans {
		self[s.Name] += time.Duration(s.End - s.Start - covered(children[i], s.Start, s.End))
	}
	return self
}

// covered is the length of the union of intervals, clipped to [lo, hi].
func covered(intervals [][2]int64, lo, hi int64) int64 {
	sort.Slice(intervals, func(i, j int) bool { return intervals[i][0] < intervals[j][0] })
	var total int64
	end := lo
	for _, iv := range intervals {
		a, b := max(iv[0], end), min(iv[1], hi)
		if b > a {
			total += b - a
			end = b
		}
	}
	return total
}

// write dumps the spans and their per-name self times under dir.
func (t *tracer) write(dir, workload string) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	self := selfTimes(t.spans)
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	type selfRow struct {
		Name   string `json:"name"`
		SelfNs int64  `json:"self_ns"`
	}
	doc := struct {
		Workload string    `json:"workload"`
		Self     []selfRow `json:"self"`
		Spans    []span    `json:"spans"`
	}{Workload: workload, Spans: t.spans}
	for _, n := range names {
		doc.Self = append(doc.Self, selfRow{n, int64(self[n])})
	}
	data, err := json.Marshal(&doc)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), data, 0o644)
}

// spanKey carries the current span through a context, so the tracing
// HTTP transport can parent its round-trip spans under the client call
// that issued them.
type spanKey struct{}

type spanRef struct{ id, op int }

func withSpan(ctx context.Context, id, op int) context.Context {
	if id < 0 {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, spanRef{id, op})
}

func spanFrom(ctx context.Context) (spanRef, bool) {
	ref, ok := ctx.Value(spanKey{}).(spanRef)
	return ref, ok
}
