package obs

import (
	"context"
	"sync"
	"time"
)

// KV is one integer argument attached to a span. Chrome's trace format
// allows arbitrary JSON args; the DP only ever attaches counters, so a
// flat int pair keeps span recording allocation-light.
type KV struct {
	Key string
	Val int64
}

// Flag is the KV of a yes/no outcome: 1 for true, 0 for false.
func Flag(key string, b bool) KV {
	if b {
		return KV{key, 1}
	}
	return KV{key, 0}
}

// Tracer records the spans of one (or several sequential) mapping runs
// as Span values with absolute epoch-µs timestamps. When the context it
// is built from carries a sampled trace context, every span joins that
// trace as a child of the context's span, so the daemon hands a run's
// spans to its TraceHub as recorded; WriteSpans renders them as Chrome
// trace-event JSON either way. Recording methods are nil-receiver safe;
// a nil *Tracer is the disabled tracer. The tracer is internally locked
// so the daemon can share one across phases; per-node DP spans come from
// the run's single DP loop.
type Tracer struct {
	sample          int
	traceID, parent string

	mu    sync.Mutex
	spans []Span
}

// NewTracer builds a tracer that records every sampleEvery-th per-node DP
// span (1 or less records all of them) under ctx's trace context, if it
// is sampled. Phase spans and instants are never sampled away — a full
// trace of an MCNC-sized circuit is a few thousand spans, but the
// per-node firehose is what the knob bounds.
func NewTracer(ctx context.Context, sampleEvery int) *Tracer {
	t := &Tracer{sample: max(sampleEvery, 1)}
	if tc := TraceContextFrom(ctx); tc.Sampled && tc.Valid() {
		t.traceID, t.parent = tc.TraceID, tc.SpanID
	}
	return t
}

// SampleNode reports whether per-node spans for node id should be
// recorded under the sampling knob.
func (t *Tracer) SampleNode(id int) bool {
	return t != nil && (t.sample <= 1 || id%t.sample == 0)
}

// Span records a completed span from start to now. kv values are attached
// as span args (shown in the Perfetto side panel).
func (t *Tracer) Span(cat, name string, start time.Time, kv ...KV) {
	if t == nil {
		return
	}
	t.record(cat, name, start, time.Since(start), kv)
}

// Instant records a zero-duration span at the current time.
func (t *Tracer) Instant(cat, name string, kv ...KV) {
	if t == nil {
		return
	}
	t.record(cat, name, time.Now(), 0, kv)
}

func (t *Tracer) record(cat, name string, start time.Time, d time.Duration, kv []KV) {
	s := Span{
		TraceID:  t.traceID,
		SpanID:   NewSpanID(),
		ParentID: t.parent,
		Cat:      cat,
		Name:     name,
		StartUS:  start.UnixMicro(),
		DurUS:    d.Microseconds(),
		Args:     kv,
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// Spans returns a copy of the recorded spans in recording order (nil on
// a nil tracer).
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}
