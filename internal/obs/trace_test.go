package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
	"time"
)

// chromeTrace mirrors the subset of the Chrome trace-event format that
// WriteSpans emits, for round-trip validation.
type chromeTrace struct {
	TraceEvents []struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		TS   int64          `json:"ts"`
		Dur  *int64         `json:"dur"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
	DisplayTimeUnit string `json:"displayTimeUnit"`
}

// TestTracerSpansAreValidChromeTrace records an instant and a span the
// way a local `soimap -trace` run does and renders them through
// WriteSpans: one process record, then both spans with their args.
func TestTracerSpansAreValidChromeTrace(t *testing.T) {
	tr := NewTracer(context.Background(), 1)
	start := time.Now()
	tr.Instant("mapper", "run", KV{"nodes", 42})
	tr.Span("dp", "node 3 And", start, KV{"kept", 2}, KV{"cands_a", 5})
	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("%d spans after an instant and a span, want 2", len(spans))
	}
	for i, s := range spans {
		if s.TraceID != "" || s.ParentID != "" {
			t.Errorf("span %q joined a trace (%q/%q) without a sampled context", s.Name, s.TraceID, s.ParentID)
		}
		if s.StartUS < start.UnixMicro() {
			t.Errorf("span %q starts at %dµs, before the run (%dµs): not absolute epoch µs",
				s.Name, s.StartUS, start.UnixMicro())
		}
		spans[i].Process = "soimap"
	}

	var buf bytes.Buffer
	if err := WriteSpans(&buf, spans); err != nil {
		t.Fatal(err)
	}
	var got chromeTrace
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatalf("trace output is not valid JSON: %v\n%s", err, buf.String())
	}
	if got.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q, want ms", got.DisplayTimeUnit)
	}
	if len(got.TraceEvents) != 3 {
		t.Fatalf("got %d events, want a process record and 2 spans", len(got.TraceEvents))
	}
	if meta := got.TraceEvents[0]; meta.Ph != "M" || meta.Args["name"] != "soimap" {
		t.Errorf("process record wrong: %+v", meta)
	}
	byName := map[string]int{}
	for i, ev := range got.TraceEvents[1:] {
		byName[ev.Name] = i + 1
		if ev.Pid != 1 || ev.Tid != 1 {
			t.Errorf("%q pid/tid = %d/%d, want 1/1", ev.Name, ev.Pid, ev.Tid)
		}
	}
	in := got.TraceEvents[byName["run"]]
	if in.Ph != "X" || in.Dur == nil || *in.Dur != 0 || in.Args["nodes"] != float64(42) {
		t.Errorf("instant wrong (want a zero-duration span): %+v", in)
	}
	sp := got.TraceEvents[byName["node 3 And"]]
	if sp.Ph != "X" || sp.Dur == nil || sp.Cat != "dp" {
		t.Errorf("span event wrong: %+v", sp)
	}
	if sp.Args["kept"] != float64(2) || sp.Args["cands_a"] != float64(5) {
		t.Errorf("span args wrong: %+v", sp.Args)
	}
}

// TestTracerSpansJoinTraceContext pins what the daemon relies on: a
// tracer built under a sampled trace context records spans that already
// belong to that trace, parented under the context's span with absolute
// timestamps, so the hub takes them without a conversion pass.
func TestTracerSpansJoinTraceContext(t *testing.T) {
	tc := NewTraceContext()
	tr := NewTracer(WithTraceContext(context.Background(), tc), 1)
	start := time.Now()
	tr.Span("pipeline", "strash net", start)
	tr.Span("mapper", "soi dp", start, KV{Key: "kept", Val: 7})
	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("recorded %d spans, want 2", len(spans))
	}
	if spans[0].SpanID == spans[1].SpanID || !isHex(spans[0].SpanID, 16) {
		t.Fatalf("span ids %q, %q: want distinct 16-hex ids", spans[0].SpanID, spans[1].SpanID)
	}
	h := NewTraceHub("replica-0", 4)
	for _, s := range spans {
		if s.TraceID != tc.TraceID || s.ParentID != tc.SpanID {
			t.Fatalf("span %+v not parented under %+v", s, tc)
		}
		if s.StartUS < start.UnixMicro() {
			t.Fatalf("span %q has relative timestamp %d, want absolute epoch µs", s.Name, s.StartUS)
		}
		h.Add(s)
	}
	for _, s := range h.Spans(tc.TraceID) {
		if s.Process != "replica-0" {
			t.Fatalf("hub span %q process %q, want replica-0", s.Name, s.Process)
		}
	}
	if got := len(h.Spans(tc.TraceID)); got != 2 {
		t.Fatalf("hub kept %d of the tracer's spans, want 2", got)
	}

	unsampled := tc
	unsampled.Sampled = false
	off := NewTracer(WithTraceContext(context.Background(), unsampled), 1)
	off.Span("pipeline", "strash net", start)
	if s := off.Spans()[0]; s.TraceID != "" || s.ParentID != "" {
		t.Fatalf("unsampled context: span joined trace %q under %q", s.TraceID, s.ParentID)
	}
}

func TestTracerSampling(t *testing.T) {
	tr := NewTracer(context.Background(), 3)
	recorded := 0
	for id := 0; id < 12; id++ {
		if tr.SampleNode(id) {
			recorded++
		}
	}
	if recorded != 4 { // ids 0, 3, 6, 9
		t.Errorf("sample=3 recorded %d of 12 nodes, want 4", recorded)
	}
	// sampleEvery <= 1 records everything.
	all := NewTracer(context.Background(), 0)
	for id := 0; id < 5; id++ {
		if !all.SampleNode(id) {
			t.Fatalf("sample<=1 skipped node %d", id)
		}
	}
}

func TestNilTracerIsDisabled(t *testing.T) {
	var tr *Tracer
	if tr.SampleNode(0) {
		t.Error("nil tracer samples nodes")
	}
	tr.Span("c", "n", time.Time{})
	tr.Span("dp", "node 1 And", time.Now(), KV{"kept", 3})
	tr.Instant("c", "n")
	if tr.Spans() != nil {
		t.Error("nil tracer has spans")
	}
	var buf bytes.Buffer
	if err := WriteSpans(&buf, tr.Spans()); err != nil {
		t.Fatal(err)
	}
	var got chromeTrace
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatalf("nil tracer output invalid: %v", err)
	}
	if len(got.TraceEvents) != 0 {
		t.Errorf("nil tracer wrote %d events", len(got.TraceEvents))
	}
}
