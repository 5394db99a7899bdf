package obs

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

// chromeTrace mirrors the subset of the Chrome trace-event format the
// tracer emits, for round-trip validation.
type chromeTrace struct {
	TraceEvents []struct {
		Name string           `json:"name"`
		Cat  string           `json:"cat"`
		Ph   string           `json:"ph"`
		Pid  int              `json:"pid"`
		Tid  int              `json:"tid"`
		TS   int64            `json:"ts"`
		Dur  *int64           `json:"dur"`
		S    string           `json:"s"`
		Args map[string]int64 `json:"args"`
	} `json:"traceEvents"`
	DisplayTimeUnit string `json:"displayTimeUnit"`
}

func TestTracerWriteToIsValidChromeTrace(t *testing.T) {
	tr := NewTracer(1)
	start := tr.Now()
	tr.Instant("mapper", "run", KV{"nodes", 42})
	tr.Span("dp", "node 3 And", start, KV{"kept", 2}, KV{"cands_a", 5})
	if tr.Len() != 2 {
		t.Fatalf("Len = %d after an instant and a span, want 2", tr.Len())
	}

	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	var got chromeTrace
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatalf("trace output is not valid JSON: %v\n%s", err, buf.String())
	}
	if got.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q, want ms", got.DisplayTimeUnit)
	}
	if len(got.TraceEvents) != 2 {
		t.Fatalf("got %d events, want 2", len(got.TraceEvents))
	}
	in := got.TraceEvents[0]
	if in.Ph != "i" || in.S != "g" || in.Args["nodes"] != 42 {
		t.Errorf("instant event wrong: %+v", in)
	}
	sp := got.TraceEvents[1]
	if sp.Ph != "X" || sp.Dur == nil || sp.Cat != "dp" || sp.Name != "node 3 And" {
		t.Errorf("span event wrong: %+v", sp)
	}
	if sp.Args["kept"] != 2 || sp.Args["cands_a"] != 5 {
		t.Errorf("span args wrong: %+v", sp.Args)
	}
	if in.Pid != 1 || in.Tid != 1 {
		t.Errorf("pid/tid = %d/%d, want 1/1", in.Pid, in.Tid)
	}
}

func TestTracerSampling(t *testing.T) {
	tr := NewTracer(3)
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
	all := NewTracer(0)
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
	if !tr.Now().IsZero() {
		t.Error("nil tracer Now() is not the zero time")
	}
	tr.Span("c", "n", time.Time{})
	tr.Span("dp", "node 1 And", tr.Now(), KV{"kept", 3})
	tr.Instant("c", "n")
	if tr.Len() != 0 {
		t.Error("nil tracer has events")
	}
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
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
