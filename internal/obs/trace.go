package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// KV is one integer argument attached to a trace event. Chrome's trace
// format allows arbitrary JSON args; the DP only ever attaches counters,
// so a flat int pair keeps event recording allocation-light.
type KV struct {
	Key string
	Val int64
}

// traceEvent is one Chrome trace-event record. Only "complete" (ph "X")
// and "instant" (ph "i") events are emitted; timestamps and durations are
// microseconds from the tracer's start, which is what Perfetto expects.
type traceEvent struct {
	name string
	cat  string
	ph   byte
	ts   int64 // µs since tracer start
	dur  int64 // µs, complete events only
	args []KV
}

// Tracer records spans of one (or several sequential) mapping runs and
// writes them as Chrome trace-event JSON, loadable at ui.perfetto.dev or
// chrome://tracing. Recording methods are nil-receiver safe; a nil
// *Tracer is the disabled tracer. The tracer is internally locked so the
// daemon can share one across phases; per-node DP events come from the
// run's single DP loop.
type Tracer struct {
	start  time.Time
	sample int

	mu     sync.Mutex
	events []traceEvent
}

// NewTracer builds a tracer that records every sampleEvery-th per-node DP
// event (1 or less records all of them). Phase spans and instants are
// never sampled away — a full trace of an MCNC-sized circuit is a few
// thousand events, but the per-node firehose is what the knob bounds.
func NewTracer(sampleEvery int) *Tracer {
	if sampleEvery < 1 {
		sampleEvery = 1
	}
	return &Tracer{start: time.Now(), sample: sampleEvery}
}

// SampleNode reports whether per-node events for node id should be
// recorded under the sampling knob.
func (t *Tracer) SampleNode(id int) bool {
	return t != nil && (t.sample <= 1 || id%t.sample == 0)
}

// Now returns the tracer's clock reading, the start argument for a later
// Span. The zero time is returned on a nil tracer so disabled call sites
// stay branch-free.
func (t *Tracer) Now() time.Time {
	if t == nil {
		return time.Time{}
	}
	return time.Now()
}

// Span records a completed span from start to now. kv values are attached
// as event args (shown in the Perfetto side panel).
func (t *Tracer) Span(cat, name string, start time.Time, kv ...KV) {
	if t == nil {
		return
	}
	now := time.Now()
	ev := traceEvent{
		name: name,
		cat:  cat,
		ph:   'X',
		ts:   start.Sub(t.start).Microseconds(),
		dur:  now.Sub(start).Microseconds(),
		args: kv,
	}
	if ev.ts < 0 {
		ev.ts = 0
	}
	t.mu.Lock()
	t.events = append(t.events, ev)
	t.mu.Unlock()
}

// Instant records a zero-duration marker event.
func (t *Tracer) Instant(cat, name string, kv ...KV) {
	if t == nil {
		return
	}
	ev := traceEvent{
		name: name,
		cat:  cat,
		ph:   'i',
		ts:   time.Since(t.start).Microseconds(),
		args: kv,
	}
	t.mu.Lock()
	t.events = append(t.events, ev)
	t.mu.Unlock()
}

// Len returns the number of recorded events.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// WriteTo renders the recorded events as a Chrome trace-event JSON object
// ({"traceEvents": [...], "displayTimeUnit": "ms"}).
func (t *Tracer) WriteTo(w io.Writer) (int64, error) {
	if t == nil {
		n, err := io.WriteString(w, `{"traceEvents":[],"displayTimeUnit":"ms"}`+"\n")
		return int64(n), err
	}
	t.mu.Lock()
	events := t.events
	t.mu.Unlock()

	var total int64
	emit := func(s string) error {
		n, err := io.WriteString(w, s)
		total += int64(n)
		return err
	}
	if err := emit(`{"traceEvents":[` + "\n"); err != nil {
		return total, err
	}
	for i, ev := range events {
		sep := ","
		if i == len(events)-1 {
			sep = ""
		}
		if err := emit(marshalEvent(ev) + sep + "\n"); err != nil {
			return total, err
		}
	}
	err := emit(`],"displayTimeUnit":"ms"}` + "\n")
	return total, err
}

// marshalEvent renders one event. Hand-assembled from json-marshaled
// fragments so arg order follows the recording order (a map would
// alphabetize it).
func marshalEvent(ev traceEvent) string {
	name, _ := json.Marshal(ev.name)
	cat, _ := json.Marshal(ev.cat)
	s := fmt.Sprintf(`{"name":%s,"cat":%s,"ph":%q,"pid":1,"tid":1,"ts":%d`,
		name, cat, string(ev.ph), ev.ts)
	if ev.ph == 'X' {
		s += fmt.Sprintf(`,"dur":%d`, ev.dur)
	}
	if ev.ph == 'i' {
		s += `,"s":"g"` // global instant scope
	}
	if len(ev.args) > 0 {
		s += `,"args":{`
		for i, kv := range ev.args {
			if i > 0 {
				s += ","
			}
			k, _ := json.Marshal(kv.Key)
			s += fmt.Sprintf(`%s:%d`, k, kv.Val)
		}
		s += "}"
	}
	return s + "}"
}
