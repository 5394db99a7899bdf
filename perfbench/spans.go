package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call the benchmark made into a layer of the
// program: name, start, end and the span that caused it. Spans of one
// operation share Op. The benchmark records them itself, around public
// functions; nothing inside the program is instrumented.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"` // -1 for an operation's root
	Op     int           `json:"op"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// recorder keeps spans in memory for one goroutine. Spans nest: a span
// started while another is open is its child.
type recorder struct {
	epoch time.Time
	spans []span
	open  []int
	op    int
}

func newRecorder(epoch time.Time) *recorder { return &recorder{epoch: epoch} }

// beginOp starts a new operation and its root span.
func (r *recorder) beginOp(name string) int {
	r.op++
	return r.begin(name)
}

func (r *recorder) begin(name string) int {
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: r.op, Name: name, Start: time.Since(r.epoch)})
	r.open = append(r.open, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (r *recorder) end(id int) time.Duration {
	r.spans[id].End = time.Since(r.epoch)
	r.open = r.open[:len(r.open)-1]
	return r.spans[id].End - r.spans[id].Start
}

// do runs f inside a span named name; on a nil recorder it only runs f.
func (r *recorder) do(name string, f func() error) error {
	if r == nil {
		return f()
	}
	id := r.begin(name)
	err := f()
	r.end(id)
	return err
}

// selfTimes sums, per span name, each span's duration minus the part its
// children cover: the time spent in that layer itself.
func selfTimes(spans []span) map[string]time.Duration {
	child := make(map[int]time.Duration)
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.Name] += s.End - s.Start - child[s.ID]
	}
	return out
}

// totals sums the full duration of every span per name.
func totals(spans []span) map[string]time.Duration {
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.Name] += s.End - s.Start
	}
	return out
}

// writeSpans writes the spans of a traced run as a JSON array ordered by
// start time.
func writeSpans(path string, spans []span) error {
	s := append([]span(nil), spans...)
	sort.SliceStable(s, func(i, j int) bool { return s[i].Start < s[j].Start })
	b, err := json.Marshal(s)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
