package service

import (
	"context"
	"net/http"
	"testing"

	"soidomino/internal/bench"
	"soidomino/internal/mapper"
)

var encodeSink []byte

// BenchmarkEncodeJSON renders each keying-suite circuit's default SOI
// mapping in the wire form, the last layer of a miss and the body of
// every cached answer.
func BenchmarkEncodeJSON(b *testing.B) {
	for _, n := range bench.KeyingSuite() {
		res, err := mapNetwork(context.Background(), n.Name, n, "soi", mapper.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		r := decodeResult(b, res)
		b.Run(n.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out, err := EncodeJSON(r)
				if err != nil {
					b.Fatal(err)
				}
				encodeSink = out
			}
		})
	}
}

// discardResponse is an http.ResponseWriter that drops the body and
// keeps one header map, so a benchmark loop measures only the writer.
type discardResponse struct {
	h http.Header
	n int
}

func (d *discardResponse) Header() http.Header         { return d.h }
func (d *discardResponse) WriteHeader(int)             {}
func (d *discardResponse) Write(p []byte) (int, error) { d.n += len(p); return len(p), nil }

// BenchmarkViewWrite writes the replica's answer to a submission that
// hit a cached result of each keying-suite circuit: the whole cost of a
// local LRU hit after keying.
func BenchmarkViewWrite(b *testing.B) {
	for _, n := range bench.KeyingSuite() {
		r, err := mapNetwork(context.Background(), n.Name, n, "soi", mapper.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		j := &job{id: "j1", circuit: n.Name, algo: "soi", cached: true, state: JobDone, result: r,
			attribution: NewAttribution("soimapd", "", TierLocal, 0, 0, nil)}
		b.Run(n.Name, func(b *testing.B) {
			w := &discardResponse{h: http.Header{}}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				writeView(w, http.StatusOK, j)
			}
			b.ReportMetric(float64(w.n)/float64(b.N), "body-B/op")
		})
	}
}
