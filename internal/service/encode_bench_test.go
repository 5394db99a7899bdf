package service

import (
	"context"
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
		r, err := mapNetwork(context.Background(), n.Name, n, "soi", mapper.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
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
