package strash

import (
	"testing"

	"soidomino/internal/bench"
)

var strashSink *Result

// BenchmarkStrash runs the structural-hashing pass over the keying
// suite, the second layer of a request key.
func BenchmarkStrash(b *testing.B) {
	for _, n := range bench.KeyingSuite() {
		b.Run(n.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				strashSink = Run(n)
			}
		})
	}
}
