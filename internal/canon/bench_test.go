package canon

import (
	"testing"

	"soidomino/internal/bench"
	"soidomino/internal/strash"
)

var canonSink string

// BenchmarkCanon hashes the strashed keying suite, the last layer of a
// request key (service.CacheKey hashes the strash output).
func BenchmarkCanon(b *testing.B) {
	for _, n := range bench.KeyingSuite() {
		s := strash.Run(n).Network
		b.Run(n.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				canonSink = Hash(s)
			}
		})
	}
}
