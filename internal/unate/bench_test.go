package unate

import (
	"testing"

	"soidomino/internal/bench"
	"soidomino/internal/decompose"
	"soidomino/internal/strash"
)

var unateSink *Result

// BenchmarkUnate converts the strashed, decomposed keying suite to the
// unate network the DP maps, the last front-end layer.
func BenchmarkUnate(b *testing.B) {
	for _, n := range bench.KeyingSuite() {
		d, err := decompose.Decompose(strash.Run(n).Network)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(n.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				u, err := Convert(d)
				if err != nil {
					b.Fatal(err)
				}
				unateSink = u
			}
		})
	}
}
