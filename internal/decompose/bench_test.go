package decompose

import (
	"testing"

	"soidomino/internal/bench"
	"soidomino/internal/logic"
	"soidomino/internal/strash"
)

var decomposeSink *logic.Network

// BenchmarkDecompose lowers the strashed keying suite to 2-input
// And/Or form, the first front-end layer after the request key.
func BenchmarkDecompose(b *testing.B) {
	for _, n := range bench.KeyingSuite() {
		s := strash.Run(n).Network
		b.Run(n.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				d, err := Decompose(s)
				if err != nil {
					b.Fatal(err)
				}
				decomposeSink = d
			}
		})
	}
}
