package blif

import (
	"bytes"
	"testing"

	"soidomino/internal/bench"
	"soidomino/internal/logic"
)

var parseSink *logic.Network

// BenchmarkParseBLIF parses the keying suite rendered as BLIF text, the
// first layer of a request key for an inline-BLIF submission.
func BenchmarkParseBLIF(b *testing.B) {
	for _, n := range bench.KeyingSuite() {
		var buf bytes.Buffer
		if err := Write(&buf, n); err != nil {
			b.Fatal(err)
		}
		text := buf.String()
		b.Run(n.Name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(text)))
			for i := 0; i < b.N; i++ {
				n, err := ParseString(text)
				if err != nil {
					b.Fatal(err)
				}
				parseSink = n
			}
		})
	}
}
