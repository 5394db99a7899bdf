package service

import (
	"bytes"
	"context"
	"testing"

	"soidomino/internal/bench"
	"soidomino/internal/blif"
)

var keySink string

// BenchmarkRequestKey computes the cache/routing key of an inline-BLIF
// submission of each keying-suite circuit from scratch: parse, strash,
// canon hash and option encoding, what each process pays for bytes it
// has not keyed before.
func BenchmarkRequestKey(b *testing.B) {
	ctx := context.Background()
	for _, n := range bench.KeyingSuite() {
		var buf bytes.Buffer
		if err := blif.Write(&buf, n); err != nil {
			b.Fatal(err)
		}
		req := &MapRequest{BLIF: buf.String()}
		b.Run(n.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				key, err := RequestKey(ctx, req)
				if err != nil {
					b.Fatal(err)
				}
				keySink = key
			}
		})
	}
}
