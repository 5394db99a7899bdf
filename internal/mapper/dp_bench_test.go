package mapper_test

import (
	"context"
	"testing"

	"soidomino/internal/bench"
	"soidomino/internal/mapper"
	"soidomino/internal/report"
)

// BenchmarkDP measures the mapper alone — DP and traceback — on the
// batch benchmark's circuits, each prepared once through the default
// pipeline (strash, decompose, unate) outside the timed loop. Run with
// -benchmem: B/op and allocs/op track the DP state layout.
//
//	go test -run '^$' -bench BenchmarkDP -benchmem -cpu 1 ./internal/mapper
func BenchmarkDP(b *testing.B) {
	for _, circuit := range []string{"mux", "des", "c3540", "c7552"} {
		pipe, err := report.PrepareNetwork(bench.MustBuild(circuit))
		if err != nil {
			b.Fatal(err)
		}
		for _, v := range []struct {
			name   string
			alg    mapper.Algorithm
			pareto bool
		}{
			{"domino", mapper.Domino, false},
			{"soi", mapper.SOI, false},
			{"soi-pareto", mapper.SOI, true},
		} {
			b.Run(circuit+"/"+v.name, func(b *testing.B) {
				opt := mapper.DefaultOptions()
				opt.Pareto = v.pareto
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := mapper.Map(context.Background(), v.alg, pipe.Unate, opt); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
