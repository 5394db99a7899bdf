package mapper_test

import (
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
			pareto bool
			mapFn  func(opt mapper.Options) (*mapper.Result, error)
		}{
			{"domino", false, func(opt mapper.Options) (*mapper.Result, error) { return mapper.DominoMap(pipe.Unate, opt) }},
			{"soi", false, func(opt mapper.Options) (*mapper.Result, error) { return mapper.SOIDominoMap(pipe.Unate, opt) }},
			{"soi-pareto", true, func(opt mapper.Options) (*mapper.Result, error) { return mapper.SOIDominoMap(pipe.Unate, opt) }},
		} {
			b.Run(circuit+"/"+v.name, func(b *testing.B) {
				opt := mapper.DefaultOptions()
				opt.Pareto = v.pareto
				opt.Workers = 1
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := v.mapFn(opt); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
