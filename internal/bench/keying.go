package bench

import "soidomino/internal/logic"

// KeyingSuite builds the fixed circuit set of the per-layer keying
// benchmarks (BLIF parse, strash, canon and the service request key):
// the four suite circuits the repository benchmark maps, plus one seeded
// 1000-gate Random network shaped like the larger inline-BLIF
// submissions of its hot-hits workload.
func KeyingSuite() []*logic.Network {
	var out []*logic.Network
	for _, name := range []string{"mux", "des", "c3540", "c7552"} {
		out = append(out, MustBuild(name))
	}
	p := DefaultRandParams(1)
	p.Name = "rand1000"
	p.Gates = 1000
	p.Inputs = p.Gates * 60 / 520
	p.Outputs = p.Gates * 26 / 520
	return append(out, Random(p))
}
