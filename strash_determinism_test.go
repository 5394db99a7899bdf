package soidomino

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"soidomino/internal/benchfmt"
	"soidomino/internal/blif"
	"soidomino/internal/cluster"
	"soidomino/internal/logic"
	"soidomino/internal/mapper"
	"soidomino/internal/report"
	"soidomino/internal/service"
	"soidomino/internal/strash"
	"soidomino/internal/verify"
)

// testdataCircuits loads every circuit under testdata/ (the committed
// BLIF/bench files plus the fuzz corpus), the circuit set the
// strash-determinism gate sweeps.
func testdataCircuits(t testing.TB) map[string]*logic.Network {
	t.Helper()
	out := make(map[string]*logic.Network)
	add := func(path string) {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		var n *logic.Network
		if strings.HasSuffix(path, ".bench") {
			n, err = benchfmt.Parse(path, f)
		} else {
			n, err = blif.Parse(f)
		}
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		out[filepath.Base(path)] = n
	}
	for _, pat := range []string{"testdata/*.blif", "testdata/*.bench", "testdata/fuzz/corpus/*.blif"} {
		paths, err := filepath.Glob(pat)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range paths {
			add(p)
		}
	}
	if len(out) < 5 {
		t.Fatalf("expected at least 5 testdata circuits, found %d", len(out))
	}
	return out
}

// TestStrashDeterminismGate is the `make strash-determinism` gate: over
// every committed testdata circuit, the strash front-end must be
// byte-stable across repeated runs and idempotent. Any instability here
// would split the cluster's cache and break the routing-key golden.
func TestStrashDeterminismGate(t *testing.T) {
	for name, src := range testdataCircuits(t) {
		r1 := strash.Run(src)
		if err := r1.Network.Check(); err != nil {
			t.Fatalf("%s: strash output invalid: %v", name, err)
		}
		d1 := r1.Network.Dump()
		for run := 0; run < 3; run++ {
			if d2 := strash.Run(src).Network.Dump(); d2 != d1 {
				t.Fatalf("%s: run %d differs from run 0:\n%s\nvs\n%s", name, run+1, d1, d2)
			}
		}
		again := strash.Run(r1.Network)
		if d2 := again.Network.Dump(); d2 != d1 {
			t.Fatalf("%s: strash is not idempotent:\n%s\nvs\n%s", name, d1, d2)
		}
		if again.Counters.Merged != 0 || again.Counters.Dead != 0 {
			t.Fatalf("%s: re-strash still reduced: %+v", name, again.Counters)
		}
	}
}

// TestStrashOnOffEquivalent pins the correctness half of the tentpole
// contract on real circuits: for every committed testdata circuit and
// every mapper, the strash-on and strash-off pipelines both produce
// mappings functionally equivalent to the submitted network (and so to
// each other).
func TestStrashOnOffEquivalent(t *testing.T) {
	for name, src := range testdataCircuits(t) {
		for _, strashOff := range []bool{false, true} {
			pipe, err := report.PrepareNetworkMode(context.Background(), src, strashOff)
			if err != nil {
				t.Fatalf("%s strashOff=%t: prepare: %v", name, strashOff, err)
			}
			for _, algo := range []report.Algorithm{report.Domino, report.SOI} {
				res, err := pipe.Map(algo, mapper.DefaultOptions(), false)
				if err != nil {
					t.Fatalf("%s/%s strashOff=%t: %v", name, algo, strashOff, err)
				}
				if err := verify.MustBeEquivalent(src, res, verify.DefaultOptions()); err != nil {
					t.Fatalf("%s/%s strashOff=%t: %v", name, algo, strashOff, err)
				}
			}
		}
	}
}

// TestStrashSharesRouterShard closes the cluster loop of the tentpole:
// two structurally identical but textually different submissions resolve
// to one routing key and therefore one shard preference list on the
// router's consistent-hash ring — one replica maps, everyone else hits
// its cache.
func TestStrashSharesRouterShard(t *testing.T) {
	tidy := `.model shardme
.inputs a b c
.outputs y
.names a b t0
11 1
.names t0 c y
1- 1
-1 1
.end
`
	// Same circuit: t0 renamed, operands flipped, plus a dead gate.
	scrambled := `.model shardme
.inputs a b c
.outputs y
.names b a q7
11 1
.names a c junk
11 1
.names q7 c y
1- 1
-1 1
.end
`
	k1, err := service.RequestKey(context.Background(), &service.MapRequest{BLIF: tidy})
	if err != nil {
		t.Fatal(err)
	}
	k2, err := service.RequestKey(context.Background(), &service.MapRequest{BLIF: scrambled})
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Fatalf("routing keys differ:\n  %s\n  %s", k1, k2)
	}
	ring := cluster.NewRing([]string{"http://r0", "http://r1", "http://r2", "http://r3"}, 64)
	p1, p2 := ring.Prefer(k1, 2), ring.Prefer(k2, 2)
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("shard preference diverged: %v vs %v", p1, p2)
		}
	}
}
