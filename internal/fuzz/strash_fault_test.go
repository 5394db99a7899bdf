package fuzz

import (
	"context"
	"fmt"
	"os"
	"sort"
	"testing"

	"soidomino/internal/faultpoint"
	"soidomino/internal/logic"
	"soidomino/internal/mapper"
	"soidomino/internal/strash"
)

// strashFaultConfig narrows the campaign to the strash front-end: one
// variant (SOI area/k1/footless/plain) and the equivalence oracle. A
// bad merge in the front-end corrupts every variant identically, so one
// grid point attributes it, and each shrink predicate evaluation costs
// a single mapper run.
func strashFaultConfig() Config {
	cfg := DefaultConfig()
	opt := mapper.DefaultOptions()
	opt.BaselineStackOrder = mapper.OrderHashed
	cfg.Variants = []Variant{{Name: variantName(mapper.SOI, opt), Algo: mapper.SOI, Opt: opt}}
	cfg.Oracles = []Oracle{{Name: "equivalence", Check: checkEquivalence}}
	cfg.Cross = []CrossOracle{}
	return cfg
}

// badMergeContext arms the strash bad-merge Flip fault unconditionally:
// every OR gate is hash-consed under an AND signature, so any case
// whose cone holds an AND/OR pair over the same operands merges them
// and breaks functional equivalence.
func badMergeContext(ctx context.Context) context.Context {
	reg := faultpoint.New(1)
	reg.Arm(strash.PointBadMerge, faultpoint.Fault{Kind: faultpoint.Flip, Prob: 1})
	return faultpoint.With(ctx, reg)
}

// TestStrashBadMergeCaughtAndShrunk is the front-end's acceptance
// demonstration, mirroring the SOI-reorder one: deliberately corrupt
// the hash-cons key (strash.PointBadMerge), show the campaign's
// equivalence oracle catches the resulting wrong merges, and shrink the
// first failing network to a small repro that still fails under the
// fault.
func TestStrashBadMergeCaughtAndShrunk(t *testing.T) {
	ctx := badMergeContext(context.Background())
	cfg := strashFaultConfig()
	cfg.Cases = 120
	cfg.Workers = 4
	e := New(cfg)
	sum, err := e.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Violations) == 0 {
		t.Fatal("bad-merge fault injected but no violation found")
	}
	for _, v := range sum.Violations {
		if v.Oracle != "equivalence" {
			t.Errorf("unexpected oracle %q under bad-merge fault: %s", v.Oracle, v)
		}
	}
	t.Logf("caught %d violations, first: %s", len(sum.Violations), sum.Violations[0])

	// Not every repro shrinks: a bad merge can hinge on dead logic (the
	// cons pass runs before DCE), and the shrinker's GC normalization
	// legitimately refuses those. At least one case must reduce to a
	// small repro, and that repro must still fail under the fault while
	// passing clean — exactly the property corpus replay relies on.
	best := -1
	for _, v := range sum.Violations {
		net := cfg.CaseNetwork(v.Case)
		shrunk := e.ShrinkFailure(ctx, net, "equivalence")
		if shrunk.Len() >= net.Len() {
			continue
		}
		t.Logf("case %d shrunk %d -> %d nodes", v.Case, net.Len(), shrunk.Len())
		if vs := e.CheckNetwork(ctx, shrunk); len(vs) == 0 {
			t.Error("shrunk repro no longer fails under the armed fault")
		}
		if vs := e.CheckNetwork(context.Background(), shrunk); len(vs) != 0 {
			t.Errorf("shrunk repro fails without the fault: %v", vs)
		}
		if best < 0 || shrunk.Len() < best {
			best = shrunk.Len()
		}
	}
	if best < 0 {
		t.Fatal("no bad-merge repro shrank")
	}
	if best > 15 {
		t.Errorf("smallest shrunk repro has %d nodes, want <= 15", best)
	}
}

// TestGenerateStrashCorpus (re)seeds the checked-in corpus with strash
// bad-merge repros, the same way TestGenerateFaultCorpus does for the
// SOI reorder rule: run the narrow campaign under the armed Flip fault
// with persistence enabled, writing shrunk entries that healthy code
// replays green while pinning the AND/OR-twin structures the hash-cons
// key must keep apart.
//
// Skipped unless SOIFUZZ_GEN_CORPUS=1:
//
//	SOIFUZZ_GEN_CORPUS=1 go test -run TestGenerateStrashCorpus ./internal/fuzz/
func TestGenerateStrashCorpus(t *testing.T) {
	if os.Getenv("SOIFUZZ_GEN_CORPUS") == "" {
		t.Skip("set SOIFUZZ_GEN_CORPUS=1 to regenerate the corpus")
	}
	ctx := badMergeContext(context.Background())
	cfg := strashFaultConfig()
	cfg.Cases = 400
	e := New(cfg)
	sum, err := e.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// Shrink every finding and persist the smallest repros: bad merges
	// that hinge on dead logic refuse to shrink (see the acceptance
	// test) and would only bloat the corpus, so they are skipped.
	type cand struct {
		v   Violation
		net *logic.Network
	}
	var cands []cand
	for _, v := range sum.Violations {
		net := cfg.CaseNetwork(v.Case)
		if s := e.ShrinkFailure(ctx, net, "equivalence"); s.Len() < net.Len() {
			cands = append(cands, cand{v, s})
		}
	}
	if len(cands) == 0 {
		t.Fatal("campaign produced no shrinkable bad-merge repros")
	}
	sort.Slice(cands, func(i, j int) bool {
		if a, b := cands[i].net.Len(), cands[j].net.Len(); a != b {
			return a < b
		}
		return cands[i].v.Case < cands[j].v.Case
	})
	if len(cands) > 2 {
		cands = cands[:2]
	}
	for _, c := range cands {
		m := Manifest{
			Name:    fmt.Sprintf("strash-badmerge-%06d", c.v.Case),
			Oracle:  c.v.Oracle,
			Variant: c.v.Variant,
			Detail:  c.v.Detail,
			Note:    "captured under strash.bad-merge (Flip armed); healthy strash must pass it",
			RunSeed: cfg.Seed,
			Case:    c.v.Case,
			Shrunk:  true,
		}
		if err := WriteEntry(corpusDir, m, c.net); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote corpus entry %s (%d nodes)", m.Name, c.net.Len())
	}
}
