package tuple

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func fCost(t Tuple) int { return int(t.NTrans + t.NClock + t.NDisch) }

func TestFrontierInsertDominance(t *testing.T) {
	f := NewFrontier(4, 4, fCost)
	a := Tuple{W: 2, H: 2, NTrans: 5, PDis: 2, PDisBot: 1}
	if !f.Insert(a, Deriv{}) {
		t.Fatal("first insert rejected")
	}
	// Dominated on every axis: rejected.
	worse := Tuple{W: 2, H: 2, NTrans: 6, PDis: 3, PDisBot: 2}
	if f.Insert(worse, Deriv{}) {
		t.Error("dominated tuple accepted")
	}
	// Incomparable (cheaper but more potential points): kept alongside.
	inc := Tuple{W: 2, H: 2, NTrans: 4, PDis: 4, PDisBot: 4}
	if !f.Insert(inc, Deriv{}) {
		t.Error("incomparable tuple rejected")
	}
	if f.Len() != 2 {
		t.Errorf("size = %d, want 2", f.Len())
	}
	// A dominator sweeps both out.
	dom := Tuple{W: 2, H: 2, NTrans: 4, PDis: 2, PDisBot: 1}
	if !f.Insert(dom, Deriv{}) {
		t.Error("dominator rejected")
	}
	if f.Len() != 1 {
		t.Errorf("size after sweep = %d, want 1", f.Len())
	}
	if tb := f.Finish(); tb.Len() != 1 || tb.Tuples[0] != dom {
		t.Errorf("finished frontier = %+v, want just the dominator", tb.Tuples)
	}
}

func TestFrontierSeparatesState(t *testing.T) {
	f := NewFrontier(4, 4, fCost)
	// Same {W,H} and costs, different ParB/HasPI: distinct keys.
	f.Insert(Tuple{W: 2, H: 2, NTrans: 4, ParB: true}, Deriv{})
	f.Insert(Tuple{W: 2, H: 2, NTrans: 4, ParB: false}, Deriv{})
	f.Insert(Tuple{W: 2, H: 2, NTrans: 4, ParB: false, HasPI: true}, Deriv{})
	tb := f.Finish()
	if tb.Len() != 3 {
		t.Fatalf("size = %d, want 3", tb.Len())
	}
	// Finished order within a {W,H}: ParB false before true, then HasPI.
	want := []FKey{{Key{2, 2}, false, false}, {Key{2, 2}, false, true}, {Key{2, 2}, true, false}}
	for i, k := range want {
		if got := FKeyOf(tb.Tuples[i]); got != k {
			t.Errorf("entry %d key = %+v, want %+v", i, got, k)
		}
	}
}

func TestFrontierTieKeepsIncumbent(t *testing.T) {
	f := NewFrontier(4, 4, fCost)
	a := Tuple{W: 1, H: 2, NTrans: 3, NGates: 1}
	b := Tuple{W: 1, H: 2, NTrans: 3, NGates: 9} // identical under dominance
	f.Insert(a, Deriv{A: Choice{Node: 1}})
	if f.Insert(b, Deriv{A: Choice{Node: 2}}) {
		t.Error("exact tie should keep the incumbent")
	}
	tb := f.Finish()
	if tb.Len() != 1 || tb.Tuples[0].NGates != 1 || tb.Derivs[0].A.Node != 1 {
		t.Error("incumbent replaced")
	}
}

// TestFrontierLookupBounds: shapes outside the frontier's {W,H} bounds
// are rejected, and every finished entry is addressable with its own
// derivation.
func TestFrontierLookupBounds(t *testing.T) {
	f := NewFrontier(3, 3, fCost)
	if f.Insert(Tuple{W: 4, H: 1, NTrans: 1}, Deriv{}) || f.Insert(Tuple{W: 1, H: 4, NTrans: 1}, Deriv{}) {
		t.Error("out-of-bounds insert accepted")
	}
	f.Insert(Tuple{W: 3, H: 3, NTrans: 1}, Deriv{A: Choice{Node: 7}})
	f.Insert(Tuple{W: 1, H: 1, NTrans: 1}, Deriv{A: Choice{Node: 5}})
	tb := f.Finish()
	if tb.Len() != 2 || len(tb.Derivs) != 2 {
		t.Fatalf("sizes %d/%d, want 2/2", tb.Len(), len(tb.Derivs))
	}
	if tb.Tuples[0].W != 1 || tb.Derivs[0].A.Node != 5 || tb.Tuples[1].W != 3 || tb.Derivs[1].A.Node != 7 {
		t.Errorf("finished frontier out of order: %+v %+v", tb.Tuples, tb.Derivs)
	}
}

func TestFrontierCap(t *testing.T) {
	f := NewFrontier(4, 4, fCost)
	// Build a long antichain: cost i, PDis MaxFrontier*2-i (strictly
	// incomparable pairs).
	n := MaxFrontier * 2
	for i := 0; i < n; i++ {
		f.Insert(Tuple{W: 3, H: 3, NTrans: int32(i), PDis: int32(n - i), PDisBot: int32(n - i)}, Deriv{})
	}
	if f.Len() > MaxFrontier {
		t.Errorf("cap not enforced: %d", f.Len())
	}
	// The cheapest entry must have survived the eviction policy.
	tb := f.Finish()
	best, ok := tb.Best(func(a, b Tuple) bool { return fCost(a) < fCost(b) })
	if !ok || tb.Tuples[best].NTrans != 0 {
		t.Errorf("cheapest entry evicted: %+v", tb.Tuples[best])
	}
}

func TestFrontierAllDeterministic(t *testing.T) {
	build := func(f *Frontier) Table {
		rng := rand.New(rand.NewSource(9))
		for i := 0; i < 40; i++ {
			f.Insert(Tuple{
				W: int16(1 + rng.Intn(3)), H: int16(1 + rng.Intn(3)),
				NTrans: int32(rng.Intn(10)), PDis: int32(rng.Intn(5)),
				ParB: rng.Intn(2) == 0, HasPI: rng.Intn(2) == 0,
			}, Deriv{A: Choice{Node: int32(i)}})
		}
		return f.Finish()
	}
	// A fresh frontier and a reused one (Finish empties it) agree.
	f := NewFrontier(3, 3, fCost)
	a, b, c := build(NewFrontier(3, 3, fCost)), build(f), build(f)
	for _, o := range []Table{b, c} {
		if o.Len() != a.Len() {
			t.Fatal("nondeterministic size")
		}
		for i := range a.Tuples {
			if a.Tuples[i] != o.Tuples[i] || a.Derivs[i] != o.Derivs[i] {
				t.Fatal("nondeterministic order")
			}
		}
	}
}

// Property: no frontier entry dominates another within its key, the
// finished table is grouped in ascending FKey order, and TrimPerKey
// keeps exactly the per-key best.
func TestFrontierInvariantQuick(t *testing.T) {
	cfg := &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(21))}
	less := func(a, b Tuple) bool { return fCost(a) < fCost(b) }
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		fr := NewFrontier(2, 2, fCost)
		for i := 0; i < 50; i++ {
			fr.Insert(Tuple{
				W: int16(1 + rng.Intn(2)), H: int16(1 + rng.Intn(2)),
				NTrans: int32(rng.Intn(12)), NDisch: int32(rng.Intn(4)),
				PDis: int32(rng.Intn(6)), PDisBot: int32(rng.Intn(3)), Depth: int32(rng.Intn(3)),
				ParB: rng.Intn(2) == 0,
			}, Deriv{})
		}
		tb := fr.Finish()
		keys := 0
		for i := range tb.Tuples {
			ki := FKeyOf(tb.Tuples[i])
			if i == 0 || FKeyOf(tb.Tuples[i-1]) != ki {
				keys++
			}
			if i > 0 && fkeyLess(ki, FKeyOf(tb.Tuples[i-1])) {
				return false
			}
			for j := range tb.Tuples {
				if i != j && FKeyOf(tb.Tuples[j]) == ki && dominates(tb.Tuples[i], tb.Tuples[j], fCost) {
					return false
				}
			}
		}
		orig := slices.Clone(tb.Tuples) // TrimPerKey works in place
		trimmed := tb.TrimPerKey(less)
		if trimmed.Len() != keys {
			return false
		}
		for _, tu := range trimmed.Tuples {
			for _, o := range orig {
				if FKeyOf(o) == FKeyOf(tu) && less(o, tu) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func fkeyLess(a, b FKey) bool {
	if a.Key != b.Key {
		return a.Key.W < b.Key.W || (a.Key.W == b.Key.W && a.Key.H < b.Key.H)
	}
	if a.ParB != b.ParB {
		return !a.ParB
	}
	return !a.HasPI && b.HasPI
}
