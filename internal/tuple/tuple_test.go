package tuple

import (
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"
)

func areaCost(t Tuple) int { return int(t.NTrans + t.NClock + t.NDisch) }

// areaLess mirrors the SOI mapper's ordering: cost, then p_dis.
func areaLess(a, b Tuple) bool {
	if ca, cb := areaCost(a), areaCost(b); ca != cb {
		return ca < cb
	}
	return a.PDis < b.PDis
}

// entryOf returns the finished table's tuple for key k.
func entryOf(tb Table, k Key) (Tuple, Deriv, bool) {
	for i, t := range tb.Tuples {
		if t.Key() == k {
			return t, tb.Derivs[i], true
		}
	}
	return Tuple{}, Deriv{}, false
}

func TestKeyString(t *testing.T) {
	if got := (Key{2, 3}).String(); got != "{2,3}" {
		t.Errorf("Key.String = %q", got)
	}
}

func TestTupleKey(t *testing.T) {
	tu := Tuple{W: 3, H: 4}
	if tu.Key() != (Key{3, 4}) {
		t.Errorf("Key() = %v", tu.Key())
	}
}

// TestStateSizes pins the compact layout the combine loop copies: a
// pointer-free 40-byte tuple and a 20-byte derivation.
func TestStateSizes(t *testing.T) {
	if n := unsafe.Sizeof(Tuple{}); n != 40 {
		t.Errorf("sizeof(Tuple) = %d, want 40", n)
	}
	if n := unsafe.Sizeof(Deriv{}); n != 20 {
		t.Errorf("sizeof(Deriv) = %d, want 20", n)
	}
}

func TestInsertKeepsBest(t *testing.T) {
	g := NewGrid(4, 4, areaLess)
	if !g.Insert(Tuple{W: 2, H: 2, NTrans: 10}, Deriv{A: Choice{Node: 1}}) {
		t.Error("first insert should succeed")
	}
	if !g.Insert(Tuple{W: 2, H: 2, NTrans: 4}, Deriv{A: Choice{Node: 2}}) {
		t.Error("better insert should succeed")
	}
	if g.Insert(Tuple{W: 2, H: 2, NTrans: 9}, Deriv{A: Choice{Node: 3}}) {
		t.Error("worse insert should be rejected")
	}
	if g.Len() != 1 {
		t.Errorf("Len = %d, want 1", g.Len())
	}
	tb := g.Finish()
	got, d, ok := entryOf(tb, Key{2, 2})
	if !ok || got.NTrans != 4 {
		t.Errorf("kept NTrans = %d, want 4", got.NTrans)
	}
	if d.A.Node != 2 {
		t.Errorf("kept derivation from node %d, want the winner's (2)", d.A.Node)
	}
	if tb.Len() != 1 || len(tb.Derivs) != 1 {
		t.Errorf("table sizes %d/%d, want 1/1", tb.Len(), len(tb.Derivs))
	}
}

func TestInsertTieKeepsIncumbent(t *testing.T) {
	g := NewGrid(4, 4, areaLess)
	first := Tuple{W: 2, H: 2, NTrans: 4, NGates: 1}
	second := Tuple{W: 2, H: 2, NTrans: 4, NGates: 2}
	g.Insert(first, Deriv{})
	if g.Insert(second, Deriv{}) {
		t.Error("tie should keep the incumbent")
	}
	if got, _, _ := entryOf(g.Finish(), Key{2, 2}); got.NGates != 1 {
		t.Error("incumbent replaced on tie")
	}
}

func TestInsertPDisTieBreak(t *testing.T) {
	g := NewGrid(4, 4, areaLess)
	g.Insert(Tuple{W: 2, H: 2, NTrans: 4, PDis: 3}, Deriv{})
	if !g.Insert(Tuple{W: 2, H: 2, NTrans: 4, PDis: 1}, Deriv{}) {
		t.Error("lower p_dis at equal cost should win (paper's tie-break)")
	}
	if got, _, _ := entryOf(g.Finish(), Key{2, 2}); got.PDis != 1 {
		t.Error("p_dis tie-break not applied")
	}
}

func TestInsertSeparateKeys(t *testing.T) {
	g := NewGrid(4, 4, areaLess)
	g.Insert(Tuple{W: 1, H: 2, NTrans: 2}, Deriv{})
	g.Insert(Tuple{W: 2, H: 1, NTrans: 9}, Deriv{})
	if g.Len() != 2 {
		t.Errorf("Len = %d, want 2", g.Len())
	}
	// Out-of-bounds shapes are rejected, not stored.
	if g.Insert(Tuple{W: 5, H: 1}, Deriv{}) || g.Insert(Tuple{W: 1, H: 5}, Deriv{}) {
		t.Error("insert beyond the grid's bounds accepted")
	}
}

func TestBestEmptyTable(t *testing.T) {
	if _, ok := NewGrid(2, 2, areaLess).Finish().Best(areaLess); ok {
		t.Error("Best on empty table should report false")
	}
}

func TestBestPicksMinimum(t *testing.T) {
	g := NewGrid(4, 4, areaLess)
	g.Insert(Tuple{W: 1, H: 2, NTrans: 7}, Deriv{})
	g.Insert(Tuple{W: 2, H: 2, NTrans: 4}, Deriv{})
	g.Insert(Tuple{W: 2, H: 1, NTrans: 16}, Deriv{})
	tb := g.Finish()
	best, ok := tb.Best(areaLess)
	if !ok || tb.Tuples[best].NTrans != 4 {
		t.Errorf("Best = %+v, ok=%v", tb.Tuples[best], ok)
	}
}

func TestBestDeterministicOnFullTie(t *testing.T) {
	// Identical tuples except W/H, inserted in any order: the
	// {W,H}-smallest must win every time.
	rng := rand.New(rand.NewSource(1))
	keys := []Key{{3, 1}, {1, 3}, {2, 2}}
	g := NewGrid(4, 4, areaLess)
	for trial := 0; trial < 50; trial++ {
		rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
		for _, k := range keys {
			g.Insert(Tuple{W: k.W, H: k.H, NTrans: 4}, Deriv{})
		}
		tb := g.Finish()
		best, _ := tb.Best(areaLess)
		if k := tb.Tuples[best].Key(); k != (Key{1, 3}) {
			t.Fatalf("trial %d: Best picked %v, want {1,3}", trial, k)
		}
	}
}

// TestSortedKeys: a finished table lists its tuples in (W, H) order
// whatever the insertion order, and Finish leaves the grid empty.
func TestSortedKeys(t *testing.T) {
	g := NewGrid(4, 4, areaLess)
	for _, k := range []Key{{3, 1}, {1, 2}, {2, 2}, {1, 1}, {2, 1}} {
		g.Insert(Tuple{W: k.W, H: k.H}, Deriv{})
	}
	tb := g.Finish()
	want := []Key{{1, 1}, {1, 2}, {2, 1}, {2, 2}, {3, 1}}
	if tb.Len() != len(want) {
		t.Fatalf("table = %v", tb.Tuples)
	}
	for i := range want {
		if tb.Tuples[i].Key() != want[i] {
			t.Fatalf("table order = %v, want %v", tb.Tuples, want)
		}
	}
	if g.Len() != 0 || g.Finish().Len() != 0 {
		t.Error("Finish did not empty the grid")
	}
}

// Property: Insert never stores a tuple strictly worse than an existing
// one, Best returns a tuple no worse than any table entry, and the
// finished table is in strict (W,H) order with one derivation per tuple.
func TestTableInvariantsQuick(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(9))}
	g := NewGrid(4, 4, areaLess)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var all []Tuple
		for i := 0; i < 30; i++ {
			tu := Tuple{
				W:      int16(1 + rng.Intn(4)),
				H:      int16(1 + rng.Intn(4)),
				NTrans: int32(rng.Intn(20)),
				NDisch: int32(rng.Intn(5)),
				PDis:   int32(rng.Intn(5)),
			}
			all = append(all, tu)
			g.Insert(tu, Deriv{A: Choice{Node: int32(i)}})
		}
		tb := g.Finish()
		best, ok := tb.Best(areaLess)
		if !ok || len(tb.Derivs) != tb.Len() {
			return false
		}
		for i, tu := range tb.Tuples {
			if areaLess(tu, tb.Tuples[best]) {
				return false
			}
			if all[tb.Derivs[i].A.Node] != tu {
				return false // derivation does not belong to its tuple
			}
			for _, o := range all {
				if o.Key() == tu.Key() && areaLess(o, tu) {
					return false
				}
			}
			if i > 0 {
				p := tb.Tuples[i-1]
				if p.W > tu.W || (p.W == tu.W && p.H >= tu.H) {
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
