package mapper

import (
	"context"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"soidomino/internal/decompose"
	"soidomino/internal/logic"
	"soidomino/internal/tuple"
	"soidomino/internal/unate"
)

// fig3Network is the paper's figure 3 example: OR(AND(a,b), AND(c,d)).
func fig3Network() *logic.Network {
	n := logic.New("fig3")
	a := n.AddInput("a")
	b := n.AddInput("b")
	c := n.AddInput("c")
	d := n.AddInput("d")
	n.AddOutput("f", n.AddGate(logic.Or, n.AddGate(logic.And, a, b), n.AddGate(logic.And, c, d)))
	return n
}

// fig2Network is the paper's running example (A+B+C)*D.
func fig2Network() *logic.Network {
	n := logic.New("fig2")
	a := n.AddInput("A")
	b := n.AddInput("B")
	c := n.AddInput("C")
	d := n.AddInput("D")
	or3 := n.AddGate(logic.Or, n.AddGate(logic.Or, a, b), c)
	n.AddOutput("f", n.AddGate(logic.And, or3, d))
	return n
}

func fig3Options() Options {
	opt := DefaultOptions()
	opt.MaxWidth, opt.MaxHeight = 4, 4
	return opt
}

// TestFigure3Tuples pins the DP tuple table of the paper's worked example:
// the AND nodes carry {1,2} structures of cost 2 and form gates of cost 7;
// the OR node's table holds the {2,2} solution of cost 4 and the
// {2,1} both-gates solution of cost 16, and the final gate costs 9.
func TestFigure3Tuples(t *testing.T) {
	n := fig3Network()
	// The network is already decomposed and unate.
	e := newEngine(context.Background(), n, config{Options: fig3Options(), alg: Domino})
	if err := e.process(); err != nil {
		t.Fatal(err)
	}
	andNode := 4 // first AND gate
	at := e.tables[andNode]
	if at.Len() != 1 {
		t.Fatalf("AND table has %d keys, want 1", at.Len())
	}
	if andTuple := at.Tuples[0]; andTuple.Key() != (tuple.Key{W: 1, H: 2}) || andTuple.NTrans != 2 {
		t.Fatalf("AND tuple = %+v (want {1,2} of cost 2)", andTuple)
	}
	if cost := e.tupleCost(e.formed[andNode]); cost != 7 {
		t.Errorf("AND gate cost = %d, want 7 (paper: {1,1,7})", cost)
	}
	orNode := 6
	ot := e.tables[orNode]
	costOf := func(k tuple.Key) (int, bool) {
		for _, tu := range ot.Tuples {
			if tu.Key() == k {
				return e.tupleCost(tu), true
			}
		}
		return 0, false
	}
	if c, ok := costOf(tuple.Key{W: 2, H: 2}); !ok || c != 4 {
		t.Errorf("OR {2,2} tuple cost = %d, ok=%v, want 4", c, ok)
	}
	if c, ok := costOf(tuple.Key{W: 2, H: 1}); !ok || c != 16 {
		t.Errorf("OR {2,1} both-gates tuple cost = %d, ok=%v, want 16", c, ok)
	}
	if cost := e.tupleCost(e.formed[orNode]); cost != 9 {
		t.Errorf("final gate cost = %d, want 9 (paper: {1,1,9})", cost)
	}
	if k := ot.Tuples[e.gateIdx[orNode]].Key(); k != (tuple.Key{W: 2, H: 2}) {
		t.Errorf("gate formed from %v, want {2,2}", k)
	}
}

// TestFigure3EndToEnd checks the mapped netlist: one 9-transistor footed
// gate with no discharge devices.
func TestFigure3EndToEnd(t *testing.T) {
	for _, alg := range []Algorithm{Domino, RS, SOI} {
		res, err := Map(context.Background(), alg, fig3Network(), fig3Options())
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Audit(); err != nil {
			t.Fatal(err)
		}
		if res.Stats.Gates != 1 || res.Stats.TLogic != 9 || res.Stats.TDisch != 0 {
			t.Errorf("%s: stats = %s, want 1 gate, Tlogic 9, Tdisch 0", res.Algorithm, res.Stats)
		}
		if got := res.Gates[0].Tree.String(); got != "a*b+c*d" && got != "c*d+a*b" {
			t.Errorf("%s: tree = %q", res.Algorithm, got)
		}
	}
}

// TestFigure2StackOrder pins the paper's central claim on its running
// example: the bulk baseline leaves the parallel stack on top of D and
// needs a discharge transistor; the SOI mapper grounds the stack and needs
// none. RS_Map fixes the baseline by post-reordering.
func TestFigure2StackOrder(t *testing.T) {
	opt := DefaultOptions()

	base, err := Map(context.Background(), Domino, fig2Network(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if base.Stats.TDisch != 1 {
		t.Errorf("Domino_Map Tdisch = %d, want 1:\n%s", base.Stats.TDisch, base.Dump())
	}
	if got := base.Gates[0].Tree.String(); got != "(A+B+C)*D" {
		t.Errorf("Domino_Map tree = %q, want (A+B+C)*D", got)
	}

	rs, err := Map(context.Background(), RS, fig2Network(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Stats.TDisch != 0 {
		t.Errorf("RS_Map Tdisch = %d, want 0", rs.Stats.TDisch)
	}

	soi, err := Map(context.Background(), SOI, fig2Network(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if soi.Stats.TDisch != 0 {
		t.Errorf("SOI_Domino_Map Tdisch = %d, want 0:\n%s", soi.Stats.TDisch, soi.Dump())
	}
	if got := soi.Gates[0].Tree.String(); got != "D*(A+B+C)" {
		t.Errorf("SOI tree = %q, want D*(A+B+C)", got)
	}
	for _, r := range []*Result{base, rs, soi} {
		if err := r.Audit(); err != nil {
			t.Errorf("%s audit: %v", r.Algorithm, err)
		}
	}
}

// mapAll runs the full pipeline (decompose, unate, map) for one algorithm.
func mapAll(t *testing.T, n *logic.Network, alg Algorithm, opt Options) *Result {
	t.Helper()
	d, err := decompose.Decompose(n)
	if err != nil {
		t.Fatal(err)
	}
	u, err := unate.Convert(d)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Map(context.Background(), alg, u.Network, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Audit(); err != nil {
		t.Fatalf("%s audit: %v\n%s", res.Algorithm, err, res.Dump())
	}
	return res
}

// checkMappedEquivalent exhaustively compares the mapped circuit against
// the original network.
func checkMappedEquivalent(t *testing.T, orig *logic.Network, res *Result) {
	t.Helper()
	k := len(orig.Inputs)
	if k > 14 {
		t.Fatalf("too many inputs for exhaustive check: %d", k)
	}
	in := make([]bool, k)
	vals := make(map[string]bool, k)
	for i := 0; i < 1<<k; i++ {
		for j := 0; j < k; j++ {
			in[j] = i&(1<<j) != 0
			vals[orig.Nodes[orig.Inputs[j]].Name] = in[j]
		}
		want, err := orig.Eval(in)
		if err != nil {
			t.Fatal(err)
		}
		got, err := res.Eval(vals)
		if err != nil {
			t.Fatal(err)
		}
		for oi, out := range orig.Outputs {
			if got[out.Name] != want[oi] {
				t.Fatalf("%s: output %q wrong for input %0*b: got %v want %v",
					res.Algorithm, out.Name, k, i, got[out.Name], want[oi])
			}
		}
	}
}

func TestMappedEquivalenceSmall(t *testing.T) {
	n := logic.New("mix")
	a := n.AddInput("a")
	b := n.AddInput("b")
	c := n.AddInput("c")
	d := n.AddInput("d")
	x := n.AddGate(logic.Xor, a, b)
	m := n.AddGate(logic.And, n.AddGate(logic.Or, x, c), n.AddGate(logic.Nand, b, d))
	n.AddOutput("f", m)
	n.AddOutput("g", n.AddGate(logic.Nor, x, d))
	for _, algo := range []Algorithm{Domino, RS, SOI} {
		res := mapAll(t, n, algo, DefaultOptions())
		checkMappedEquivalent(t, n, res)
	}
}

func TestMultiFanoutGateSharedOnce(t *testing.T) {
	// g = a&b feeds three gates; it must be materialized exactly once.
	n := logic.New("shared")
	a := n.AddInput("a")
	b := n.AddInput("b")
	c := n.AddInput("c")
	d := n.AddInput("d")
	e := n.AddInput("e")
	g := n.AddGate(logic.And, a, b)
	n.AddOutput("x", n.AddGate(logic.And, g, c))
	n.AddOutput("y", n.AddGate(logic.Or, g, d))
	n.AddOutput("z", n.AddGate(logic.And, g, e))
	res := mapAll(t, n, SOI, DefaultOptions())
	count := 0
	for _, gate := range res.Gates {
		for _, leaf := range gate.Tree.Leaves() {
			if leaf.GateRef >= 0 {
				count++
			}
		}
	}
	shared := 0
	seen := map[int]bool{}
	for _, gate := range res.Gates {
		if seen[gate.NodeID] {
			shared++
		}
		seen[gate.NodeID] = true
	}
	if shared != 0 {
		t.Errorf("%d duplicate gates for the same node", shared)
	}
	if count != 3 {
		t.Errorf("%d gate-driven leaves, want 3 (one per fanout)", count)
	}
	checkMappedEquivalent(t, n, res)
}

func TestOutputOnInputGetsBuffer(t *testing.T) {
	n := logic.New("thru")
	a := n.AddInput("a")
	b := n.AddInput("b")
	n.AddOutput("fa", a)
	n.AddOutput("fab", n.AddGate(logic.And, a, b))
	res := mapAll(t, n, SOI, DefaultOptions())
	checkMappedEquivalent(t, n, res)
	gid, ok := res.OutputGate["fa"]
	if !ok {
		t.Fatal("no gate for pass-through output")
	}
	if res.Gates[gid].Pulldown() != 1 {
		t.Errorf("buffer gate pulldown = %d, want 1", res.Gates[gid].Pulldown())
	}
}

func TestConstOutput(t *testing.T) {
	n := logic.New("const")
	a := n.AddInput("a")
	n.AddOutput("one", n.AddGate(logic.Or, a, n.AddGate(logic.Not, a)))
	n.AddOutput("fa", a)
	res := mapAll(t, n, Domino, DefaultOptions())
	if v, ok := res.ConstOutputs["one"]; !ok || !v {
		t.Errorf("constant output not detected: %v", res.ConstOutputs)
	}
	checkMappedEquivalent(t, n, res)
}

func TestAlwaysFootedAddsFeet(t *testing.T) {
	opt := DefaultOptions()
	res1 := mapAll(t, fig3Network(), Domino, opt)
	opt.AlwaysFooted = true
	res2 := mapAll(t, fig3Network(), Domino, opt)
	if res2.Stats.TClock <= res1.Stats.TClock-1 {
		t.Errorf("AlwaysFooted Tclock %d vs %d", res2.Stats.TClock, res1.Stats.TClock)
	}
	for _, g := range res2.Gates {
		if !g.Footed {
			t.Error("AlwaysFooted left an unfooted gate")
		}
	}
}

func TestOptionsValidation(t *testing.T) {
	n := fig3Network()
	bad := []Options{
		{MaxWidth: 1, MaxHeight: 8, ClockWeight: 1, DepthWeight: 1},
		{MaxWidth: 5, MaxHeight: 1, ClockWeight: 1, DepthWeight: 1},
		{MaxWidth: 5, MaxHeight: 8, ClockWeight: 0, DepthWeight: 1},
		{MaxWidth: 5, MaxHeight: 8, ClockWeight: 1, DepthWeight: 0, Objective: Depth},
		{MaxWidth: MaxShape + 1, MaxHeight: 8, ClockWeight: 1, DepthWeight: 1},
		{MaxWidth: 5, MaxHeight: MaxShape + 1, ClockWeight: 1, DepthWeight: 1},
	}
	for i, opt := range bad {
		if _, err := Map(context.Background(), Domino, n, opt); err == nil {
			t.Errorf("options case %d should fail", i)
		}
	}
}

// TestOversizedShapeRejectedWithoutAllocating: the DP's dense scratch is
// MaxWidth x MaxHeight cells per worker, and both arrive unchecked from
// service requests, so an absurd shape must fail validation before any
// scratch exists — a handful of allocations for the error, not gigabytes.
func TestOversizedShapeRejectedWithoutAllocating(t *testing.T) {
	n := fig3Network()
	for _, pareto := range []bool{false, true} {
		opt := DefaultOptions()
		opt.MaxWidth, opt.MaxHeight = 1<<30, 1<<30
		opt.Pareto = pareto
		var err error
		allocs := testing.AllocsPerRun(5, func() { _, err = Map(context.Background(), SOI, n, opt) })
		if err == nil || !strings.Contains(err.Error(), "MaxWidth/MaxHeight") {
			t.Fatalf("pareto=%v: got %v, want a MaxWidth/MaxHeight validation error", pareto, err)
		}
		if allocs > 8 {
			t.Errorf("pareto=%v: rejecting an oversized shape made %.0f allocations", pareto, allocs)
		}
	}
	// The cap itself is accepted.
	opt := DefaultOptions()
	opt.MaxWidth, opt.MaxHeight = MaxShape, MaxShape
	if _, err := Map(context.Background(), SOI, n, opt); err != nil {
		t.Fatalf("MaxShape x MaxShape rejected: %v", err)
	}
}

func TestRejectsNonUnate(t *testing.T) {
	n := logic.New("bad")
	a := n.AddInput("a")
	b := n.AddInput("b")
	n.AddOutput("f", n.AddGate(logic.Xor, a, b))
	if _, err := Map(context.Background(), SOI, n, DefaultOptions()); err == nil {
		t.Error("mapper should reject non-unate networks")
	}
}

func TestObjectiveString(t *testing.T) {
	if Area.String() != "area" || Depth.String() != "depth" {
		t.Error("Objective.String broken")
	}
}

// TestAlgorithmString pins each algorithm's display name, which Map
// records as Result.Algorithm, and its request key's round trip.
func TestAlgorithmString(t *testing.T) {
	n := fig2Network()
	for _, tc := range []struct {
		alg         Algorithm
		pareto      bool
		key, name   string
		resultLabel string
	}{
		{Domino, false, "domino", "Domino_Map", "Domino_Map"},
		{RS, false, "rs", "RS_Map", "RS_Map"},
		{RSDeep, false, "rsdeep", "RS_Map_deep", "RS_Map_deep"},
		{SOI, false, "soi", "SOI_Domino_Map", "SOI_Domino_Map"},
		{SOI, true, "soi", "SOI_Domino_Map", "SOI_Domino_Map_pareto"},
	} {
		if got := tc.alg.String(); got != tc.name {
			t.Errorf("%d.String() = %q, want %q", tc.alg, got, tc.name)
		}
		if got := tc.alg.Key(); got != tc.key {
			t.Errorf("%s.Key() = %q, want %q", tc.alg, got, tc.key)
		}
		if got, err := ParseAlgorithm(tc.key); err != nil || got != tc.alg {
			t.Errorf("ParseAlgorithm(%q) = %v, %v; want %s", tc.key, got, err, tc.alg)
		}
		opt := DefaultOptions()
		opt.Pareto = tc.pareto
		res, err := Map(context.Background(), tc.alg, n, opt)
		if err != nil {
			t.Fatal(err)
		}
		if res.Algorithm != tc.resultLabel {
			t.Errorf("%s (pareto %v): Result.Algorithm = %q, want %q", tc.alg, tc.pareto, res.Algorithm, tc.resultLabel)
		}
	}
	if len(Algorithms()) != 4 {
		t.Errorf("Algorithms() = %v, want the four mappers", Algorithms())
	}
	const want = `unknown algorithm "fast" (want domino, rs, rsdeep or soi)`
	if _, err := ParseAlgorithm("fast"); err == nil || err.Error() != want {
		t.Errorf("ParseAlgorithm(fast) error = %v, want %s", err, want)
	}
	if res, err := Map(context.Background(), Algorithm(99), n, DefaultOptions()); err == nil || res != nil {
		t.Errorf("Map(Algorithm(99)) = %v, %v; want an error", res, err)
	}
}

// randomCircuit builds a random multi-level circuit with limited inputs so
// exhaustive equivalence stays cheap.
func randomCircuit(rng *rand.Rand) *logic.Network {
	n := logic.New("rnd")
	nin := 4 + rng.Intn(4)
	var pool []int
	for i := 0; i < nin; i++ {
		pool = append(pool, n.AddInput(string(rune('a'+i))))
	}
	ops := []logic.Op{logic.And, logic.Or, logic.Nand, logic.Nor, logic.Xor, logic.Not}
	ngates := 6 + rng.Intn(24)
	for i := 0; i < ngates; i++ {
		op := ops[rng.Intn(len(ops))]
		k := 1
		if op.MaxFanin() != 1 {
			k = 2 + rng.Intn(2)
		}
		fanin := make([]int, k)
		for j := range fanin {
			fanin[j] = pool[rng.Intn(len(pool))]
		}
		pool = append(pool, n.AddGate(op, fanin...))
	}
	for i := 0; i < 2+rng.Intn(2); i++ {
		n.AddOutput("o"+string(rune('0'+i)), pool[len(pool)-1-rng.Intn(len(pool)/2)])
	}
	return n
}

// Property: all three mappers produce functionally equivalent, auditable
// netlists on random circuits, and the SOI mapper never needs more
// discharge transistors than the baseline.
func TestMapperEquivalenceQuick(t *testing.T) {
	cfg := &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(77))}
	opt := DefaultOptions()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := randomCircuit(rng)
		d, err := decompose.Decompose(n)
		if err != nil {
			return false
		}
		u, err := unate.Convert(d)
		if err != nil {
			return false
		}
		tt, err := n.TruthTable()
		if err != nil {
			return false
		}
		var disch [3]int
		for ai, alg := range []Algorithm{Domino, RS, SOI} {
			res, err := Map(context.Background(), alg, u.Network, opt)
			if err != nil {
				return false
			}
			if res.Audit() != nil {
				return false
			}
			disch[ai] = res.Stats.TDisch
			k := len(n.Inputs)
			vals := make(map[string]bool, k)
			for i := 0; i < 1<<k; i++ {
				for j := 0; j < k; j++ {
					vals[n.Nodes[n.Inputs[j]].Name] = i&(1<<j) != 0
				}
				got, err := res.Eval(vals)
				if err != nil {
					return false
				}
				for oi, out := range n.Outputs {
					if got[out.Name] != tt[i][oi] {
						return false
					}
				}
			}
		}
		// RS and SOI must not need more discharges than the baseline.
		return disch[1] <= disch[0] && disch[2] <= disch[0]
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// treeCircuit builds a fanout-free circuit (every gate feeds exactly one
// other gate), where the DP's discharge prediction must equal the netlist
// count exactly.
func treeCircuit(rng *rand.Rand, leaves int) *logic.Network {
	n := logic.New("tree")
	var pool []int
	for i := 0; i < leaves; i++ {
		pool = append(pool, n.AddInput(string(rune('a'+i%26))+string(rune('0'+i/26))))
	}
	for len(pool) > 1 {
		i := rng.Intn(len(pool))
		x := pool[i]
		pool = append(pool[:i], pool[i+1:]...)
		j := rng.Intn(len(pool))
		y := pool[j]
		op := logic.And
		if rng.Intn(2) == 0 {
			op = logic.Or
		}
		pool[j] = n.AddGate(op, x, y)
	}
	n.AddOutput("f", pool[0])
	return n
}

// TestDPPredictsDischarges: on fanout-free unate circuits, the discharge
// count accumulated by the SOI DP equals the number of discharge devices in
// the built netlist.
func TestDPPredictsDischarges(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	opt := DefaultOptions()
	for trial := 0; trial < 30; trial++ {
		n := treeCircuit(rng, 6+rng.Intn(20))
		res, err := Map(context.Background(), SOI, n, opt)
		if err != nil {
			t.Fatal(err)
		}
		// Reconstruct the DP totals for the root gate.
		e := newEngine(context.Background(), n,
			config{Options: opt, alg: SOI})
		if err := e.process(); err != nil {
			t.Fatal(err)
		}
		root := n.Outputs[0].Node
		if n.Nodes[root].Op == logic.Input {
			continue
		}
		predicted := int(e.formed[root].NDisch)
		if predicted != res.Stats.TDisch {
			t.Fatalf("trial %d: DP predicts %d discharges, netlist has %d\n%s",
				trial, predicted, res.Stats.TDisch, res.Dump())
		}
	}
}

// TestDepthObjective verifies the depth mapper reports consistent levels
// and that SOI trades discharges into the cost.
func TestDepthObjective(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	n := randomCircuit(rng)
	opt := DefaultOptions()
	opt.Objective = Depth

	base := mapAll(t, n, Domino, opt)
	soi := mapAll(t, n, SOI, opt)
	checkMappedEquivalent(t, n, base)
	checkMappedEquivalent(t, n, soi)
	if base.Stats.Levels < 1 || soi.Stats.Levels < 1 {
		t.Error("levels must be at least 1")
	}
	// The SOI combined cost (weighted levels + discharges) must not exceed
	// the baseline's on the same network.
	bc := opt.DepthWeight*base.Stats.Levels + base.Stats.TDisch
	sc := opt.DepthWeight*soi.Stats.Levels + soi.Stats.TDisch
	if sc > bc {
		t.Errorf("SOI depth cost %d > baseline %d", sc, bc)
	}
}

// TestClockWeightReducesClockLoad: with k=2, clock-connected transistor
// count must not increase relative to k=1 under the SOI mapper.
func TestClockWeightReducesClockLoad(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	n := randomCircuit(rng)
	opt1 := DefaultOptions()
	opt2 := DefaultOptions()
	opt2.ClockWeight = 2
	r1 := mapAll(t, n, SOI, opt1)
	r2 := mapAll(t, n, SOI, opt2)
	if r2.Stats.TClock > r1.Stats.TClock {
		t.Errorf("k=2 Tclock %d > k=1 Tclock %d", r2.Stats.TClock, r1.Stats.TClock)
	}
	checkMappedEquivalent(t, n, r2)
}

func TestResultEvalMissingInput(t *testing.T) {
	res := mapAll(t, fig3Network(), Domino, fig3Options())
	if _, err := res.Eval(map[string]bool{"a": true}); err == nil {
		t.Error("Eval with missing inputs should fail")
	}
}

func TestStatsString(t *testing.T) {
	res := mapAll(t, fig3Network(), Domino, fig3Options())
	if res.Stats.String() == "" {
		t.Error("Stats.String empty")
	}
	if res.Dump() == "" {
		t.Error("Dump empty")
	}
}
