package mapper

import (
	"context"
	"fmt"
	"os"
	"sync"
	"testing"
	"time"

	"soidomino/internal/logic"
	"soidomino/internal/obs"
	"soidomino/internal/tuple"
)

// statsNetwork is a small fixed circuit whose DP instrumentation differs
// between the mappers: the shared (a+b+c)*d subfunction gives the series
// composition a parallel bottom, so the baseline mappers charge discharge
// points while SOI's ordering rule flips the stack instead.
func statsNetwork() *logic.Network {
	n := logic.New("stats")
	a := n.AddInput("a")
	b := n.AddInput("b")
	c := n.AddInput("c")
	d := n.AddInput("d")
	e := n.AddInput("e")
	or3 := n.AddGate(logic.Or, n.AddGate(logic.Or, a, b), c)
	and1 := n.AddGate(logic.And, or3, d)
	n.AddOutput("f", n.AddGate(logic.And, and1, e))
	n.AddOutput("g", n.AddGate(logic.Or, and1, e))
	return n
}

func runWithStats(t *testing.T, alg Algorithm) *obs.Stats {
	t.Helper()
	st := &obs.Stats{}
	ctx := obs.WithStats(context.Background(), st)
	if _, err := Map(ctx, alg, statsNetwork(), DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestStatsDeterministic pins the exact instrumentation record of each
// mapper on the fixed network. The counters are part of the DP's observable
// behavior: the SOI row differs from the baselines exactly where the paper
// says it should — two series stacks reordered, zero discharge points
// charged.
func TestStatsDeterministic(t *testing.T) {
	cases := []struct {
		name string
		alg  Algorithm
		want obs.Stats
	}{
		{"domino", Domino, obs.Stats{
			Algorithm: "Domino_Map", Nodes: 5,
			TuplesGenerated: 8, TuplesPruned: 0, TuplesKept: 8,
			CombineOr: 4, CombineAndOrdered: 4, CombineAndReordered: 0,
			FrontierHighWater: 3, DPDischargeCharges: 2, CancelChecks: 10,
		}},
		{"rs", RS, obs.Stats{
			Algorithm: "RS_Map", Nodes: 5,
			TuplesGenerated: 8, TuplesPruned: 0, TuplesKept: 8,
			CombineOr: 4, CombineAndOrdered: 4, CombineAndReordered: 0,
			FrontierHighWater: 3, DPDischargeCharges: 2, CancelChecks: 10,
		}},
		{"soi", SOI, obs.Stats{
			Algorithm: "SOI_Domino_Map", Nodes: 5,
			TuplesGenerated: 8, TuplesPruned: 0, TuplesKept: 8,
			CombineOr: 4, CombineAndOrdered: 2, CombineAndReordered: 2,
			FrontierHighWater: 3, DPDischargeCharges: 0, CancelChecks: 10,
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := runWithStats(t, tc.alg)
			got.Phases = obs.PhaseTimes{} // wall times are not deterministic
			if *got != tc.want {
				t.Errorf("stats mismatch:\n got %+v\nwant %+v", *got, tc.want)
			}
		})
	}
}

// TestStatsInvariants checks the cross-counter identities every run must
// satisfy, on a mapper with pruning in play.
func TestStatsInvariants(t *testing.T) {
	opt := DefaultOptions()
	opt.Pareto = true
	st := &obs.Stats{}
	ctx := obs.WithStats(context.Background(), st)
	if _, err := Map(ctx, SOI, statsNetwork(), opt); err != nil {
		t.Fatal(err)
	}
	if got := st.CombineOr + st.CombineAndOrdered + st.CombineAndReordered; got != st.TuplesGenerated {
		t.Errorf("combine kinds sum to %d, generated %d", got, st.TuplesGenerated)
	}
	if st.TuplesPruned != st.TuplesGenerated-st.TuplesKept {
		t.Errorf("pruned %d != generated %d - kept %d", st.TuplesPruned, st.TuplesGenerated, st.TuplesKept)
	}
	if st.Nodes == 0 || st.TuplesGenerated == 0 || st.CancelChecks == 0 {
		t.Errorf("run recorded nothing: %+v", st)
	}
	if st.Phases.DP <= 0 || st.Phases.Traceback <= 0 {
		t.Errorf("phase timings not charged: %+v", st.Phases)
	}
	if st.FrontierHighWater <= 0 || st.FrontierHighWater > st.TuplesKept {
		t.Errorf("high water %d out of range (kept %d)", st.FrontierHighWater, st.TuplesKept)
	}
}

// TestStatsConcurrentRunsIndependent proves concurrent runs with stats
// enabled do not share collector state: under -race this also fails on any
// unsynchronized write to a shared structure.
func TestStatsConcurrentRunsIndependent(t *testing.T) {
	const runs = 8
	collected := make([]*obs.Stats, runs)
	var wg sync.WaitGroup
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st := &obs.Stats{}
			ctx := obs.WithStats(context.Background(), st)
			if _, err := Map(ctx, SOI, statsNetwork(), DefaultOptions()); err != nil {
				t.Error(err)
				return
			}
			collected[i] = st
		}(i)
	}
	wg.Wait()
	for i, st := range collected {
		if st == nil {
			t.Fatalf("run %d failed", i)
		}
		// Every run saw exactly one network's worth of work: any
		// cross-contamination would double counters somewhere.
		if st.Nodes != 5 || st.TuplesGenerated != 8 {
			t.Errorf("run %d contaminated: nodes=%d generated=%d", i, st.Nodes, st.TuplesGenerated)
		}
	}
}

// TestNilStatsSmoke pins the nil-receiver contract of the stats path:
// with no collector on the context, every recording site — including
// recordCombine — must run on the nil *obs.Stats, in both Pareto modes.
func TestNilStatsSmoke(t *testing.T) {
	n := unateBench(t, "mux")
	for _, pareto := range []bool{false, true} {
		opt := DefaultOptions()
		opt.Pareto = pareto
		if _, err := Map(context.Background(), SOI, n, opt); err != nil {
			t.Fatalf("pareto=%v with nil stats: %v", pareto, err)
		}
	}
	// The helper itself must also be callable with a nil collector.
	e := &engine{}
	e.recordCombine(logic.Or, true, &tuple.Tuple{}, &tuple.Tuple{}, &tuple.Tuple{})
}

// TestTraceDPSpans pins the per-node span path: a fully sampled SOI run
// emits exactly one "dp" span per And/Or node, in ascending node id,
// each carrying its candidate counts and kept-tuple count, and the spans
// agree with the run's stats collector.
func TestTraceDPSpans(t *testing.T) {
	n := unateBench(t, "b9")
	tr := obs.NewTracer(context.Background(), 1)
	st := new(obs.Stats)
	ctx := obs.WithStats(obs.WithTracer(context.Background(), tr), st)
	if _, err := Map(ctx, SOI, n, DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	var want []int
	for id, node := range n.Nodes {
		if node.Op == logic.And || node.Op == logic.Or {
			want = append(want, id)
		}
	}
	var got []int
	var kept int64
	for _, sp := range tr.Spans() {
		if sp.Cat != "dp" {
			continue
		}
		var id int
		var op string
		if _, err := fmt.Sscanf(sp.Name, "node %d %s", &id, &op); err != nil {
			t.Fatalf("dp span %q: %v", sp.Name, err)
		}
		if op != n.Nodes[id].Op.String() {
			t.Errorf("dp span %q names op %s, node %d is %s", sp.Name, op, id, n.Nodes[id].Op)
		}
		args := map[string]int64{}
		for _, kv := range sp.Args {
			args[kv.Key] = kv.Val
		}
		for _, k := range []string{"cands_a", "cands_b", "kept"} {
			if _, ok := args[k]; !ok {
				t.Errorf("dp span %q lacks %s: %v", sp.Name, k, sp.Args)
			}
		}
		got = append(got, id)
		kept += args["kept"]
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("dp span node ids %v, want the And/Or nodes in order %v", got, want)
	}
	if int64(len(got)) != st.Nodes {
		t.Errorf("%d dp spans, Stats.Nodes = %d", len(got), st.Nodes)
	}
	if kept != st.TuplesKept {
		t.Errorf("dp spans keep %d tuples, Stats.TuplesKept = %d", kept, st.TuplesKept)
	}
}

// TestStatsOverhead is the `make check` guard on the zero-cost-when-
// disabled contract: with the collector enabled a run must not be
// measurably slower. Timing assertions are flaky on loaded CI machines,
// so the test only runs when SOIDOMINO_OBS_OVERHEAD=1.
func TestStatsOverhead(t *testing.T) {
	if os.Getenv("SOIDOMINO_OBS_OVERHEAD") != "1" {
		t.Skip("set SOIDOMINO_OBS_OVERHEAD=1 to run the overhead guard")
	}
	net := statsNetwork()
	opt := DefaultOptions()
	const iters = 2000
	measure := func(ctx context.Context) time.Duration {
		start := time.Now()
		for i := 0; i < iters; i++ {
			if _, err := Map(ctx, SOI, net, opt); err != nil {
				t.Fatal(err)
			}
		}
		return time.Since(start)
	}
	// Warm up, then interleave to be fair to both configurations.
	measure(context.Background())
	var off, on time.Duration
	for i := 0; i < 3; i++ {
		off += measure(context.Background())
		on += measure(obs.WithStats(context.Background(), &obs.Stats{}))
	}
	t.Logf("disabled %v, enabled %v (%.1f%%)", off, on, 100*float64(on-off)/float64(off))
	// Generous bound: the contract is "no measurable slowdown", the
	// assertion allows scheduling noise.
	if float64(on) > float64(off)*1.25 {
		t.Errorf("stats enabled is >25%% slower: disabled %v, enabled %v", off, on)
	}
}
