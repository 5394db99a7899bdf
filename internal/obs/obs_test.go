package obs

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

// TestNilStatsIsDisabledCollector pins the nil-receiver contract: every
// recording method must be a no-op on a nil *Stats, because that is how
// the hot DP loop runs when instrumentation is off.
func TestNilStatsIsDisabledCollector(t *testing.T) {
	var s *Stats
	if s.Enabled() {
		t.Fatal("nil Stats reports Enabled")
	}
	s.AddNode(7)
	s.AddCombine(true, false, 3)
	s.AddCancelCheck()
	s.SetAlgorithm("x")
	s.AddPhase(PhaseDP, time.Second)
	s.Merge(&Stats{Nodes: 1})
	if got := s.String(); got != "stats: disabled" {
		t.Fatalf("nil Stats String = %q", got)
	}
}

func TestStatsCounters(t *testing.T) {
	s := &Stats{}
	// Two combines for a node that keeps one tuple: one pruned.
	s.AddCombine(true, false, 0)
	s.AddCombine(false, true, 2)
	s.AddNode(1)
	// A second node keeps three of three.
	s.AddCombine(false, false, 1)
	s.AddCombine(false, false, 0)
	s.AddCombine(true, false, 0)
	s.AddNode(3)

	if s.Nodes != 2 {
		t.Errorf("Nodes = %d, want 2", s.Nodes)
	}
	if s.TuplesGenerated != 5 || s.TuplesKept != 4 || s.TuplesPruned != 1 {
		t.Errorf("tuples = %d gen / %d kept / %d pruned, want 5/4/1",
			s.TuplesGenerated, s.TuplesKept, s.TuplesPruned)
	}
	if s.CombineOr != 2 || s.CombineAndOrdered != 2 || s.CombineAndReordered != 1 {
		t.Errorf("combines = %d or / %d ordered / %d reordered, want 2/2/1",
			s.CombineOr, s.CombineAndOrdered, s.CombineAndReordered)
	}
	if s.DPDischargeCharges != 3 {
		t.Errorf("DPDischargeCharges = %d, want 3", s.DPDischargeCharges)
	}
	if s.FrontierHighWater != 3 {
		t.Errorf("FrontierHighWater = %d, want 3", s.FrontierHighWater)
	}
}

func TestStatsMerge(t *testing.T) {
	a := &Stats{Nodes: 2, TuplesGenerated: 10, TuplesKept: 6, TuplesPruned: 4,
		FrontierHighWater: 3, Phases: PhaseTimes{DP: time.Millisecond}}
	b := &Stats{Nodes: 5, TuplesGenerated: 1, TuplesKept: 1,
		FrontierHighWater: 9, Phases: PhaseTimes{DP: 2 * time.Millisecond}}
	a.Merge(b)
	if a.Nodes != 7 || a.TuplesGenerated != 11 || a.TuplesKept != 7 || a.TuplesPruned != 4 {
		t.Errorf("merged counters wrong: %+v", a)
	}
	if a.FrontierHighWater != 9 {
		t.Errorf("FrontierHighWater = %d, want max(3,9)=9", a.FrontierHighWater)
	}
	if a.Phases.DP != 3*time.Millisecond {
		t.Errorf("Phases.DP = %v, want 3ms", a.Phases.DP)
	}
}

func TestStatsString(t *testing.T) {
	s := &Stats{Algorithm: "SOI_Domino_Map", Nodes: 4, TuplesGenerated: 9,
		TuplesKept: 5, TuplesPruned: 4}
	got := s.String()
	for _, want := range []string{"stats (SOI_Domino_Map):", "nodes", "9 generated, 4 pruned, 5 kept"} {
		if !strings.Contains(got, want) {
			t.Errorf("String() missing %q:\n%s", want, got)
		}
	}
}

func TestTimed(t *testing.T) {
	s := &Stats{}
	tr := NewTracer(context.Background(), 1)
	sentinel := errors.New("boom")
	if err := Timed(s, tr, PhaseTraceback, "SOI_Domino_Map", func() error { return sentinel }); err != sentinel {
		t.Fatalf("Timed err = %v, want sentinel", err)
	}
	if s.Phases.Traceback <= 0 {
		t.Errorf("Traceback phase not charged: %v", s.Phases.Traceback)
	}
	// One clock reading feeds both records: the span lasts exactly the
	// charged phase time.
	spans := tr.Spans()
	if len(spans) != 1 || spans[0].DurUS != s.Phases.Traceback.Microseconds() {
		t.Fatalf("spans %+v, want one lasting the charged %v", spans, s.Phases.Traceback)
	}
	// Span names and categories are DESIGN.md §14's, one per phase.
	want := map[Phase][2]string{
		PhaseStrash:    {"pipeline", "strash c880"},
		PhaseDecompose: {"pipeline", "decompose c880"},
		PhaseUnate:     {"pipeline", "unate c880"},
		PhaseDP:        {"mapper", "c880 dp"},
		PhaseTraceback: {"mapper", "c880 traceback"},
		PhaseAudit:     {"pipeline", "audit c880"},
	}
	for p, w := range want {
		tr := NewTracer(context.Background(), 1)
		if err := Timed(nil, tr, p, "c880", func() error { return nil }); err != nil {
			t.Fatal(err)
		}
		if sp := tr.Spans(); len(sp) != 1 || sp[0].Cat != w[0] || sp[0].Name != w[1] {
			t.Errorf("%v span %+v, want %s %q", p, sp, w[0], w[1])
		}
	}
	// Both collectors nil: f still runs, the error still propagates, and
	// nothing is allocated.
	ran := false
	if err := Timed(nil, nil, PhaseDP, "c880", func() error { ran = true; return nil }); err != nil || !ran {
		t.Fatalf("Timed(nil, nil) ran=%v err=%v", ran, err)
	}
	noop := func() error { return nil }
	if a := testing.AllocsPerRun(100, func() { Timed(nil, nil, PhaseDP, "c880", noop) }); a != 0 {
		t.Errorf("Timed with both collectors nil allocates %.0f per call, want 0", a)
	}
}

func TestPhaseString(t *testing.T) {
	want := map[Phase]string{
		PhaseStrash: "strash", PhaseDecompose: "decompose", PhaseUnate: "unate",
		PhaseDP: "dp", PhaseTraceback: "traceback", PhaseAudit: "audit",
	}
	for p, s := range want {
		if p.String() != s {
			t.Errorf("Phase(%d).String() = %q, want %q", p, p.String(), s)
		}
	}
}
