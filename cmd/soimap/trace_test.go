package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"soidomino/internal/obs"
)

// TestLocalTraceSpansEveryPhase runs `soimap -circuit mux -trace` in
// process and checks that the written Chrome trace holds exactly one span
// per obs.Phase, named and categorized as DESIGN.md §14 lists them — the
// same phase spans a daemon's trace of the job carries, audit included.
func TestLocalTraceSpansEveryPhase(t *testing.T) {
	path := filepath.Join(t.TempDir(), "mux.trace.json")
	stdout := os.Stdout
	devNull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devNull.Close()
	os.Stdout = devNull
	err = run([]string{"-circuit", "mux", "-algo", "soi", "-trace", path})
	os.Stdout = stdout
	if err != nil {
		t.Fatal(err)
	}

	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Cat  string `json:"cat"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &trace); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	got := map[string][]string{} // span name -> categories
	for _, ev := range trace.TraceEvents {
		if ev.Ph == "X" {
			got[ev.Name] = append(got[ev.Name], ev.Cat)
		}
	}
	want := map[obs.Phase][2]string{
		obs.PhaseStrash:    {"pipeline", "strash mux"},
		obs.PhaseDecompose: {"pipeline", "decompose mux"},
		obs.PhaseUnate:     {"pipeline", "unate mux"},
		obs.PhaseDP:        {"mapper", "SOI_Domino_Map dp"},
		obs.PhaseTraceback: {"mapper", "SOI_Domino_Map traceback"},
		obs.PhaseAudit:     {"pipeline", "audit mux"},
	}
	for p, w := range want {
		if cats := got[w[1]]; len(cats) != 1 || cats[0] != w[0] {
			t.Errorf("%v phase: spans named %q have categories %v, want exactly one %q span",
				p, w[1], cats, w[0])
		}
	}
}
