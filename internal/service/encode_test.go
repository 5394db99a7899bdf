package service

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	builtin "soidomino/internal/bench"
	"soidomino/internal/mapper"
	"soidomino/internal/report"
)

// decodeResult decodes a result's compact bytes for a test to inspect.
func decodeResult(tb testing.TB, b []byte) *MapResult {
	tb.Helper()
	var r MapResult
	if err := json.Unmarshal(b, &r); err != nil {
		tb.Fatalf("decode result: %v", err)
	}
	return &r
}

// TestCLIAndServiceEncodingsMatch pins the contract behind `soimap -json`:
// the CLI path (PrepareNetwork + mapper.Map + NewMapResult) and the
// daemon path (mapNetwork) must encode the same submission identically.
// The daemon's compact bytes are json.Marshal of the CLI's result, and
// indenting them gives the CLI's EncodeJSON output byte for byte.
func TestCLIAndServiceEncodingsMatch(t *testing.T) {
	const circuit = "mux"
	opt := mapper.DefaultOptions()

	// Daemon path.
	daemon, err := mapNetwork(context.Background(), circuit, builtin.MustBuild(circuit), "soi", opt)
	if err != nil {
		t.Fatal(err)
	}
	var indented bytes.Buffer
	if err := json.Indent(&indented, daemon, "", "  "); err != nil {
		t.Fatal(err)
	}
	daemonBytes := append(indented.Bytes(), '\n')

	// CLI path, as cmd/soimap -json composes it.
	p, err := report.PrepareNetwork(builtin.MustBuild(circuit))
	if err != nil {
		t.Fatal(err)
	}
	res, err := mapper.Map(context.Background(), mapper.SOI, p.Unate, opt)
	if err != nil {
		t.Fatal(err)
	}
	cliBytes, err := EncodeJSON(NewMapResult(circuit, p, res))
	if err != nil {
		t.Fatal(err)
	}

	if !bytes.Equal(daemonBytes, cliBytes) {
		t.Errorf("CLI and daemon encodings differ:\nCLI:\n%s\ndaemon:\n%s", cliBytes, daemonBytes)
	}
	if compact, _ := json.Marshal(NewMapResult(circuit, p, res)); !bytes.Equal(daemon, compact) {
		t.Errorf("daemon bytes are not json.Marshal of the CLI's result:\n%s\n%s", daemon, compact)
	}
}

func TestEncodeJSONDeterministic(t *testing.T) {
	b, err := mapNetwork(context.Background(), "z4ml", builtin.MustBuild("z4ml"), "soi", mapper.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	r := decodeResult(t, b)
	b1, err := EncodeJSON(r)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := EncodeJSON(r)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Error("EncodeJSON is not deterministic")
	}
	if b1[len(b1)-1] != '\n' {
		t.Error("encoding lacks trailing newline")
	}
}

func TestMapResultContents(t *testing.T) {
	b, err := mapNetwork(context.Background(), "mux", builtin.MustBuild("mux"), "soi", mapper.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	r := decodeResult(t, b)
	if r.Circuit != "mux" || r.Algorithm != "SOI_Domino_Map" {
		t.Errorf("circuit/algorithm = %q/%q", r.Circuit, r.Algorithm)
	}
	if r.Stats.Gates != len(r.Gates) {
		t.Errorf("stats report %d gates but %d encoded", r.Stats.Gates, len(r.Gates))
	}
	if r.Stats.TTotal != r.Stats.TLogic+r.Stats.TDisch {
		t.Errorf("t_total %d != t_logic %d + t_disch %d", r.Stats.TTotal, r.Stats.TLogic, r.Stats.TDisch)
	}
	levels := 0
	disch := 0
	for _, g := range r.Gates {
		if g.Level > levels {
			levels = g.Level
		}
		disch += g.Discharges
	}
	if levels != r.Stats.Levels {
		t.Errorf("max gate level %d != stats levels %d", levels, r.Stats.Levels)
	}
	if disch != r.Stats.TDisch {
		t.Errorf("summed discharges %d != stats t_disch %d", disch, r.Stats.TDisch)
	}
}
