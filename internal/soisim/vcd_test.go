package soisim

import (
	"bufio"
	"bytes"
	"strings"
	"testing"

	"soidomino/internal/mapper"
	"soidomino/internal/netlist"
)

func runFig2Trace(t *testing.T, level TraceLevel, disable bool) (*Simulator, string) {
	t.Helper()
	_, c := buildCircuit(t, fig2Network(), mapper.Domino)
	cfg := DefaultConfig()
	cfg.DisableDischarge = disable
	sim := New(c, cfg)
	sim.EnableTrace(level)
	for _, vec := range fig2Sequence() {
		if _, _, err := sim.Cycle(vec); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := sim.WriteVCD(&buf); err != nil {
		t.Fatal(err)
	}
	return sim, buf.String()
}

func TestVCDHeaderAndVars(t *testing.T) {
	_, out := runFig2Trace(t, TraceIO, false)
	for _, want := range []string{
		"$timescale 1ns $end",
		"$scope module fig2_unate $end",
		"$enddefinitions $end",
		"$var wire 1",
		" f $end", // the primary output under its own name
		"pbe_event",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("VCD missing %q:\n%s", want, out)
		}
	}
}

// parseVCD extracts var count and the sequence of (time, id, value)
// changes, checking basic well-formedness.
func parseVCD(t *testing.T, out string) (vars int, changes []string) {
	t.Helper()
	sc := bufio.NewScanner(strings.NewReader(out))
	time := -1
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "$var"):
			vars++
		case strings.HasPrefix(line, "#"):
			time++
		case line == "" || strings.HasPrefix(line, "$"):
		default:
			if time < 0 {
				t.Fatalf("value change %q before any timestamp", line)
			}
			if line[0] != '0' && line[0] != '1' {
				t.Fatalf("bad value change %q", line)
			}
			changes = append(changes, line)
		}
	}
	return vars, changes
}

func TestVCDWellFormedAndEventful(t *testing.T) {
	// Unprotected run: the PBE event must appear as a pbe_event pulse and
	// the corrupted output as a change on f.
	_, out := runFig2Trace(t, TraceAll, true)
	vars, changes := parseVCD(t, out)
	if vars < 6 { // 4 inputs + f + pbe_event at least
		t.Errorf("only %d vars traced", vars)
	}
	if len(changes) == 0 {
		t.Fatal("no value changes recorded")
	}
	// Some change must set the event wire high; find its id first.
	sc := bufio.NewScanner(strings.NewReader(out))
	eventID := ""
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 6 && f[0] == "$var" && f[5] == "$end" && f[4] == "pbe_event" {
			eventID = f[3]
		}
	}
	if eventID == "" {
		t.Fatal("pbe_event var not declared")
	}
	found := false
	for _, ch := range changes {
		if ch == "1"+eventID {
			found = true
		}
	}
	if !found {
		t.Error("PBE event never pulsed in the unprotected trace")
	}
}

func TestVCDTraceLevels(t *testing.T) {
	_, io := runFig2Trace(t, TraceIO, false)
	_, gates := runFig2Trace(t, TraceGates, false)
	_, all := runFig2Trace(t, TraceAll, false)
	vio, _ := parseVCD(t, io)
	vg, _ := parseVCD(t, gates)
	va, _ := parseVCD(t, all)
	if !(vio < vg && vg < va) {
		t.Errorf("trace levels not monotone: %d, %d, %d vars", vio, vg, va)
	}
	if !strings.Contains(all, "g0_n0") {
		t.Error("TraceAll missing internal junction")
	}
}

func TestVCDWithoutTraceFails(t *testing.T) {
	_, c := buildCircuit(t, fig2Network(), mapper.Domino)
	sim := New(c, DefaultConfig())
	var buf bytes.Buffer
	if err := sim.WriteVCD(&buf); err == nil {
		t.Error("WriteVCD without EnableTrace should fail")
	}
}

func TestVCDIDs(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 2000; i++ {
		id := vcdID(i)
		if id == "" || seen[id] {
			t.Fatalf("vcdID(%d) = %q not unique", i, id)
		}
		for j := 0; j < len(id); j++ {
			if id[j] < '!' || id[j] > '~' {
				t.Fatalf("vcdID(%d) contains non-printable %q", i, id)
			}
		}
		seen[id] = true
	}
}

func TestVCDTimeAdvances(t *testing.T) {
	_, out := runFig2Trace(t, TraceIO, false)
	// 4 cycles = 8 phases = final timestamp 40.
	if !strings.Contains(out, "#40") {
		t.Errorf("trace should end at #40:\n%s", out)
	}
	var _ = netlist.GND // keep import if helpers change
}
