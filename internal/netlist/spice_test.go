package netlist

import (
	"bufio"
	"bytes"
	"fmt"
	"strings"
	"testing"

	"soidomino/internal/logic"
	"soidomino/internal/mapper"
)

func TestWriteSpiceFig2(t *testing.T) {
	_, c := buildFor(t, fig2Network(), mapper.Domino)
	var buf bytes.Buffer
	if err := c.WriteSpice(&buf, DefaultSpiceOptions()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		".SUBCKT fig2", "VDD GND CLK", ".ENDS fig2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("deck missing %q:\n%s", want, out)
		}
	}
	// One MOSFET line per device, each with a unique floating body node.
	mos := 0
	bodies := map[string]bool{}
	sc := bufio.NewScanner(strings.NewReader(out))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "M") {
			continue
		}
		mos++
		fields := strings.Fields(line)
		if len(fields) < 8 {
			t.Fatalf("malformed MOSFET line %q", line)
		}
		body := fields[4]
		if bodies[body] {
			t.Errorf("body node %q shared between devices (must float per-device)", body)
		}
		bodies[body] = true
	}
	if mos != len(c.Devices) {
		t.Errorf("deck has %d MOSFETs, circuit has %d devices", mos, len(c.Devices))
	}
	// Clocked devices reference CLK as their gate node.
	if !strings.Contains(out, " CLK ") {
		t.Error("no clocked gate terminals in deck")
	}
}

func TestWriteSpiceInvertedRails(t *testing.T) {
	n := logic.New("xor")
	a := n.AddInput("a")
	b := n.AddInput("b")
	n.AddOutput("f", n.AddGate(logic.Xor, a, b))
	_, c := buildFor(t, n, mapper.SOI)
	var buf bytes.Buffer
	if err := c.WriteSpice(&buf, DefaultSpiceOptions()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "a_n") || !strings.Contains(out, "b_n") {
		t.Errorf("deck missing complemented rails:\n%s", out)
	}
	if !strings.Contains(out, "MIP0") || !strings.Contains(out, "MIN0") {
		t.Error("deck missing input inverter devices")
	}
	// Without input inverters, the rails must still be referenced but not
	// driven.
	var buf2 bytes.Buffer
	opt := DefaultSpiceOptions()
	opt.EmitInputInverters = false
	if err := c.WriteSpice(&buf2, opt); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf2.String(), "MIP0") {
		t.Error("input inverters emitted despite being disabled")
	}
}

func TestWriteSpiceConstOutputs(t *testing.T) {
	n := logic.New("c")
	a := n.AddInput("a")
	n.AddOutput("one", n.AddGate(logic.Or, a, n.AddGate(logic.Not, a)))
	n.AddOutput("fa", a)
	_, c := buildFor(t, n, mapper.Domino)
	var buf bytes.Buffer
	if err := c.WriteSpice(&buf, DefaultSpiceOptions()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Rone one VDD 0") {
		t.Errorf("constant output not tied to rail:\n%s", buf.String())
	}
}

// TestSpiceBodyNamespace is a regression test: an input named b0 must not
// short a device's floating body (bodies live in the fbody* namespace).
func TestSpiceBodyNamespace(t *testing.T) {
	n := logic.New("clash")
	a := n.AddInput("b0")
	b := n.AddInput("b1")
	n.AddOutput("f", n.AddGate(logic.And, a, b))
	_, c := buildFor(t, n, mapper.Domino)
	var buf bytes.Buffer
	if err := c.WriteSpice(&buf, DefaultSpiceOptions()); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(bytes.NewReader(buf.Bytes()))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "M") {
			continue
		}
		body := strings.Fields(line)[4]
		if body == "b0" || body == "b1" {
			t.Fatalf("body node shorted to input: %q", line)
		}
		if !strings.HasPrefix(body, "fbody") {
			t.Fatalf("body node %q outside reserved namespace", body)
		}
	}
	// Inputs in the reserved namespace are rejected outright.
	n2 := logic.New("bad")
	x := n2.AddInput("fbody7")
	y := n2.AddInput("z")
	n2.AddOutput("f", n2.AddGate(logic.And, x, y))
	_, c2 := buildFor(t, n2, mapper.Domino)
	if err := c2.WriteSpice(&bytes.Buffer{}, DefaultSpiceOptions()); err == nil {
		t.Error("reserved-namespace input should be rejected")
	}
}

func TestSanitizeSpice(t *testing.T) {
	cases := map[string]string{
		"g3.dyn": "g3_dyn",
		"_g12":   "_g12",
		"a[0]":   "ax5b0x5d",
		"":       "_",
	}
	for in, want := range cases {
		if got := sanitizeSpice(in); got != want {
			t.Errorf("sanitizeSpice(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestSpiceDeterministic(t *testing.T) {
	_, c := buildFor(t, fig2Network(), mapper.Domino)
	render := func() string {
		var buf bytes.Buffer
		if err := c.WriteSpice(&buf, DefaultSpiceOptions()); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	if render() != render() {
		t.Error("SPICE export not deterministic")
	}
}

func TestSpiceGeometry(t *testing.T) {
	_, c := buildFor(t, fig2Network(), mapper.Domino)
	opt := DefaultSpiceOptions()
	opt.WidthN, opt.WidthP, opt.Length = 1.5, 3, 0.25
	var buf bytes.Buffer
	if err := c.WriteSpice(&buf, opt); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, fmt.Sprintf("W=%gU L=%gU", 1.5, 0.25)) {
		t.Error("nMOS geometry not applied")
	}
	if !strings.Contains(out, fmt.Sprintf("W=%gU L=%gU", 3.0, 0.25)) {
		t.Error("pMOS geometry not applied")
	}
}
