package soisim

import (
	"strings"
	"testing"

	"soidomino/internal/mapper"
)

func TestBodyStatsUnprotectedExposure(t *testing.T) {
	_, c := buildCircuit(t, fig2Network(), mapper.Domino)
	cfg := DefaultConfig()
	cfg.DisableDischarge = true
	sim := New(c, cfg)
	for _, vec := range fig2Sequence() {
		if _, _, err := sim.Cycle(vec); err != nil {
			t.Fatal(err)
		}
	}
	bs := sim.BodyStats()
	if bs.HighPhases == 0 || bs.ChargedDevices < 2 {
		t.Errorf("unprotected exposure missing: %s", bs)
	}
	if bs.Corrupted != 1 {
		t.Errorf("corrupted = %d, want 1", bs.Corrupted)
	}
	// 4 pulldown devices x 8 phases.
	if bs.DevicePhases != 32 {
		t.Errorf("device-phases = %d, want 32", bs.DevicePhases)
	}
	if bs.HighRatio() <= 0 || bs.HighRatio() > 1 {
		t.Errorf("ratio = %v", bs.HighRatio())
	}
	if !strings.Contains(bs.String(), "body-high") {
		t.Errorf("String = %q", bs.String())
	}
}

// TestBodyStatsProtectedIsZero: both of the paper's defenses keep body
// exposure at exactly zero through the fig. 2 sequence.
func TestBodyStatsProtectedIsZero(t *testing.T) {
	for _, tc := range []struct {
		label string
		soi   bool
	}{{"protected baseline", false}, {"soi mapping", true}} {
		algo := mapper.Domino
		if tc.soi {
			algo = mapper.SOI
		}
		_, c := buildCircuit(t, fig2Network(), algo)
		sim := New(c, DefaultConfig())
		for _, vec := range fig2Sequence() {
			if _, _, err := sim.Cycle(vec); err != nil {
				t.Fatal(err)
			}
		}
		bs := sim.BodyStats()
		if bs.HighPhases != 0 || bs.ChargedDevices != 0 || bs.Events != 0 {
			t.Errorf("%s: exposure should be zero: %s", tc.label, bs)
		}
	}
}

func TestBodyStatsEmpty(t *testing.T) {
	_, c := buildCircuit(t, fig2Network(), mapper.Domino)
	sim := New(c, DefaultConfig())
	bs := sim.BodyStats()
	if bs.DevicePhases != 0 || bs.HighRatio() != 0 {
		t.Errorf("fresh simulator stats = %s", bs)
	}
}
