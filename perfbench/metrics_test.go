package main

import (
	"context"
	"encoding/json"
	"os"
	"testing"

	"soidomino/internal/service"
)

// The metric lists the benchmark prints are the ones BENCHMARK.json
// declares, in name, unit and direction.
func TestBenchmarkJSONMatchesMetricLists(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		EndToEnd []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		kind string
		got  []struct{ Name, Unit, Better string }
		want []metricDef
	}{{"end_to_end", bj.EndToEnd, endToEnd}, {"per_layer", bj.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", c.kind, len(c.got), len(c.want))
			continue
		}
		for i, m := range c.want {
			if g := c.got[i]; g.Name != m.name || g.Unit != m.unit || g.Better != m.better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the benchmark prints %+v", c.kind, i, g, m)
			}
		}
	}
}

// A result embedded compact (through the router) or indented (straight
// from a replica) has the digest of its EncodeJSON bytes.
func TestCompactDigestIgnoresEnvelopeLayout(t *testing.T) {
	k, err := circuitKey("mux")
	if err != nil {
		t.Fatal(err)
	}
	d, err := k.expect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var mr service.MapResult
	if err := json.Unmarshal(d.json, &mr); err != nil {
		t.Fatal(err)
	}
	view := service.JobView{ID: "j1", State: service.JobDone, Result: &mr}
	compact, err := json.Marshal(view)
	if err != nil {
		t.Fatal(err)
	}
	indented, err := json.MarshalIndent(view, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want, err := compactDigest(d.json)
	if err != nil {
		t.Fatal(err)
	}
	for name, body := range map[string][]byte{"compact": compact, "indented": indented} {
		var a answer
		if err := json.Unmarshal(body, &a); err != nil {
			t.Fatal(err)
		}
		if got, err := compactDigest(a.Result); err != nil || got != want {
			t.Errorf("%s envelope: digest %s (%v), want %s", name, got, err, want)
		}
	}
	mr.Stats.TTotal++
	changed, _ := json.Marshal(service.JobView{Result: &mr})
	var a answer
	if err := json.Unmarshal(changed, &a); err != nil {
		t.Fatal(err)
	}
	if got, _ := compactDigest(a.Result); got == want {
		t.Error("a changed result kept the digest")
	}
}
