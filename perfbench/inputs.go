package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"

	"soidomino/internal/bench"
	"soidomino/internal/blif"
	"soidomino/internal/logic"
	"soidomino/internal/mapper"
	"soidomino/internal/service"
)

// randomNetwork is a seeded bench.Random network with gates gates and
// c880's interface proportions (c880: 60 inputs, 26 outputs, 520 gates).
func randomNetwork(name string, seed int64, gates int) *logic.Network {
	p := bench.DefaultRandParams(seed)
	p.Name = name
	p.Gates = gates
	p.Inputs = max(8, gates*60/520)
	p.Outputs = max(4, gates*26/520)
	return bench.Random(p)
}

// blifVariant rewrites a BLIF text into a structurally identical one with
// different bytes: internal signals renamed, the inputs of some covers
// permuted (columns moved with them) and the covers declared in a
// shuffled order. Primary input and output names stay, since they are
// part of the interface, and so do buffer outputs: the parser folds a
// buffer onto its source and gives the source the buffer's name, which
// on a primary input is interface too. Strash collapses the variant onto
// the original's key. It also returns the new names of the renamed
// signals.
func blifVariant(text string, rng *rand.Rand) (string, []string) {
	var head []string
	var blocks [][]string
	keep := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		f := strings.Fields(line)
		switch {
		case len(f) == 0 || f[0] == ".end":
		case f[0] == ".model":
			head = append(head, line)
		case f[0] == ".inputs" || f[0] == ".outputs":
			head = append(head, line)
			for _, s := range f[1:] {
				keep[s] = true
			}
		case f[0] == ".names":
			blocks = append(blocks, []string{line})
		default:
			blocks[len(blocks)-1] = append(blocks[len(blocks)-1], line)
		}
	}
	for _, b := range blocks {
		if sig := strings.Fields(b[0]); len(sig) == 3 && len(b) == 2 && b[1] == "1 1" {
			keep[sig[2]] = true
		}
	}
	rename := map[string]string{}
	var renamed []string
	name := func(s string) string {
		if keep[s] {
			return s
		}
		if r, ok := rename[s]; ok {
			return r
		}
		// Fixed width, so no renamed signal's name contains another's.
		r := fmt.Sprintf("x%04x_%05d", rng.Intn(1<<16), len(rename))
		rename[s] = r
		renamed = append(renamed, r)
		return r
	}
	for _, b := range blocks {
		sig := strings.Fields(b[0])[1:]
		ins := sig[:len(sig)-1]
		perm := rng.Perm(len(ins))
		if rng.Intn(2) == 0 {
			for i := range perm {
				perm[i] = i
			}
		}
		header := []string{".names"}
		for _, p := range perm {
			header = append(header, name(ins[p]))
		}
		b[0] = strings.Join(append(header, name(sig[len(sig)-1])), " ")
		for r := 1; r < len(b); r++ {
			f := strings.Fields(b[r])
			if len(f) != 2 || len(f[0]) != len(ins) {
				continue // constant covers have one field
			}
			col := make([]byte, len(ins))
			for i, p := range perm {
				col[i] = f[0][p]
			}
			b[r] = string(col) + " " + f[1]
		}
	}
	rng.Shuffle(len(blocks), func(i, j int) { blocks[i], blocks[j] = blocks[j], blocks[i] })
	var sb strings.Builder
	for _, h := range head {
		sb.WriteString(h + "\n")
	}
	for _, b := range blocks {
		sb.WriteString(strings.Join(b, "\n") + "\n")
	}
	sb.WriteString(".end\n")
	return sb.String(), renamed
}

// circuitVariants are request bodies equal in meaning to
// {"circuit": name} with different bytes: explicit defaults, reordered
// fields, whitespace. A memo keyed on exact request bytes misses them.
func circuitVariants(name string) [][]byte {
	return [][]byte{
		[]byte(fmt.Sprintf(`{"algorithm":"soi","circuit":%q}`, name)),
		[]byte(fmt.Sprintf(`{"circuit": %q, "options": {"max_width": 5}}`, name)),
		[]byte(fmt.Sprintf(`{"options":{"objective":"area","max_height":8},"circuit":%q}`, name)),
		[]byte(fmt.Sprintf("{\n  \"circuit\": %q\n}", name)),
	}
}

// keyed is one distinct submission of a service workload: its canonical
// request body, the label its answer carries, and the network the
// oracle maps to derive the expected answer.
type keyed struct {
	label string
	body  []byte
	key   string // service.RequestKey of body
	build func() (*logic.Network, error)
}

func circuitKey(name string) (keyed, error) {
	b, ok := bench.Get(name)
	if !ok {
		return keyed{}, fmt.Errorf("unknown circuit %q", name)
	}
	body, err := json.Marshal(service.MapRequest{Circuit: name})
	if err != nil {
		return keyed{}, err
	}
	return finishKey(keyed{label: name, body: body, build: func() (*logic.Network, error) { return b.Build(), nil }})
}

// blifKey wraps a network as an inline-BLIF submission. The oracle maps
// the parsed text, as the service does, not the generator's network.
func blifKey(n *logic.Network) (keyed, string, error) {
	var sb strings.Builder
	if err := blif.Write(&sb, n); err != nil {
		return keyed{}, "", err
	}
	text := sb.String()
	body, err := json.Marshal(service.MapRequest{BLIF: text})
	if err != nil {
		return keyed{}, "", err
	}
	k, err := finishKey(keyed{label: n.Name, body: body, build: func() (*logic.Network, error) { return blif.ParseString(text) }})
	return k, text, err
}

func finishKey(k keyed) (keyed, error) {
	key, err := bodyKey(k.body)
	k.key = key
	return k, err
}

// bodyKey is the service.RequestKey of a request body.
func bodyKey(body []byte) (string, error) {
	var req service.MapRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return "", err
	}
	return service.RequestKey(context.Background(), &req)
}

// expect derives the answer a correct service gives for k: the soi
// mapper under default options, encoded by EncodeJSON.
func (k keyed) expect(ctx context.Context) (derivation, error) {
	n, err := k.build()
	if err != nil {
		return derivation{}, err
	}
	return derive(ctx, nil, k.label, n, "soi", mapper.DefaultOptions())
}
