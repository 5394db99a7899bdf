// Package report runs the paper's experiments end to end and renders the
// four evaluation tables. Each circuit goes through the full pipeline —
// benchmark generator, 2-input decomposition, unate conversion, one or
// more mappers, functional verification — and the resulting statistics are
// laid out in the papers' row format next to the paper's own numbers.
package report

import (
	"context"
	"fmt"

	"soidomino/internal/bench"
	"soidomino/internal/decompose"
	"soidomino/internal/logic"
	"soidomino/internal/mapper"
	"soidomino/internal/obs"
	"soidomino/internal/strash"
	"soidomino/internal/unate"
	"soidomino/internal/verify"
)

// Pipeline is a prepared circuit: generated, strashed (unless opted
// out), decomposed and unate.
type Pipeline struct {
	Name string
	// Orig is the submitted network, untouched — equivalence checks and
	// the encoded Source summary always refer to it.
	Orig *logic.Network
	// Strash is the front-end canonicalization result, nil when the run
	// opted out (mapper.Options.StrashOff). Strash.Network is what
	// decompose consumed.
	Strash *strash.Result
	Unate  *logic.Network
	// Duplicated reports the unate conversion's logic duplication.
	Duplicated int
}

// Prepare builds the named benchmark and runs it to unate form.
func Prepare(name string) (*Pipeline, error) {
	b, ok := bench.Get(name)
	if !ok {
		return nil, fmt.Errorf("report: unknown benchmark %q", name)
	}
	return PrepareNetwork(b.Build())
}

// PrepareNetwork runs an arbitrary circuit to unate form.
func PrepareNetwork(n *logic.Network) (*Pipeline, error) {
	return PrepareNetworkContext(context.Background(), n)
}

// PrepareNetworkContext is PrepareNetwork with observability: when ctx
// carries an obs.Stats collector (obs.WithStats) the strash, decompose
// and unate phases charge their wall-clock cost to it, and an obs.Tracer
// (obs.WithTracer) records them as spans, both through obs.Timed. A
// plain context makes it identical to PrepareNetwork. Strash is on; use
// PrepareNetworkMode to opt out.
func PrepareNetworkContext(ctx context.Context, n *logic.Network) (*Pipeline, error) {
	return PrepareNetworkMode(ctx, n, false)
}

// PrepareNetworkMode is PrepareNetworkContext with the strash front-end
// made optional: strashOff maps the submitted network exactly as
// submitted (no hash-consing, no DCE), the pre-strash behaviour the
// fuzzer's metamorphic oracle and `soimap -strash-off` compare against.
func PrepareNetworkMode(ctx context.Context, n *logic.Network, strashOff bool) (*Pipeline, error) {
	st, tr := obs.StatsFrom(ctx), obs.TracerFrom(ctx)
	src := n
	var sr *strash.Result
	if !strashOff {
		obs.Timed(st, tr, obs.PhaseStrash, n.Name, func() error {
			sr = strash.RunContext(ctx, n)
			return nil
		})
		st.AddStrash(sr.Counters.Merged, sr.Counters.Folded, sr.Counters.Dead)
		src = sr.Network
	}
	var d *logic.Network
	err := obs.Timed(st, tr, obs.PhaseDecompose, n.Name, func() error {
		var derr error
		d, derr = decompose.Decompose(src)
		return derr
	})
	if err != nil {
		return nil, fmt.Errorf("report: decompose %s: %w", n.Name, err)
	}
	var u *unate.Result
	err = obs.Timed(st, tr, obs.PhaseUnate, n.Name, func() error {
		var uerr error
		u, uerr = unate.Convert(d)
		return uerr
	})
	if err != nil {
		return nil, fmt.Errorf("report: unate %s: %w", n.Name, err)
	}
	return &Pipeline{
		Name:       n.Name,
		Orig:       n,
		Strash:     sr,
		Unate:      u.Network,
		Duplicated: u.DuplicatedNodes,
	}, nil
}

// Map runs one algorithm over the prepared circuit, audits the result and
// (when check is true) verifies functional equivalence against the
// original network.
func (p *Pipeline) Map(a mapper.Algorithm, opt mapper.Options, check bool) (*mapper.Result, error) {
	res, err := mapper.Map(context.Background(), a, p.Unate, opt)
	if err != nil {
		return nil, fmt.Errorf("report: %s on %s: %w", a, p.Name, err)
	}
	if err := res.Audit(); err != nil {
		return nil, fmt.Errorf("report: %s on %s: audit: %w", a, p.Name, err)
	}
	if check {
		if err := verifyAgain(p, res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// verifyAgain re-checks an existing (possibly transformed) mapping against
// the pipeline's original network.
func verifyAgain(p *Pipeline, res *mapper.Result) error {
	return verify.MustBeEquivalent(p.Orig, res, verify.DefaultOptions())
}
