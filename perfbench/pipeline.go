package main

import (
	"context"
	"fmt"

	"soidomino/internal/logic"
	"soidomino/internal/mapper"
	"soidomino/internal/report"
	"soidomino/internal/service"
)

// mapAlgo runs the mapper a request's algorithm name selects, exactly as
// `soimap -algo` and the service do.
func mapAlgo(ctx context.Context, algo string, n *logic.Network, opt mapper.Options) (*mapper.Result, error) {
	switch algo {
	case "domino":
		return mapper.DominoMapContext(ctx, n, opt)
	case "rs":
		return mapper.RSMapContext(ctx, n, opt)
	case "rsdeep":
		return mapper.RSMapDeepContext(ctx, n, opt)
	case "soi":
		return mapper.SOIDominoMapContext(ctx, n, opt)
	}
	return nil, fmt.Errorf("unknown algorithm %q", algo)
}

// derivation is one mapped job: the prepared pipeline, the mapper result
// and its wire bytes.
type derivation struct {
	pipe *report.Pipeline
	res  *mapper.Result
	json []byte
}

// derive runs the path `soimap -json` runs: PrepareNetworkMode, the
// mapper, Result.Audit, NewMapResult and EncodeJSON. It is the batch-map
// job and the oracle's reference for every service answer. A traced run
// passes a recorder, which wraps each of those public calls in a span,
// and an obs.Stats in ctx, from which it reads the strash, decompose and
// unate times PrepareNetworkMode records and the mapper's DP split; an
// untraced run passes nil.
func derive(ctx context.Context, rec *recorder, label string, src *logic.Network, algo string, opt mapper.Options) (derivation, error) {
	var d derivation
	err := rec.do("prepare", func() (err error) { d.pipe, err = report.PrepareNetworkMode(ctx, src, opt.StrashOff); return })
	if err != nil {
		return d, err
	}
	if err := rec.do("mapper", func() (err error) { d.res, err = mapAlgo(ctx, algo, d.pipe.Unate, opt); return }); err != nil {
		return d, err
	}
	if err := rec.do("mapper.audit", d.res.Audit); err != nil {
		return d, fmt.Errorf("audit: %w", err)
	}
	var mr *service.MapResult
	rec.do("service.new_result", func() error { mr = service.NewMapResult(label, d.pipe, d.res); return nil })
	err = rec.do("service.encode", func() (err error) { d.json, err = service.EncodeJSON(mr); return })
	return d, err
}
