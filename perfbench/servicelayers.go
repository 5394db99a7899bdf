package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"
	"time"

	"soidomino/internal/bench"
	"soidomino/internal/blif"
	"soidomino/internal/canon"
	"soidomino/internal/logic"
	"soidomino/internal/mapper"
	"soidomino/internal/obs"
	"soidomino/internal/service"
	"soidomino/internal/store"
	"soidomino/internal/strash"
)

// replayReq is one distinct request the traced run replays in process.
type replayReq struct {
	key    int
	body   []byte
	weight float64 // share of the workload's traffic it stands for
	tier   string  // tier that answered it; "" or local means an LRU hit
}

// replicaHitLayers are the spans a replica's LRU hit is made of; the
// rest of a direct hit's latency is service.other_ms.
var replicaHitLayers = []string{"service.decode", "blif.parse", "service.cache_key", "service.respond_json"}

// replayed holds the per-layer figures of a service replay, already
// weighted by each request's traffic share.
type replayed struct {
	metrics map[string]float64
	spans   []span
}

func (r *replayed) apply(rep *runReport) {
	for name, v := range r.metrics {
		unit := "ms"
		if u, ok := layerUnits[name]; ok {
			unit = u
		}
		rep.set(name, v, unit)
	}
}

// storeBench times store.Results and store.Journal calls with the
// workload's result bytes under the replicas' fsync policy, in a scratch
// state dir of its own.
type storeBench struct {
	results *store.Results
	journal *store.Journal
}

func openStoreBench(dir, fsync string) (*storeBench, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	policy, err := store.ParseSyncPolicy(fsync)
	if err != nil {
		return nil, err
	}
	res, _, err := store.OpenResults(dir, policy != store.SyncOff)
	if err != nil {
		return nil, err
	}
	jnl, _, err := store.OpenJournal(dir, policy)
	if err != nil {
		return nil, err
	}
	return &storeBench{results: res, journal: jnl}, nil
}

func (s *storeBench) close() {
	s.journal.Close()
}

// parseRequest builds a request's source network the way the service's
// parseSource does: a suite circuit by name or inline BLIF.
func parseRequest(req *service.MapRequest) (*logic.Network, error) {
	if req.Circuit != "" {
		b, ok := bench.Get(req.Circuit)
		if !ok {
			return nil, fmt.Errorf("unknown circuit %q", req.Circuit)
		}
		return b.Build(), nil
	}
	return blif.ParseContext(context.Background(), strings.NewReader(req.BLIF))
}

// replayService replays reqs in process, wrapping each public call a
// request crosses in a span: the router's RequestKey, then the replica's
// decode, parse, CacheKey and reply encoding, plus on a miss the whole
// mapping pipeline and the persistence writes, on a store hit the store
// read. It then sends each request through the router and straight to
// its owner replica to measure the router hop and what the spans leave
// unattributed. Every figure is a mean weighted by traffic share.
func replayService(ctx context.Context, f *fleet, keys []keyed, reqs []replayReq, sb *storeBench) (*replayed, error) {
	rec := newRecorder(time.Now())
	type keyInfo struct {
		mr   *service.MapResult
		json []byte
	}
	info := map[int]keyInfo{}
	acc := map[string]float64{}
	total := 0.0
	for _, r := range reqs {
		total += r.weight
	}
	add := func(name string, w, v float64) { acc[name] += w / total * v }
	storeCalls := map[string][]float64{}
	timeStore := func(name string, fn func() error) error {
		t0 := time.Now()
		err := rec.do(name, fn)
		storeCalls[name] = append(storeCalls[name], ms(time.Since(t0)))
		return err
	}
	for i, r := range reqs {
		ki, ok := info[r.key]
		if !ok {
			d, err := keys[r.key].expect(ctx)
			if err != nil {
				return nil, err
			}
			ki.json = d.json
			ki.mr = &service.MapResult{}
			if err := json.Unmarshal(d.json, ki.mr); err != nil {
				return nil, err
			}
			info[r.key] = ki
		}
		first := len(rec.spans)
		root := rec.beginOp("request")
		var req service.MapRequest
		var n *logic.Network
		var key string
		err := rec.do("cluster.request_key", func() (err error) {
			var rr service.MapRequest
			if err = json.Unmarshal(r.body, &rr); err == nil {
				_, err = service.RequestKey(ctx, &rr)
			}
			return
		})
		if err == nil {
			err = rec.do("service.decode", func() error { return json.Unmarshal(r.body, &req) })
		}
		if err == nil {
			err = rec.do("blif.parse", func() (err error) { n, err = parseRequest(&req); return })
		}
		opt := mapper.DefaultOptions()
		if err == nil {
			rec.do("service.cache_key", func() error { key = service.CacheKey(n, "soi", opt); return nil })
		}
		var st obs.Stats
		var dup int
		switch {
		case err != nil:
		case r.tier == service.TierMiss:
			var d derivation
			d, err = derive(obs.WithStats(ctx, &st), rec, keys[r.key].label, n, "soi", opt)
			if err == nil {
				dup = d.pipe.Duplicated
			}
			if err == nil && sb != nil {
				err = timeStore("store.put", func() error { return sb.results.Put(ctx, key, d.json) })
				for _, typ := range []string{store.RecAccepted, store.RecRunning, store.RecDone} {
					if err == nil {
						err = timeStore("store.journal_append", func() error {
							return sb.journal.Append(ctx, store.JobRecord{Type: typ, ID: fmt.Sprintf("j%d", i), Key: key})
						})
					}
				}
			}
		case r.tier == service.TierStore && sb != nil:
			if err = sb.results.Put(ctx, key, ki.json); err != nil {
				break
			}
			err = timeStore("store.get", func() error { _, err := sb.results.Get(key); return err })
		}
		if err == nil {
			rec.do("service.respond_json", func() error {
				_, err := json.MarshalIndent(service.JobView{ID: "j1", State: service.JobDone, Circuit: keys[r.key].label,
					Algorithm: "soi", Cached: true, Result: ki.mr, Attribution: &service.Attribution{CacheTier: service.TierLocal}}, "", "  ")
				return err
			})
		}
		rec.end(root)
		if err != nil {
			return nil, fmt.Errorf("replay %s: %w", keys[r.key].label, err)
		}
		for name, d := range selfTimes(rec.spans[first:]) {
			add(name, r.weight, ms(d))
		}
		// A miss's prepare span holds strash, decompose and unate, which
		// PrepareNetworkMode times into the obs.Stats phases.
		add("pipeline.strash", r.weight, ms(st.Phases.Strash))
		add("decompose.ms", r.weight, ms(st.Phases.Decompose))
		add("unate.ms", r.weight, ms(st.Phases.Unate))
		add("mapper.dp_ms", r.weight, ms(st.Phases.DP))
		add("mapper.traceback_ms", r.weight, ms(st.Phases.Traceback))
		add("mapper.tuples_generated", r.weight, float64(st.TuplesGenerated))
		add("mapper.tuples_kept", r.weight, float64(st.TuplesKept))
		add("unate.duplicated_nodes", r.weight, float64(dup))

		// The key's own strash and canon hash, and EncodeJSON of the
		// answer, timed apart from the request tree: CacheKey runs the
		// first two inside itself, and a hit never calls the third.
		parts := rec.beginOp("key.parts")
		var sr *strash.Result
		rec.do("key.strash", func() error { sr = strash.Run(n); return nil })
		rec.do("key.canon_hash", func() error { canon.Hash(sr.Network); return nil })
		rec.do("key.encode", func() (err error) { _, err = service.EncodeJSON(ki.mr); return })
		rec.end(parts)
		add("strash.merged_nodes", r.weight, float64(sr.Counters.Merged))
		add("strash.dead_nodes", r.weight, float64(sr.Counters.Dead))
		add("service.result_kb", r.weight, float64(len(ki.json))/1024)
	}
	self := selfTimes(rec.spans)
	count := float64(len(reqs))
	out := &replayed{metrics: map[string]float64{}, spans: rec.spans}
	m := out.metrics
	for _, name := range []string{"cluster.request_key", "service.decode", "blif.parse", "service.cache_key",
		"service.respond_json", "mapper", "mapper.audit", "service.new_result"} {
		m[layerMetricName(name)] = acc[name]
	}
	m["strash.ms"] = acc["pipeline.strash"] + ms(self["key.strash"])/count
	m["canon.hash_ms"] = ms(self["key.canon_hash"]) / count
	m["service.encode_ms"] = ms(self["key.encode"]) / count
	for _, name := range []string{"decompose.ms", "unate.ms", "mapper.dp_ms", "mapper.traceback_ms", "mapper.tuples_generated", "mapper.tuples_kept",
		"unate.duplicated_nodes", "strash.merged_nodes", "strash.dead_nodes", "service.result_kb"} {
		m[name] = acc[name]
	}
	for name, calls := range storeCalls {
		m[name+"_ms"] = mean(calls)
	}

	// The HTTP comparison: the same bytes routed and direct to the owner,
	// alternating, three rounds each; every request is a cache hit now.
	var hop, direct float64
	for _, r := range reqs {
		owner := f.replicas[f.owner(keys[r.key].key)].url
		var routed, straight []float64
		for round := 0; round < 3; round++ {
			for _, base := range []string{f.routerURL, owner} {
				t0 := time.Now()
				status, _, err := f.post(ctx, base, r.body, nil)
				if err != nil || status != 200 {
					return nil, fmt.Errorf("hop probe %s: status %d: %v", keys[r.key].label, status, err)
				}
				if base == owner {
					straight = append(straight, ms(time.Since(t0)))
				} else {
					routed = append(routed, ms(time.Since(t0)))
				}
			}
		}
		hop += r.weight / total * (median(routed) - median(straight))
		direct += r.weight / total * median(straight)
	}
	attributed := 0.0
	for _, name := range replicaHitLayers {
		attributed += m[layerMetricName(name)]
	}
	// The hit path only: the miss layers above are not part of a hit.
	m["cluster.hop_ms"] = hop
	m["service.other_ms"] = math.Max(direct-attributed, 0)
	m["service.direct_hit_ms"] = direct
	return out, nil
}

// layerMetricName maps a span name to its per-layer metric name.
func layerMetricName(span string) string {
	switch span {
	case "mapper":
		return "mapper.call_ms"
	}
	return span + "_ms"
}
