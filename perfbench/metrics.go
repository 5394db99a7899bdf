package main

import (
	"context"
	"encoding/json"
	"fmt"

	"soidomino/internal/service"
)

// metricDef is one metric of BENCHMARK.json.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics every untraced run prints, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"throughput_rps", "1/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_p95_ms", "ms", "lower"},
	{"rate_max_rps", "1/s", "higher"},
	{"ok_ratio", "ratio", "higher"},
	{"peak_rss_mb", "MiB", "lower"},
	{"transistors_total", "count", "lower"},
	{"discharge_transistors", "count", "lower"},
}

// perLayer are the metrics every traced run prints, on every workload; a
// layer a workload does not cross reads 0. Times are mean milliseconds
// per operation (job or request) unless the README says otherwise.
var perLayer = []metricDef{
	{"mapper.dp_ms", "ms", "lower"},
	{"mapper.dp_ms.mux", "ms", "lower"},
	{"mapper.dp_ms.des", "ms", "lower"},
	{"mapper.dp_ms.c3540", "ms", "lower"},
	{"mapper.dp_ms.c7552", "ms", "lower"},
	{"mapper.traceback_ms", "ms", "lower"},
	{"mapper.call_ms", "ms", "lower"},
	{"mapper.tuples_generated", "count", "lower"},
	{"mapper.tuples_kept", "count", "lower"},
	{"mapper.audit_ms", "ms", "lower"},
	{"decompose.ms", "ms", "lower"},
	{"unate.ms", "ms", "lower"},
	{"unate.duplicated_nodes", "count", "lower"},
	{"pipeline.other_ms", "ms", "lower"},
	{"pipeline.coverage_share", "ratio", "higher"},
	{"strash.ms", "ms", "lower"},
	{"strash.merged_nodes", "count", "higher"},
	{"strash.dead_nodes", "count", "higher"},
	{"canon.hash_ms", "ms", "lower"},
	{"service.cache_key_ms", "ms", "lower"},
	{"blif.parse_ms", "ms", "lower"},
	{"service.decode_ms", "ms", "lower"},
	{"cluster.hop_ms", "ms", "lower"},
	{"cluster.request_key_ms", "ms", "lower"},
	{"cluster.coalesced_share", "ratio", "higher"},
	{"cluster.failovers", "count", "lower"},
	{"client.retries", "count", "lower"},
	{"service.new_result_ms", "ms", "lower"},
	{"service.encode_ms", "ms", "lower"},
	{"service.respond_json_ms", "ms", "lower"},
	{"service.result_kb", "KiB", "lower"},
	{"service.direct_hit_ms", "ms", "lower"},
	{"service.other_ms", "ms", "lower"},
	{"service.tier_local_share", "ratio", "higher"},
	{"service.tier_store_share", "ratio", "higher"},
	{"service.tier_peer_share", "ratio", "higher"},
	{"service.tier_miss_share", "ratio", "lower"},
	{"service.tier_coalesced_share", "ratio", "higher"},
	{"service.peer_useful_ratio", "ratio", "higher"},
	{"service.queue_wait_p50_ms", "ms", "lower"},
	{"service.shed_share", "ratio", "lower"},
	{"store.put_ms", "ms", "lower"},
	{"store.get_ms", "ms", "lower"},
	{"store.journal_append_ms", "ms", "lower"},
	{"store.hits", "count", "higher"},
	{"store.write_errors", "count", "lower"},
	{"obs.trace_overhead_ratio", "ratio", "lower"},
	{"loadgen.late_p95_ms", "ms", "lower"},
	{"fail_ratio", "ratio", "lower"},
}

// layerUnits maps each per-layer metric to its unit.
var layerUnits = func() map[string]string {
	m := make(map[string]string, len(perLayer))
	for _, d := range perLayer {
		m[d.name] = d.unit
	}
	return m
}()

// setLayerDefaults gives every per-layer metric a value: 0 for the
// layers this workload does not cross.
func setLayerDefaults(rep *runReport) {
	for _, d := range perLayer {
		if _, ok := rep.Metrics[d.name]; !ok {
			rep.set(d.name, 0, d.unit)
		}
	}
}

// only keeps exactly the metrics in defs, so a run prints its list and
// nothing else, and fails if one is missing.
func only(rep *runReport, defs []metricDef) error {
	kept := make(map[string]metric, len(defs))
	for _, d := range defs {
		m, ok := rep.Metrics[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		kept[d.name] = m
	}
	rep.Metrics = kept
	return nil
}

// serviceCounters sets the counter-based per-layer metrics of a traced
// service phase: the tier mix and queue wait from the answers'
// attribution records (cross-checked on the sampled ones against
// GET /v1/jobs/{id}/explain), and coalescing, failover, peer, store and
// shedding counts from the fleet's /metrics, as deltas over the phase.
func serviceCounters(ctx context.Context, rep *runReport, f *fleet, book *answerBook,
	before map[string]float64, retries0, lookups0 int64) error {
	after, err := f.scrape(ctx)
	if err != nil {
		return err
	}
	delta := func(name string) float64 { return after[name] - before[name] }
	tiers := shares(book.tiers)
	for _, t := range []string{service.TierLocal, service.TierStore, service.TierPeer, service.TierMiss, service.TierCoalesced} {
		rep.set("service.tier_"+t+"_share", tiers[t], "ratio")
	}
	qw, _ := percentile(book.queueWait, 0.5)
	rep.set("service.queue_wait_p50_ms", qw, "ms")
	for _, id := range book.sampled {
		b, err := f.get(ctx, f.routerURL+"/v1/jobs/"+id+"/explain")
		if err != nil {
			continue // the replica may have evicted it; the answer carried the same record
		}
		var ev service.ExplainView
		if json.Unmarshal(b, &ev) != nil || ev.Attribution == nil {
			return fmt.Errorf("explain %s: no attribution", id)
		}
	}
	requests := delta("soirouter_requests_total")
	rep.set("cluster.coalesced_share",
		(delta("soirouter_jobs_coalesced_total")+delta("soimapd_jobs_coalesced_total"))/max(requests, 1), "ratio")
	rep.set("cluster.failovers", delta("soirouter_routed_failovers_total"), "count")
	rep.set("client.retries", float64(f.retries.Load()-retries0), "count")
	lookups := float64(f.peerLookups.Load() - lookups0)
	if lookups > 0 {
		rep.set("service.peer_useful_ratio", delta("soimapd_cluster_cache_peer_hits_total")/lookups, "ratio")
	}
	rep.set("service.shed_share", delta("soimapd_jobs_shed_total")/max(delta("soimapd_jobs_submitted_total"), 1), "ratio")
	rep.set("store.hits", delta("soimapd_store_hits_total"), "count")
	rep.set("store.write_errors", delta("soimapd_store_write_errors_total"), "count")
	rep.traffic["sampled_traces"] = len(book.sampled)
	return nil
}
