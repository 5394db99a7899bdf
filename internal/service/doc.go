// Package service implements soimapd, the concurrent SOI domino mapping
// service: an HTTP/JSON API over the mappers in internal/mapper, backed
// by a bounded worker pool and a canonical-network result cache.
//
// # API
//
//	POST /v1/map       submit a mapping job (inline BLIF/.bench text or a
//	                   built-in benchmark name); synchronous by default,
//	                   {"async": true} enqueues and returns immediately
//	GET  /v1/jobs/{id} job status and, once done, the result
//	GET  /healthz      liveness probe
//	GET  /metrics      Prometheus text format: job, cache and store
//	                   counters, latency histograms, DP-engine statistics
//
// # Caching
//
// Results are cached in an LRU (internal/service/cache) keyed by the
// canonical hash of the submitted network (internal/canon) combined with
// the algorithm and mapper options. Submitting the same circuit twice —
// the common case when sweeping k/W/H, where only the options part of
// the key changes — answers the repeat from the cache without running
// the dynamic program. The key itself is memoized per process
// (KeyMemo): a resubmitted request is keyed without parsing its source,
// and parsed only if it must be mapped (DESIGN.md §12.1).
//
// # Cancellation
//
// Every job carries a deadline (request timeout_ms, capped by the
// server's MaxTimeout). The worker runs the mapper through its Context
// variants, which observe cancellation at node-processing checkpoints,
// so an expired or abandoned job stops mid-DP instead of running to
// completion.
//
// # Encoding
//
// A result is held once, as the compact JSON of its MapResult
// (encode.go), in the LRU, the store, the peer tier and every answer;
// a job body is the view header with that result as its last member
// (WriteView). EncodeJSON of the decoded result is `soimap -json`.
package service
