// Package cluster turns a set of soimapd replicas into one logical
// mapping service: a routing front-end (Router) consistent-hash-routes
// each submission by its canonical request key — the internal/canon
// network hash keyed jointly with the canonical options encoding, the
// exact key replicas cache results under — so identical circuits land on
// the same replicas regardless of how the request was spelled.
//
// Three layers cooperate:
//
//   - Ring: a consistent-hash ring with virtual nodes. Prefer(key, n)
//     yields the replicas responsible for a key in failover order;
//     adding or removing a replica reshuffles only the keys it owned.
//
//   - Flight: a generic singleflight. Concurrent identical synchronous
//     submissions collapse into one upstream call; followers wait for
//     the leader's reply and receive the same bytes. The replicas run
//     their own singleflight layer underneath (the job table coalesces
//     identical in-flight jobs), so a thundering herd costs one DP run
//     no matter which layer it reaches first.
//
//   - Router: the HTTP front-end. POST /v1/map decodes the body as
//     strictly as a replica does, takes the routing key from its
//     service.KeyMemo, routes to the ReplicationFactor preferred replicas
//     with failover (then to the rest as a last resort), and forwards
//     the replica's body with its result bytes untouched, rewriting only
//     the view header: job ids become "<replica>.<id>" so GET
//     /v1/jobs/{id} polls the replica that owns the job. A background
//     prober watches each replica's /readyz — a draining replica drops
//     out of rotation before its listener closes — and transport
//     failures mark a replica unready passively between probes.
//
// The consistency contract making all of this safe is DESIGN.md §12
// (§12.2 for the one result form): mapping is deterministic and results
// are byte-identical across replicas, so any replica, cached or
// coalesced copy may answer any request.
package cluster
