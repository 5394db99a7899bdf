package service

import (
	"maps"
	"sync"
	"sync/atomic"
	"time"

	"soidomino/internal/obs"
)

// counterNames are the plain monotonic counters of the server, in the
// (sorted) order /metrics exposes them.
var counterNames = []string{
	"cache_hits", "cache_misses",
	"cluster_cache_peer_errors", "cluster_cache_peer_hits", "cluster_cache_served",
	"http_panics",
	"jobs_canceled", "jobs_coalesced", "jobs_done", "jobs_evicted", "jobs_failed",
	"jobs_journal_compacted", "jobs_panicked", "jobs_readmitted", "jobs_recovered",
	"jobs_rejected", "jobs_shed", "jobs_submitted",
	"key_memo_hits", "key_memo_misses",
	"store_corrupt", "store_evicted", "store_hits", "store_misses", "store_write_errors",
}

// metrics is the per-server instrument set, served in the Prometheus
// text format at /metrics. Counters and gauges are plain atomics owned
// by the server, so many servers — the tests run several — can coexist.
type metrics struct {
	// counters holds one counter per counterNames entry; the map is
	// built once and only read after, so it needs no lock.
	counters    map[string]*atomic.Int64
	jobsQueued  atomic.Int64 // gauge: jobs waiting in the queue
	jobsRunning atomic.Int64 // gauge: jobs occupying a worker

	// avgJobNanos is an exponentially-weighted moving average of job
	// wall-clock time, the load shedder's service-time estimate.
	avgJobNanos atomic.Int64

	mu      sync.Mutex
	latency map[string]*histogram // per-algorithm

	// engineMu guards the per-algorithm aggregates of the mapper engine's
	// per-run obs.Stats, merged in by runJob and served at /metrics.
	engineMu sync.Mutex
	engine   map[string]*obs.Stats
}

func newMetrics() *metrics {
	m := &metrics{
		counters: make(map[string]*atomic.Int64, len(counterNames)),
		latency:  make(map[string]*histogram),
		engine:   make(map[string]*obs.Stats),
	}
	for _, name := range counterNames {
		m.counters[name] = new(atomic.Int64)
	}
	return m
}

// add bumps one counterNames counter; any other name is a programming
// error and panics.
func (m *metrics) add(name string, delta int64) { m.counters[name].Add(delta) }

// recordDuration folds one finished job's wall-clock time into the moving
// average (alpha = 1/4; the first sample seeds the average). A stale-read
// race between concurrent workers only perturbs the smoothing, which the
// shedder treats as an estimate anyway.
func (m *metrics) recordDuration(d time.Duration) {
	old := m.avgJobNanos.Load()
	if old == 0 {
		m.avgJobNanos.Store(int64(d))
		return
	}
	m.avgJobNanos.Store(old + (int64(d)-old)/4)
}

// avgJobDuration returns the current service-time estimate (0 until the
// first job finishes).
func (m *metrics) avgJobDuration() time.Duration {
	return time.Duration(m.avgJobNanos.Load())
}

// counter reads one counter's current value (0 for an unknown name).
func (m *metrics) counter(name string) int64 {
	if c := m.counters[name]; c != nil {
		return c.Load()
	}
	return 0
}

// recordEngine merges one run's DP stats into the algorithm's aggregate.
func (m *metrics) recordEngine(algo string, st *obs.Stats) {
	m.engineMu.Lock()
	agg, ok := m.engine[algo]
	if !ok {
		agg = &obs.Stats{}
		m.engine[algo] = agg
	}
	agg.Merge(st)
	m.engineMu.Unlock()
}

// engineSnapshot copies the per-algorithm DP aggregates for rendering.
func (m *metrics) engineSnapshot() map[string]obs.Stats {
	m.engineMu.Lock()
	defer m.engineMu.Unlock()
	out := make(map[string]obs.Stats, len(m.engine))
	for algo, st := range m.engine {
		out[algo] = *st
	}
	return out
}

// latencySnapshot copies the per-algorithm latency histograms.
func (m *metrics) latencySnapshot() map[string]histSnapshot {
	m.mu.Lock()
	algos := maps.Clone(m.latency)
	m.mu.Unlock()
	out := make(map[string]histSnapshot, len(algos))
	for k, h := range algos {
		out[k] = h.snapshot()
	}
	return out
}

// observe records one successful mapping run's wall-clock time in the
// algorithm's latency histogram, creating it on first use.
func (m *metrics) observe(algo string, d time.Duration) {
	m.mu.Lock()
	h, ok := m.latency[algo]
	if !ok {
		h = newHistogram()
		m.latency[algo] = h
	}
	m.mu.Unlock()
	h.observe(d)
}

// latencyBoundsMS are the histogram's upper bucket bounds in milliseconds;
// a final unbounded bucket catches everything slower.
var latencyBoundsMS = []int64{1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000}

// histogram is a fixed-bucket latency histogram.
type histogram struct {
	mu      sync.Mutex
	count   int64
	sumMS   int64
	buckets []int64 // len(latencyBoundsMS)+1, last is the overflow bucket
}

func newHistogram() *histogram {
	return &histogram{buckets: make([]int64, len(latencyBoundsMS)+1)}
}

func (h *histogram) observe(d time.Duration) {
	ms := d.Milliseconds()
	i := 0
	for i < len(latencyBoundsMS) && ms > latencyBoundsMS[i] {
		i++
	}
	h.mu.Lock()
	h.count++
	h.sumMS += ms
	h.buckets[i]++
	h.mu.Unlock()
}

// histSnapshot is a consistent copy of one histogram's state. Count and
// SumMS ride along with the buckets so /metrics can always derive request
// rate and mean latency (sum/count) from a scrape pair.
type histSnapshot struct {
	Count   int64
	SumMS   int64
	Buckets []int64
}

func (h *histogram) snapshot() histSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	return histSnapshot{
		Count:   h.count,
		SumMS:   h.sumMS,
		Buckets: append([]int64(nil), h.buckets...),
	}
}
