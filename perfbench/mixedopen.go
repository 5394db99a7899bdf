package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"soidomino/internal/obs"
	"soidomino/internal/service"
)

// mixed-open shape. The replicas' LRU holds moCacheEntries results each,
// far below the working set, so old keys are answered from the store.
const (
	moCacheEntries = 16
	moWarmKeys     = 64  // keys mapped during set-up: the first old keys
	moGates        = 520 // c880's size
	moSlots        = 2   // requests the generator keeps in flight
	moNominalRPS   = 30.0
	// moFsync is the replicas' journal fsync policy, the daemon default;
	// the traced run times store calls under it.
	moFsync = "interval"
	// An old key has seen moOldAfter fresh keys since it was last asked
	// for: more than both LRUs hold together, so it is out of its owner's.
	moOldAfter = 48
	// moP95LimitMS is the latency_p95_ms limit rate_max_rps must meet.
	// BENCHMARK.json states it; changing it makes rate_max_rps figures
	// incomparable with earlier ones.
	moP95LimitMS = 100.0
)

// moClosedPerS is how many items the closed-loop phase schedules per
// second of --seconds: about 550 requests, over twice the 190–220/s one
// processor of the development host answers, so a faster commit still
// runs out of time, not items.
const moClosedPerS = 500

// Request classes of mixed-open and their shares of scheduled items. A
// burst item is two identical submissions of a fresh key due at once.
var moClasses = []struct {
	class string
	share float64
}{
	{"fresh", 0.22},
	{"recent", 0.40},
	{"old", 0.16},
	{"burst", 0.10},
	{"peer", 0.12},
}

// Where a mixed-open request is sent.
const (
	toRouter = iota
	toOwner  // straight to the replica that owns the key
	toOther  // straight to the replica that does not
)

type moReq struct {
	class string
	key   int
	to    int
	due   time.Duration
}

// moStream generates mixed-open's requests from the seed. Keys are
// appended as fresh ones are needed; every key is a seeded random
// network at c880 scale, sent as inline BLIF.
type moStream struct {
	seed      int64
	rng       *rand.Rand
	keys      []keyed
	lastTouch []int // per key: fresh keys introduced before its last use
	peerUsed  map[int]bool
}

func newMoStream(seed int64) (*moStream, error) {
	s := &moStream{seed: seed, rng: rand.New(rand.NewSource(seed)), peerUsed: map[int]bool{}}
	for i := 0; i < moWarmKeys; i++ {
		if _, err := s.fresh(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// fresh adds a never-seen key and returns its index. The i-th key of
// every seed has one structure (generator seed i), so a run's mapping
// work and transistor sums do not depend on the seed; the seed is in
// the network's name, which is part of the key, so each seed's keys are
// its own.
func (s *moStream) fresh() (int, error) {
	i := len(s.keys)
	n := randomNetwork(fmt.Sprintf("mo%d_s%d", i, s.seed), 1_000_003+int64(i), moGates)
	k, _, err := blifKey(n)
	if err != nil {
		return 0, err
	}
	s.keys = append(s.keys, k)
	s.lastTouch = append(s.lastTouch, i)
	return i, nil
}

func (s *moStream) touch(k int) int {
	s.lastTouch[k] = len(s.keys)
	return k
}

// pick returns a random key introduced between lo and hi fresh keys ago
// that ok accepts, or -1.
func (s *moStream) pick(lo, hi int, ok func(int) bool) int {
	var cands []int
	for k := max(0, len(s.keys)-hi); k <= len(s.keys)-lo && k < len(s.keys); k++ {
		if ok(k) {
			cands = append(cands, k)
		}
	}
	if len(cands) == 0 {
		return -1
	}
	return cands[s.rng.Intn(len(cands))]
}

// phase schedules items arrivals at rate per second. Class counts are
// exact shares of items; their order, the keys and the spacing are
// seeded.
func (s *moStream) phase(rate float64, items int) ([]moReq, error) {
	var classes []string
	for _, c := range moClasses {
		for i := 0; i < int(math.Round(c.share*float64(items))); i++ {
			classes = append(classes, c.class)
		}
	}
	s.rng.Shuffle(len(classes), func(i, j int) { classes[i], classes[j] = classes[j], classes[i] })
	dues := arrivals(s.rng, rate, len(classes))
	var out []moReq
	for i, class := range classes {
		due := dues[i]
		k := -1
		switch class {
		case "recent":
			k = s.pick(2, 8, func(int) bool { return true })
		case "old":
			k = s.pick(moOldAfter, len(s.keys), func(k int) bool { return len(s.keys)-s.lastTouch[k] >= moOldAfter })
		case "peer":
			k = s.pick(8, 40, func(k int) bool { return !s.peerUsed[k] })
			if k >= 0 {
				s.peerUsed[k] = true
				out = append(out, moReq{class: class, key: k, to: toOther, due: due})
				continue
			}
		}
		if k >= 0 {
			out = append(out, moReq{class: class, key: s.touch(k), to: toRouter, due: due})
			continue
		}
		if class != "burst" {
			class = "fresh"
		}
		k, err := s.fresh()
		if err != nil {
			return nil, err
		}
		out = append(out, moReq{class: class, key: k, to: toRouter, due: due})
		if class == "burst" {
			second := toRouter
			if s.rng.Intn(2) == 0 {
				second = toOwner
			}
			out = append(out, moReq{class: class, key: k, to: second, due: due})
		}
	}
	return out, nil
}

// moPhase is one measured phase.
type moPhase struct {
	samples []sample // in request order
	ok      int
	classes map[string]int
	rssMB   float64
	spans   []span
}

// runPhase sends reqs through loop, which decides when each goes out
// and hands back the samples of those it sent.
func runPhase(ctx context.Context, f *fleet, keys []keyed, reqs []moReq, loop func(send func(int) bool) []sample,
	book *answerBook, traced bool) *moPhase {
	p := &moPhase{classes: map[string]int{}}
	var mu sync.Mutex
	rec := newRecorder(time.Now())
	rss := startRSS()
	p.samples = loop(func(i int) bool {
		r := reqs[i]
		base := f.routerURL
		switch r.to {
		case toOwner:
			base = f.replicas[f.owner(keys[r.key].key)].url
		case toOther:
			base = f.replicas[(f.owner(keys[r.key].key)+1)%fleetReplicas].url
		}
		var tc *obs.TraceContext
		if traced && i%traceEvery == 0 {
			t := obs.NewTraceContext()
			tc = &t
		}
		t0 := time.Now()
		status, body, err := f.post(ctx, base, keys[r.key].body, tc)
		took := time.Since(t0)
		if err == nil {
			_, err = book.record(r.key, status, body, tc != nil)
		}
		mu.Lock()
		defer mu.Unlock()
		p.classes[r.class]++
		if traced {
			rec.spans = append(rec.spans, span{ID: len(rec.spans), Parent: -1, Op: i, Name: "http." + r.class,
				Start: t0.Sub(rec.epoch), End: t0.Add(took).Sub(rec.epoch)})
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "mixed-open:", err)
			return false
		}
		p.ok++
		return true
	})
	p.rssMB = rss.peakMB()
	p.spans = rec.spans
	return p
}

// openPhase is the open loop: each request goes out when due, with at
// most moSlots in flight.
func openPhase(reqs []moReq) func(send func(int) bool) []sample {
	return func(send func(int) bool) []sample {
		return openLoop(time.Now().Add(10*time.Millisecond), dueTimes(reqs), moSlots, send)
	}
}

func dueTimes(reqs []moReq) []time.Duration {
	out := make([]time.Duration, len(reqs))
	for i, r := range reqs {
		out[i] = r.due
	}
	return out
}

// moPlan holds a run's requests, generated before set-up so input
// generation is not set-up time: the closed-loop items of an untraced
// run, or the two open-loop nominal phases of a traced one.
type moPlan struct {
	stream  *moStream
	closed  []moReq
	nominal []moReq
	traced  []moReq
}

// planMixedOpen schedules an untraced run's closed loop, or a traced
// run's nominal and traced phases of a third of --seconds each at the
// nominal rate.
func planMixedOpen(cfg config) (*moPlan, error) {
	s, err := newMoStream(cfg.seed)
	if err != nil {
		return nil, err
	}
	p := &moPlan{stream: s}
	if !cfg.trace {
		// The closed loop ignores due times; any rate will do.
		p.closed, err = s.phase(moNominalRPS, int(moClosedPerS*cfg.seconds))
		return p, err
	}
	items := int(moNominalRPS * cfg.seconds / 3)
	if p.nominal, err = s.phase(moNominalRPS, items); err != nil {
		return nil, err
	}
	if p.traced, err = s.phase(moNominalRPS, items); err != nil {
		return nil, err
	}
	return p, nil
}

func runMixedOpen(ctx context.Context, cfg config) (*runReport, error) {
	rep := newReport()
	plan, err := planMixedOpen(cfg)
	if err != nil {
		return nil, err
	}
	keys := plan.stream.keys
	stateRoot := filepath.Join(cfg.outDir, fmt.Sprintf("state-mixed-open-%d", cfg.seed))
	defer os.RemoveAll(stateRoot)
	type warmed struct {
		f    *fleet
		book *answerBook
	}
	w, setupS, err := timeSetups(func() (warmed, error) {
		if err := os.RemoveAll(stateRoot); err != nil {
			return warmed{}, err
		}
		f, err := bootFleet(moCacheEntries, stateRoot)
		if err != nil {
			return warmed{}, err
		}
		book := newAnswerBook()
		if err := warm(ctx, f, keys[:moWarmKeys], book); err != nil {
			f.close()
			return warmed{}, err
		}
		return warmed{f, book}, nil
	}, func(w warmed) { w.f.close() })
	if err != nil {
		return nil, err
	}
	f := w.f
	defer f.close()
	book := newAnswerBook()

	if cfg.trace {
		return tracedMixedOpen(ctx, cfg, rep, f, plan, book)
	}
	cl := runPhase(ctx, f, keys, plan.closed, func(send func(int) bool) []sample {
		return closedLoop(moSlots, len(plan.closed), cfg.seconds, send)
	}, book, false)
	book.mergeDigests(w.book)
	v, err := book.verify(ctx, keys)
	if err != nil {
		return nil, err
	}
	rep.Attempted = len(cl.samples)
	rep.fail(rep.Attempted - cl.ok + v.failed)
	rep.traffic["tier_mix"] = shares(book.tiers)
	rep.traffic["class_mix"] = shares(cl.classes)
	rep.traffic["items_left"] = len(plan.closed) - len(cl.samples)
	if len(cl.samples) == len(plan.closed) {
		fmt.Fprintln(os.Stderr, "mixed-open: the closed loop sent every planned item before its time was up; raise moClosedPerS")
	}
	byClass := map[string][]float64{}
	for i, s := range latencies(cl.samples) {
		byClass[plan.closed[i].class] = append(byClass[plan.closed[i].class], s)
	}
	classLat := map[string]map[string]float64{}
	for c, lat := range byClass {
		p90, _ := percentile(lat, 0.9)
		classLat[c] = map[string]float64{"p50_ms": median(lat), "p90_ms": p90}
	}
	rep.traffic["class_latency"] = classLat
	rep.traffic["distinct_keys"] = v.keys
	lat := latencies(cl.samples)
	tput := chunkRate(doneTimes(cl.samples))
	rep.set("setup_s", setupS, "s")
	rep.set("throughput_rps", tput, "1/s")
	latencyMetrics(rep, lat)
	// With at most moSlots requests in flight no open loop sustains more
	// than the closed loop's completion rate without a growing backlog;
	// it is rate_max_rps if its p95 meets the limit, and is scaled down
	// by how far the p95 misses it otherwise.
	p95, _ := percentile(lat, 0.95)
	rep.set("rate_max_rps", tput*math.Min(1, moP95LimitMS/p95), "1/s")
	rep.set("ok_ratio", float64(cl.ok-v.failed)/float64(rep.Attempted), "ratio")
	rep.set("peak_rss_mb", cl.rssMB, "MiB")
	// Quality over the warm keys, answered in set-up: how many keys the
	// closed loop reaches depends on speed, and the warm keys' structures
	// on nothing.
	warmKeys := make([]int, moWarmKeys)
	for k := range warmKeys {
		warmKeys[k] = k
	}
	tTotal, tDisch := v.sum(warmKeys)
	rep.set("transistors_total", float64(tTotal), "count")
	rep.set("discharge_transistors", float64(tDisch), "count")
	return rep, nil
}

// tracedMixedOpen measures mixed-open's per-layer metrics: an untraced
// nominal phase, a traced one whose answers give the realised tier mix,
// then an in-process replay of up to eight requests per tier, each
// weighted by its tier's share, with the store calls timed on a scratch
// store under the replicas' fsync policy.
func tracedMixedOpen(ctx context.Context, cfg config, rep *runReport, f *fleet, plan *moPlan, book *answerBook) (*runReport, error) {
	keys := plan.stream.keys
	base := runPhase(ctx, f, keys, plan.nominal, openPhase(plan.nominal), newAnswerBook(), false)
	before, err := f.scrape(ctx)
	if err != nil {
		return nil, err
	}
	retries0, lookups0 := f.retries.Load(), f.peerLookups.Load()
	tp := runPhase(ctx, f, keys, plan.traced, openPhase(plan.traced), book, true)
	v, err := book.verify(ctx, keys)
	if err != nil {
		return nil, err
	}
	rep.Attempted = len(base.samples) + len(tp.samples)
	rep.fail(rep.Attempted - base.ok - tp.ok + v.failed)
	if err := serviceCounters(ctx, rep, f, book, before, retries0, lookups0); err != nil {
		return nil, err
	}

	// One replayed request per key, up to eight per tier, each standing
	// for its tier's realised share of the traffic.
	byTier := map[string][]int{}
	seen := map[int]bool{}
	for _, r := range plan.traced {
		t := tierOf(r.class)
		if !seen[r.key] && len(byTier[t]) < 8 {
			seen[r.key] = true
			byTier[t] = append(byTier[t], r.key)
		}
	}
	tiers := shares(book.tiers)
	var reqs []replayReq
	for t, ks := range byTier {
		for _, k := range ks {
			reqs = append(reqs, replayReq{key: k, body: keys[k].body, weight: tiers[t] / float64(len(ks)), tier: t})
		}
	}
	sort.Slice(reqs, func(i, j int) bool { return reqs[i].key < reqs[j].key })
	sbDir := filepath.Join(cfg.outDir, fmt.Sprintf("store-bench-%d", cfg.seed))
	sb, err := openStoreBench(sbDir, moFsync)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(sbDir)
	defer sb.close()
	lay, err := replayService(ctx, f, keys, reqs, sb)
	if err != nil {
		return nil, err
	}
	lay.apply(rep)
	var late []float64
	for _, s := range append(base.samples, tp.samples...) {
		late = append(late, ms(s.late))
	}
	lp95, _ := percentile(late, 0.95)
	rep.set("loadgen.late_p95_ms", lp95, "ms")
	rep.set("obs.trace_overhead_ratio", median(latencies(tp.samples))/median(latencies(base.samples)), "ratio")
	rep.spans = append(tp.spans, renumber(lay.spans, len(tp.spans))...)
	return rep, nil
}

// tierOf is the tier a request class is meant to be answered from.
func tierOf(class string) string {
	switch class {
	case "fresh":
		return service.TierMiss
	case "old":
		return service.TierStore
	case "peer":
		return service.TierPeer
	case "burst":
		return service.TierCoalesced
	}
	return service.TierLocal
}
