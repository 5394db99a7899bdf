package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"math"
	"math/rand"
	"os"
	"strings"
	"sync"
	"time"

	"soidomino/internal/obs"
	"soidomino/internal/service"
)

const (
	hotRandomKeys = 12 // seeded bench.Random networks beside the suite circuits
	hotBases      = 6  // renamed/reordered texts per random network
	hotClients    = 2
	traceEvery    = 8 // one traced-run request in traceEvery carries a sampled traceparent
)

// hotSet is the hot-hits working set: 16 keys and, per key, the bases
// from which every variant request gets bytes of its own.
type hotSet struct {
	keys  []keyed
	bases [][]variantBase
}

// variantBase is a request body that keeps its key's RequestKey, cut at
// every occurrence of one renamed internal signal (inline BLIF) or not
// cut at all (a respelled JSON body for a named circuit).
type variantBase struct {
	pieces [][]byte
}

// render returns new bytes for request number n of a run: the BLIF base
// with its cut signal renamed to a name no other request uses, or the
// JSON base behind leading whitespace that spells n. Either way the
// request key stays the base's.
func (b variantBase) render(n uint64) []byte {
	if len(b.pieces) > 1 {
		return bytes.Join(b.pieces, []byte(fmt.Sprintf("u%x", n)))
	}
	const spaces = " \t\n\r" // JSON whitespace, one base-4 digit each
	out := make([]byte, 0, 16+len(b.pieces[0]))
	for i := 0; i < 16; i++ {
		out = append(out, spaces[n&3])
		n >>= 2
	}
	return append(out, b.pieces[0]...)
}

// blifBase cuts a BLIF request body at the renamed signal the rng
// picks, checking that the name occurs in the body exactly where it is a
// signal of the text.
func blifBase(text string, renamed []string, rng *rand.Rand) (variantBase, error) {
	name := renamed[rng.Intn(len(renamed))]
	uses := 0
	for _, f := range strings.Fields(text) {
		if f == name {
			uses++
		}
	}
	body, err := json.Marshal(service.MapRequest{BLIF: text})
	if err != nil {
		return variantBase{}, err
	}
	pieces := bytes.Split(body, []byte(name))
	if len(pieces)-1 != uses {
		return variantBase{}, fmt.Errorf("signal %s occurs %d times in the body, %d times in the text", name, len(pieces)-1, uses)
	}
	return variantBase{pieces: pieces}, nil
}

// hotHitsSet builds the working set. The suite circuits go by name; the
// random networks (500 to 1500 gates) use fixed generator seeds, so every
// run measures one working set. The seed picks the variant bases.
func hotHitsSet(seed int64) (*hotSet, error) {
	rng := rand.New(rand.NewSource(seed))
	s := &hotSet{}
	for _, c := range suiteCircuits {
		k, err := circuitKey(c)
		if err != nil {
			return nil, err
		}
		var bases []variantBase
		for _, body := range circuitVariants(c) {
			bases = append(bases, variantBase{pieces: [][]byte{body}})
		}
		s.keys = append(s.keys, k)
		s.bases = append(s.bases, bases)
	}
	for i := 0; i < hotRandomKeys; i++ {
		gates := 500 + i*1000/(hotRandomKeys-1)
		k, text, err := blifKey(randomNetwork(fmt.Sprintf("hot%02d", i), int64(1000+i), gates))
		if err != nil {
			return nil, err
		}
		var bases []variantBase
		for draws := 0; len(bases) < hotBases; draws++ {
			if draws == 10*hotBases {
				return nil, fmt.Errorf("%s: no renamed variant keeps the key", k.label)
			}
			vt, renamed := blifVariant(text, rng)
			b, err := blifBase(vt, renamed, rng)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", k.label, err)
			}
			// Two buffers on one primary input rename it in declaration
			// order, so a shuffle can change the interface; draw again.
			if key, err := bodyKey(b.render(0)); err != nil || key != k.key {
				continue
			}
			bases = append(bases, b)
		}
		s.keys = append(s.keys, k)
		s.bases = append(s.bases, bases)
	}
	return s, nil
}

// variant is a fresh variant body of key k for request number n.
func (s *hotSet) variant(k int, n uint64, rng *rand.Rand) []byte {
	bs := s.bases[k]
	return bs[rng.Intn(len(bs))].render(n)
}

// repeatShare is the share of a run's request bodies whose exact bytes
// were sent before, in the run or while warming: hashes are the bodies'
// maphashes, warm the warm-up bodies'.
func repeatShare(hashes []uint64, warm []uint64) float64 {
	seen := map[uint64]bool{}
	for _, h := range warm {
		seen[h] = true
	}
	repeats := 0
	for _, h := range hashes {
		if seen[h] {
			repeats++
		}
		seen[h] = true
	}
	return float64(repeats) / float64(max(len(hashes), 1))
}

// warm submits every key once through the router, so the timed phase
// answers from the owners' LRUs. It files the answers in book, which
// may be nil.
func warm(ctx context.Context, f *fleet, keys []keyed, book *answerBook) error {
	for k, key := range keys {
		status, body, err := f.post(ctx, f.routerURL, key.body, nil)
		if err != nil {
			return fmt.Errorf("warm %s: %w", key.label, err)
		}
		if book != nil {
			_, err = book.record(k, status, body, false)
		} else if status != 200 {
			err = fmt.Errorf("status %d", status)
		}
		if err != nil {
			return fmt.Errorf("warm %s: %w", key.label, err)
		}
	}
	return nil
}

// hotOutcome is one closed-loop phase of hot-hits.
type hotOutcome struct {
	lat    []float64
	done   []time.Duration // completion of each correct answer, since start, ascending
	ok     int
	failed int
	hashes []uint64 // maphash of every request body sent
	rssMB  float64
	spans  []span
}

// hotLoop runs hotClients closed-loop clients against the router until
// seconds have passed and the sample supports a p95. Each client draws a
// key uniformly and sends its exact bytes or, with equal odds, a variant
// no other request of the run sends; run numbers the loops of one
// invocation so their variants differ too. Every answer must be a
// correct LRU hit. With traced set, one request in traceEvery carries a
// sampled traceparent and each request is a span.
func hotLoop(ctx context.Context, f *fleet, set *hotSet, seed int64, run int, seconds float64, book *answerBook, traced bool) *hotOutcome {
	out := &hotOutcome{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	rss := startRSS()
	start := time.Now()
	epoch := start
	for c := 0; c < hotClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*7919 + int64(run*hotClients+c)))
			rec := newRecorder(epoch)
			var ok, failed int
			var hashes []uint64
			for i := 0; ; i++ {
				mu.Lock()
				done := time.Since(start).Seconds() >= seconds && len(out.lat) >= samplesFor(0.95)
				mu.Unlock()
				if done || ctx.Err() != nil {
					break
				}
				k := rng.Intn(len(set.keys))
				body := set.keys[k].body
				if rng.Intn(2) == 1 {
					body = set.variant(k, uint64(i)<<8|uint64(run*hotClients+c), rng)
				}
				hashes = append(hashes, maphash.Bytes(hashSeed, body))
				var tc *obs.TraceContext
				if traced && i%traceEvery == 0 {
					t := obs.NewTraceContext()
					tc = &t
				}
				var root int
				if traced {
					root = rec.beginOp("http.router")
				}
				t0 := time.Now()
				status, resp, err := f.post(ctx, f.routerURL, body, tc)
				took := time.Since(t0)
				if traced {
					rec.end(root)
				}
				if err == nil {
					var tier string
					tier, err = book.record(k, status, resp, tc != nil)
					if err == nil && tier != service.TierLocal {
						err = fmt.Errorf("%s answered from tier %q, not an LRU hit", set.keys[k].label, tier)
					}
				}
				l := ms(took)
				if err != nil {
					fmt.Fprintln(os.Stderr, "hot-hits:", err)
					failed++
					l = math.Inf(1)
				} else {
					ok++
				}
				mu.Lock()
				out.lat = append(out.lat, l)
				if err == nil {
					out.done = append(out.done, time.Since(start))
				}
				mu.Unlock()
			}
			mu.Lock()
			out.ok += ok
			out.failed += failed
			out.hashes = append(out.hashes, hashes...)
			out.spans = append(out.spans, renumber(rec.spans, len(out.spans))...)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	out.rssMB = rss.peakMB()
	return out
}

// renumber shifts the ids and operations of one recorder's spans by
// base, so several recorders' spans can be written as one set.
func renumber(spans []span, base int) []span {
	out := make([]span, len(spans))
	for i, s := range spans {
		s.ID += base
		s.Op += base
		if s.Parent >= 0 {
			s.Parent += base
		}
		out[i] = s
	}
	return out
}

// hashSeed seeds the maphash of request bodies.
var hashSeed = maphash.MakeSeed()

// warmHashes are the maphashes of the bodies set-up sends.
func (s *hotSet) warmHashes() []uint64 {
	out := make([]uint64, len(s.keys))
	for i, k := range s.keys {
		out[i] = maphash.Bytes(hashSeed, k.body)
	}
	return out
}

func runHotHits(ctx context.Context, cfg config) (*runReport, error) {
	rep := newReport()
	set, err := hotHitsSet(cfg.seed)
	if err != nil {
		return nil, err
	}
	f, setupS, err := timeSetups(func() (*fleet, error) {
		f, err := bootFleet(0, "")
		if err != nil {
			return nil, err
		}
		if err := warm(ctx, f, set.keys, nil); err != nil {
			f.close()
			return nil, err
		}
		return f, nil
	}, (*fleet).close)
	if err != nil {
		return nil, err
	}
	defer f.close()

	book := newAnswerBook()
	if cfg.trace {
		return tracedHotHits(ctx, cfg, rep, f, set, book)
	}
	o := hotLoop(ctx, f, set, cfg.seed, 0, cfg.seconds, book, false)
	v, err := book.verify(ctx, set.keys)
	if err != nil {
		return nil, err
	}
	rep.Attempted = o.ok + o.failed
	rep.fail(o.failed + v.failed)
	exact := repeatShare(o.hashes, set.warmHashes())
	rep.traffic["exact_repeat_share"] = exact
	rep.traffic["variant_share"] = 1 - exact
	rep.traffic["tier_mix"] = shares(book.tiers)
	tput := chunkRate(o.done)
	rep.set("setup_s", setupS, "s")
	rep.set("throughput_rps", tput, "1/s")
	rep.set("rate_max_rps", tput, "1/s")
	latencyMetrics(rep, o.lat)
	rep.set("ok_ratio", float64(o.ok-v.failed)/float64(rep.Attempted), "ratio")
	rep.set("peak_rss_mb", o.rssMB, "MiB")
	all := make([]int, len(set.keys))
	for k := range all {
		all[k] = k
	}
	tTotal, tDisch := v.sum(all)
	rep.set("transistors_total", float64(tTotal), "count")
	rep.set("discharge_transistors", float64(tDisch), "count")
	return rep, nil
}

// tracedHotHits measures hot-hits' per-layer metrics: an untraced phase
// (the overhead baseline), a traced phase with sampled traceparents whose
// answers give the tier mix, an in-process replay of every key's exact
// and variant bytes through the layers a hit crosses, and a routed
// versus direct comparison of the same requests for the router hop.
func tracedHotHits(ctx context.Context, cfg config, rep *runReport, f *fleet, set *hotSet, book *answerBook) (*runReport, error) {
	base := hotLoop(ctx, f, set, cfg.seed, 0, cfg.seconds/3, newAnswerBook(), false)
	before, err := f.scrape(ctx)
	if err != nil {
		return nil, err
	}
	retries0, lookups0 := f.retries.Load(), f.peerLookups.Load()
	tp := hotLoop(ctx, f, set, cfg.seed, 1, cfg.seconds/3, book, true)
	v, err := book.verify(ctx, set.keys)
	if err != nil {
		return nil, err
	}
	rep.Attempted = base.ok + base.failed + tp.ok + tp.failed
	rep.fail(base.failed + tp.failed + v.failed)

	rep.traffic["exact_repeat_share"] = repeatShare(append(base.hashes, tp.hashes...), set.warmHashes())
	var reqs []replayReq
	rng := rand.New(rand.NewSource(cfg.seed))
	for k, key := range set.keys {
		reqs = append(reqs, replayReq{key: k, body: key.body, weight: 0.5},
			replayReq{key: k, body: set.variant(k, uint64(k)<<8|0xff, rng), weight: 0.5})
	}
	lay, err := replayService(ctx, f, set.keys, reqs, nil)
	if err != nil {
		return nil, err
	}
	lay.apply(rep)
	if err := serviceCounters(ctx, rep, f, book, before, retries0, lookups0); err != nil {
		return nil, err
	}
	rep.set("obs.trace_overhead_ratio", median(tp.lat)/median(base.lat), "ratio")
	rep.spans = append(tp.spans, renumber(lay.spans, len(tp.spans))...)
	return rep, nil
}
