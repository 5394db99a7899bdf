package main

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile.
// Fewer and the percentile is one or two outliers, not a tail.
const minBeyond = 10

// samplesFor is the smallest sample count whose q-quantile leaves at
// least minBeyond samples above it (200 for p95).
func samplesFor(q float64) int {
	n := 1
	for n-rank(q, n) < minBeyond {
		n++
	}
	return n
}

// rank is the 1-based nearest rank of the q-quantile among n samples.
// The epsilon keeps q·n = 90.00000000000001 from rounding up to 91.
func rank(q float64, n int) int {
	return max(1, int(math.Ceil(q*float64(n)-1e-9)))
}

// percentile is the nearest-rank q-quantile of xs: a value that was
// actually measured. It reports false when fewer than minBeyond samples
// lie above it. xs need not be sorted and is not modified.
func percentile(xs []float64, q float64) (float64, bool) {
	if len(xs) == 0 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	r := rank(q, len(s))
	return s[r-1], len(s)-r >= minBeyond
}

// median is the nearest-rank median; 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	v, _ := percentile(xs, 0.5)
	return v
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// latencyMetrics sets latency_p50_ms and latency_p95_ms from lat, in
// which failed operations are +Inf, and records the sample count and
// whether it supports a p95.
func latencyMetrics(rep *runReport, lat []float64) {
	p50, _ := percentile(lat, 0.5)
	p95, ok := percentile(lat, 0.95)
	rep.set("latency_p50_ms", p50, "ms")
	rep.set("latency_p95_ms", p95, "ms")
	rep.traffic["latency_samples"] = len(lat)
	rep.traffic["p95_has_10_beyond"] = ok
}

// rssSampler tracks the resident-set high-water mark of this process
// while running: it samples /proc/self/statm every few milliseconds.
type rssSampler struct {
	stop chan struct{}
	done chan struct{}
	peak int64 // bytes; written by the sampling goroutine, read after done
}

func startRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	page := int64(os.Getpagesize())
	go func() {
		defer close(s.done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			if b, err := os.ReadFile("/proc/self/statm"); err == nil {
				if f := bytes.Fields(b); len(f) > 1 {
					if pages, err := strconv.ParseInt(string(f[1]), 10, 64); err == nil && pages*page > s.peak {
						s.peak = pages * page
					}
				}
			}
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// peakMB stops the sampler and returns the high-water mark in MiB.
func (s *rssSampler) peakMB() float64 {
	close(s.stop)
	<-s.done
	return float64(s.peak) / (1 << 20)
}

// arrivals returns n seeded Poisson arrival offsets at rate per second:
// exponential gaps, rescaled so the last arrival lands at n/rate. The
// count is exact, so the offered rate of a phase does not depend on the
// seed; only the spacing does.
func arrivals(rng *rand.Rand, rate float64, n int) []time.Duration {
	if n == 0 {
		return nil
	}
	gaps := make([]float64, n)
	total := 0.0
	for i := range gaps {
		gaps[i] = rng.ExpFloat64()
		total += gaps[i]
	}
	span := float64(n) / rate
	out := make([]time.Duration, n)
	at := 0.0
	for i, g := range gaps {
		at += g / total * span
		out[i] = time.Duration(at * float64(time.Second))
	}
	return out
}

// sample is one operation's timing.
type sample struct {
	latency time.Duration // completion minus due time (open loop) or send time (closed loop)
	late    time.Duration // send time minus due time; 0 in a closed loop
	done    time.Duration // completion, since the loop started
	ok      bool
}

// openLoop sends operation i at start+due[i] regardless of how earlier
// ones fare, with at most slots in flight; an operation waiting for a
// slot is late, and its latency still runs from its due time, so a stall
// is charged to every request it delays. It returns when every operation
// has completed.
func openLoop(start time.Time, due []time.Duration, slots int, send func(i int) bool) []sample {
	out := make([]sample, len(due))
	sem := make(chan struct{}, slots)
	var wg sync.WaitGroup
	for i, d := range due {
		at := start.Add(d)
		if wait := time.Until(at); wait > 0 {
			time.Sleep(wait)
		}
		sem <- struct{}{}
		wg.Add(1)
		go func(i int, at time.Time) {
			defer wg.Done()
			sent := time.Now()
			ok := send(i)
			<-sem
			now := time.Now()
			out[i] = sample{latency: now.Sub(at), late: sent.Sub(at), done: now.Sub(start), ok: ok}
		}(i, at)
	}
	wg.Wait()
	return out
}

// closedLoop sends operations 0, 1, 2, ... from slots workers, each
// sending the next as soon as its last one completes, until seconds have
// passed or n have been sent. It returns the samples of those sent, in
// order, once all have completed.
func closedLoop(slots, n int, seconds float64, send func(i int) bool) []sample {
	out := make([]sample, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < slots; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start).Seconds() < seconds {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				sent := time.Now()
				ok := send(i)
				now := time.Now()
				out[i] = sample{latency: now.Sub(sent), done: now.Sub(start), ok: ok}
			}
		}()
	}
	wg.Wait()
	return out[:min(int(next.Load()), n)]
}

// doneTimes are the completion times of the correct samples, ascending.
func doneTimes(ss []sample) []time.Duration {
	var out []time.Duration
	for _, s := range ss {
		if s.ok {
			out = append(out, s.done)
		}
	}
	slices.Sort(out)
	return out
}

// rateChunk is how many consecutive completions chunkRate times at once.
const rateChunk = 100

// chunkRate is the median completion rate over consecutive chunks of
// rateChunk completions, done being completion times in ascending
// order. A host stall slows a chunk or two, not the figure.
func chunkRate(done []time.Duration) float64 {
	var rates []float64
	for i := 0; i+rateChunk < len(done); i += rateChunk {
		if d := done[i+rateChunk] - done[i]; d > 0 {
			rates = append(rates, rateChunk/d.Seconds())
		}
	}
	return median(rates)
}

// latencies flattens samples to milliseconds, failures as +Inf.
func latencies(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = ms(s.latency)
		if !s.ok {
			out[i] = math.Inf(1)
		}
	}
	return out
}

// shares turns a histogram of labels into shares of its total.
func shares(counts map[string]int) map[string]float64 {
	total := 0
	for _, c := range counts {
		total += c
	}
	out := make(map[string]float64, len(counts))
	for k, c := range counts {
		out[k] = float64(c) / float64(max(total, 1))
	}
	return out
}
