package main

import (
	"bytes"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"
)

func requestKey(t *testing.T, body []byte) string {
	t.Helper()
	key, err := bodyKey(body)
	if err != nil {
		t.Fatal(err)
	}
	return key
}

// Every hot-hits variant request has bytes of its own, and it resolves
// to its original's service.RequestKey, or the workload would measure
// misses.
func TestVariantKeepsRequestKey(t *testing.T) {
	set, err := hotHitsSet(3)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	sent := map[string]bool{}
	for k, key := range set.keys {
		sent[string(key.body)] = true
		for n := uint64(0); n < 4; n++ {
			body := set.variant(k, n<<8|uint64(k), rng)
			if got := requestKey(t, body); got != key.key {
				t.Errorf("%s variant %d: key %.40s, original %.40s", key.label, n, got, key.key)
			}
			if sent[string(body)] {
				t.Errorf("%s variant %d repeats bytes sent before", key.label, n)
			}
			sent[string(body)] = true
		}
	}
}

// The exact-repeat share counts bodies whose bytes were sent before,
// warm-up included.
func TestRepeatShare(t *testing.T) {
	if got := repeatShare([]uint64{1, 2, 3, 3, 4}, []uint64{1}); got != 0.4 {
		t.Errorf("repeatShare = %v, want 0.4 (1 warmed, 3 twice)", got)
	}
}

func TestSamplesFor(t *testing.T) {
	for _, tc := range []struct {
		q    float64
		want int
	}{{0.5, 20}, {0.9, 100}, {0.95, 200}, {0.99, 1000}} {
		if got := samplesFor(tc.q); got != tc.want {
			t.Errorf("samplesFor(%v) = %d, want %d", tc.q, got, tc.want)
		}
	}
}

// The p95 is reported as supported only with at least ten samples above
// it, and it is a value that was measured.
func TestPercentileNeedsTenBeyond(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // unsorted input
	}
	v, ok := percentile(xs, 0.95)
	if !ok || v != 190 {
		t.Errorf("p95 of 1..200 = %v (supported %v), want 190 supported", v, ok)
	}
	if _, ok := percentile(xs[:199], 0.95); ok {
		t.Error("p95 of 199 samples leaves 9 beyond it but was reported supported")
	}
	if xs[0] != 200 {
		t.Error("percentile sorted its input in place")
	}
	lat := []float64{1, 2, math.Inf(1)}
	if v, _ := percentile(lat, 0.95); !math.IsInf(v, 1) {
		t.Errorf("a failed operation must count as missing every limit, got p95 %v", v)
	}
}

// In an open loop a request that waits for a slot is timed from when it
// was due, so one stall is charged to every request behind it.
func TestOpenLoopTimesFromDue(t *testing.T) {
	const hold = 30 * time.Millisecond
	due := []time.Duration{0, 0, 0}
	var inFlight, peak atomic.Int32
	ss := openLoop(time.Now(), due, 1, func(int) bool {
		if n := inFlight.Add(1); n > peak.Load() {
			peak.Store(n)
		}
		time.Sleep(hold)
		inFlight.Add(-1)
		return true
	})
	if peak.Load() != 1 {
		t.Fatalf("%d requests in flight with one slot", peak.Load())
	}
	for i, s := range ss {
		want := time.Duration(i+1) * hold
		if s.latency < want {
			t.Errorf("request %d: latency %v, want at least %v from its due time", i, s.latency, want)
		}
		if i > 0 && s.late < time.Duration(i)*hold {
			t.Errorf("request %d: sent %v late, want at least %v", i, s.late, time.Duration(i)*hold)
		}
	}
}

// A closed loop keeps at most slots operations in flight, sends the
// next as soon as one completes, stops when time is up and times each
// operation from its send.
func TestClosedLoopStopsOnTime(t *testing.T) {
	const hold = 10 * time.Millisecond
	var inFlight, peak atomic.Int32
	ss := closedLoop(2, 1000, 0.1, func(int) bool {
		if n := inFlight.Add(1); n > peak.Load() {
			peak.Store(n)
		}
		time.Sleep(hold)
		inFlight.Add(-1)
		return true
	})
	if peak.Load() > 2 {
		t.Errorf("%d operations in flight with two slots", peak.Load())
	}
	if len(ss) < 10 || len(ss) > 24 {
		t.Errorf("%d operations in 100 ms of two 10-ms slots, want about 20", len(ss))
	}
	for i, s := range ss {
		if s.latency < hold || s.latency > 5*hold || s.late != 0 {
			t.Errorf("operation %d: latency %v late %v, want about %v and 0", i, s.latency, s.late, hold)
		}
	}
	if n := len(closedLoop(2, 3, 10, func(int) bool { return true })); n != 3 {
		t.Errorf("closed loop over 3 operations sent %d", n)
	}
}

func TestChunkRateIgnoresOneStall(t *testing.T) {
	var done []time.Duration
	at := time.Duration(0)
	for i := 0; i <= 5*rateChunk; i++ {
		step := 10 * time.Millisecond // 100 completions per second
		if i == 250 {
			step = 2 * time.Second // a stall
		}
		at += step
		done = append(done, at)
	}
	if got := chunkRate(done); math.Abs(got-100) > 1e-6 {
		t.Errorf("chunkRate = %v, want 100", got)
	}
}

func TestArrivalsExactCountAndRate(t *testing.T) {
	a := arrivals(rand.New(rand.NewSource(1)), 50, 100)
	if len(a) != 100 {
		t.Fatalf("%d arrivals, want 100", len(a))
	}
	if d := a[len(a)-1] - 2*time.Second; d < -time.Millisecond || d > time.Millisecond {
		t.Errorf("last arrival at %v, want 2s (100 at 50/s)", a[len(a)-1])
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] {
			t.Fatalf("arrivals not increasing at %d", i)
		}
	}
}

func planBodies(t *testing.T, seed int64) [][]byte {
	t.Helper()
	p, err := planMixedOpen(config{seed: seed, seconds: 2})
	if err != nil {
		t.Fatal(err)
	}
	more, err := p.stream.phase(90, 100)
	if err != nil {
		t.Fatal(err)
	}
	var out [][]byte
	for _, phase := range [][]moReq{p.closed, more} {
		for _, r := range phase {
			out = append(out, p.stream.keys[r.key].body)
		}
	}
	return out
}

// The same seed gives the same request bytes; another seed gives other
// fresh keys.
func TestMixedOpenSeeded(t *testing.T) {
	a, b := planBodies(t, 5), planBodies(t, 5)
	if len(a) != len(b) {
		t.Fatalf("same seed: %d vs %d requests", len(a), len(b))
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("same seed: request %d differs", i)
		}
	}
	s5, err := newMoStream(5)
	if err != nil {
		t.Fatal(err)
	}
	s6, err := newMoStream(6)
	if err != nil {
		t.Fatal(err)
	}
	keys := map[string]bool{}
	for _, k := range s5.keys {
		keys[k.key] = true
	}
	for _, k := range s6.keys {
		if keys[k.key] {
			t.Fatalf("seeds 5 and 6 share the key of %s", k.label)
		}
	}
}

// Class shares are exact and old requests only name keys that their
// owner's LRU has had time to evict.
func TestMixedOpenClasses(t *testing.T) {
	s, err := newMoStream(2)
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := s.phase(100, 500)
	if err != nil {
		t.Fatal(err)
	}
	count := map[string]int{}
	for _, r := range reqs {
		count[r.class]++
	}
	if count["burst"] != 2*50 || count["peer"] != 60 || count["old"] != 80 {
		t.Errorf("class counts %v, want 50 bursts of two, 60 peer, 80 old", count)
	}
}
