package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"soidomino/internal/blif"
	"soidomino/internal/faultpoint"
)

// memoVariants are requests of one source that differ in exactly one
// key-shaping field each: source kind, algorithm and every field behind
// encodeOptions.
var memoVariants = map[string]MapRequest{
	"base":           {Circuit: "mux"},
	"blif source":    {BLIF: blifTidy},
	"bench source":   {Bench: "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n"},
	"domino":         {Circuit: "mux", Algorithm: "domino"},
	"rs":             {Circuit: "mux", Algorithm: "rs"},
	"rsdeep":         {Circuit: "mux", Algorithm: "rsdeep"},
	"max_width":      {Circuit: "mux", Options: &RequestOptions{MaxWidth: 3}},
	"max_height":     {Circuit: "mux", Options: &RequestOptions{MaxHeight: 3}},
	"objective":      {Circuit: "mux", Options: &RequestOptions{Objective: "depth"}},
	"clock_weight":   {Circuit: "mux", Options: &RequestOptions{ClockWeight: 7}},
	"depth_weight":   {Circuit: "mux", Options: &RequestOptions{DepthWeight: 7}},
	"always_footed":  {Circuit: "mux", Options: &RequestOptions{AlwaysFooted: true}},
	"pareto":         {Circuit: "mux", Options: &RequestOptions{Pareto: true}},
	"tuple_budget":   {Circuit: "mux", Options: &RequestOptions{TupleBudget: 5}},
	"sequence_aware": {Circuit: "mux", Options: &RequestOptions{SequenceAware: true}},
	"strash_off":     {Circuit: "mux", Options: &RequestOptions{StrashOff: true}},
}

// TestKeyMemoEntryPerKeyShapingField: every variant gets an entry of its
// own, the entry holds exactly the key RequestKey computes from scratch,
// and a resubmission hits it.
func TestKeyMemoEntryPerKeyShapingField(t *testing.T) {
	ctx := context.Background()
	m := NewKeyMemo()
	for name, req := range memoVariants {
		want, err := RequestKey(ctx, &req)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		before := m.lru.Len()
		for i, wantHit := range []bool{false, true} {
			got, hit, err := m.RequestKey(ctx, &req)
			if err != nil || got != want || hit != wantHit {
				t.Fatalf("%s, call %d: key %q hit %v err %v; want %q hit %v", name, i, got, hit, err, want, wantHit)
			}
		}
		if m.lru.Len() != before+1 {
			t.Fatalf("%s: memo grew %d -> %d, want one entry", name, before, m.lru.Len())
		}
	}

	// The server-wide strash opt-out is applied before the digest: under
	// it a plain request keys apart from itself without it, onto the
	// strash_off request's key (and entry).
	fresh := NewKeyMemo()
	mux := MapRequest{Circuit: "mux"}
	opt, _ := OptionsFromRequest(nil)
	on, _ := RequestKey(ctx, &mux)
	off, _ := RequestKey(ctx, &MapRequest{Circuit: "mux", Options: &RequestOptions{StrashOff: true}})
	for _, c := range []struct {
		strashOff bool
		want      string
	}{{true, off}, {false, on}} {
		opt.StrashOff = c.strashOff
		ent, _, hit, err := fresh.resolve(ctx, &mux, "soi", opt, nil, 0)
		if err != nil || hit || ent.key != c.want {
			t.Fatalf("server strash_off %v: key %q hit %v err %v; want a fresh entry keyed %q",
				c.strashOff, ent.key, hit, err, c.want)
		}
	}

	// Fields that do not shape the key share the entry: the defaulted
	// algorithm and the worker count.
	n := m.lru.Len()
	for _, req := range []MapRequest{
		{Circuit: "mux", Algorithm: "soi"},
		{Circuit: "mux", Options: &RequestOptions{Workers: 4}},
		{Circuit: "mux", Async: true, TimeoutMS: 5},
	} {
		if _, hit, err := m.RequestKey(ctx, &req); err != nil || !hit {
			t.Fatalf("%+v: hit %v err %v, want a hit on the base entry", req, hit, err)
		}
	}
	if m.lru.Len() != n {
		t.Fatalf("memo grew to %d entries on requests sharing the base key", m.lru.Len())
	}
}

// TestRequestDigestSeparatesSourceKinds: one text submitted as circuit,
// BLIF and bench source digests three ways, so a kind can never answer
// for another even where both would parse.
func TestRequestDigestSeparatesSourceKinds(t *testing.T) {
	opt, _ := OptionsFromRequest(nil)
	seen := map[[32]byte]string{}
	for kind, req := range map[string]MapRequest{
		"circuit": {Circuit: "mux"}, "blif": {BLIF: "mux"}, "bench": {Bench: "mux"},
	} {
		d := requestDigest(&req, "soi", opt)
		if prev, dup := seen[d]; dup {
			t.Fatalf("%s and %s sources share a digest", kind, prev)
		}
		seen[d] = kind
	}
}

// errorBody posts body and returns the status and error message.
func errorBody(t *testing.T, url, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(url+"/v1/map", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var e struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, e.Error
}

// TestKeyMemoNeverMemoizesErrors: a rejected request is rejected again,
// with the same message, after a good request of the same source has
// been keyed, and the memo holds only the good one.
func TestKeyMemoNeverMemoizesErrors(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	bad := []string{
		`{"circuit": "mux", "algorithm": "magic"}`,
		`{"circuit": "mux", "options": {"objective": "power"}}`,
		`{"circuit": "mux", "bench": "INPUT(a)"}`,
		`{"blif": ".model m\n.inputs a\n.outputs y\n.names a y\n2 1\n.end\n"}`,
	}
	first := map[string]string{}
	for _, body := range bad {
		code, msg := errorBody(t, ts.URL, body)
		if code != http.StatusBadRequest {
			t.Fatalf("%s: code %d, want 400", body, code)
		}
		first[body] = msg
	}
	if code, v := postMap(t, ts, `{"circuit": "mux"}`); code != http.StatusOK || v.State != JobDone {
		t.Fatalf("good request: code %d state %s", code, v.State)
	}
	for _, body := range bad {
		code, msg := errorBody(t, ts.URL, body)
		if code != http.StatusBadRequest || msg != first[body] {
			t.Fatalf("%s after a good request: %d %q, want 400 %q", body, code, msg, first[body])
		}
	}
	if n := s.keys.lru.Len(); n != 1 {
		t.Fatalf("memo holds %d entries, want 1 (the good request)", n)
	}
}

// TestKeyMemoKeepsNodeBound: an oversized network is refused with 413
// every time; it never enters the memo, so it can never skip the check.
func TestKeyMemoKeepsNodeBound(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, MaxNetworkNodes: 2})
	for i := 0; i < 2; i++ {
		code, msg := errorBody(t, ts.URL, `{"circuit": "mux"}`)
		if code != http.StatusRequestEntityTooLarge || !strings.Contains(msg, "limit is 2") {
			t.Fatalf("attempt %d: %d %q, want 413 naming the limit", i, code, msg)
		}
	}
	if s.keys.lru.Len() != 0 || s.Counter("key_memo_hits") != 0 || s.Counter("key_memo_misses") != 2 {
		t.Fatalf("memo %d entries, %d hits, %d misses; want 0, 0, 2",
			s.keys.lru.Len(), s.Counter("key_memo_hits"), s.Counter("key_memo_misses"))
	}
}

// TestKeyMemoHitAfterResultEviction: a memo hit whose result left the
// LRU parses its source late and maps it again, to byte-identical
// EncodeJSON output.
func TestKeyMemoHitAfterResultEviction(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, CacheEntries: 1})
	body, _ := json.Marshal(MapRequest{BLIF: blifTidy})
	code, v1 := postMap(t, ts, string(body))
	if code != http.StatusOK || v1.State != JobDone {
		t.Fatalf("first: code %d state %s (%s)", code, v1.State, v1.Error)
	}
	if code, v := postMap(t, ts, `{"circuit": "z4ml"}`); code != http.StatusOK || v.State != JobDone {
		t.Fatalf("evicting submission: code %d state %s", code, v.State)
	}
	code, v2 := postMap(t, ts, string(body))
	if code != http.StatusOK || v2.State != JobDone || v2.Cached {
		t.Fatalf("resubmission: code %d state %s cached %v, want a fresh mapping", code, v2.State, v2.Cached)
	}
	if s.Counter("key_memo_hits") != 1 {
		t.Fatalf("key_memo_hits = %d, want 1", s.Counter("key_memo_hits"))
	}
	b1, err := EncodeJSON(v1.Result)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := EncodeJSON(v2.Result)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("re-mapped result after a memo hit differs from the original")
	}
}

// TestKeyMemoHitFiresParseFault: a memo hit skips the parse but not the
// blif.parse fault point, and fails exactly as an unmemoized parse does.
func TestKeyMemoHitFiresParseFault(t *testing.T) {
	reg := faultpoint.New(1)
	s, ts := newTestServer(t, Config{Workers: 1, Faults: reg})
	body, _ := json.Marshal(MapRequest{BLIF: blifTidy})
	if code, v := postMap(t, ts, string(body)); code != http.StatusOK || v.State != JobDone {
		t.Fatalf("unarmed: code %d state %s", code, v.State)
	}
	reg.Arm(blif.PointParse, faultpoint.Fault{Kind: faultpoint.Error, Prob: 1})
	code, hitMsg := errorBody(t, ts.URL, string(body))
	if code != http.StatusBadRequest || s.Counter("key_memo_hits") != 1 {
		t.Fatalf("armed memo hit: code %d, %d memo hits; want 400 on a hit", code, s.Counter("key_memo_hits"))
	}
	if reg.Fired()[blif.PointParse] != 1 {
		t.Fatalf("fault fired %d times, want 1", reg.Fired()[blif.PointParse])
	}

	cold := faultpoint.New(1)
	cold.Arm(blif.PointParse, faultpoint.Fault{Kind: faultpoint.Error, Prob: 1})
	_, coldTS := newTestServer(t, Config{Workers: 1, Faults: cold})
	if code, msg := errorBody(t, coldTS.URL, string(body)); code != http.StatusBadRequest || msg != hitMsg {
		t.Fatalf("unmemoized parse fault: %d %q, want 400 %q", code, msg, hitMsg)
	}
}

// TestHitJobsHoldNoNetwork: neither a cache-hit job nor a finished
// mapped job keeps the parsed source alive in the job table.
func TestHitJobsHoldNoNetwork(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	for _, wantCached := range []bool{false, true, true} {
		code, v := postMap(t, ts, `{"circuit": "mux"}`)
		if code != http.StatusOK || v.Cached != wantCached {
			t.Fatalf("code %d cached %v, want cached %v", code, v.Cached, wantCached)
		}
		s.mu.Lock()
		j := s.jobs[v.ID]
		s.mu.Unlock()
		<-j.done
		if j.src != nil {
			t.Fatalf("job %s (cached %v) still holds its source network", v.ID, v.Cached)
		}
	}
}

// TestKeyMemoConcurrent keys a mix of hits and misses through one memo
// from several goroutines: every answer is the from-scratch key.
func TestKeyMemoConcurrent(t *testing.T) {
	ctx := context.Background()
	want := map[string]string{}
	for name, req := range memoVariants {
		k, err := RequestKey(ctx, &req)
		if err != nil {
			t.Fatal(err)
		}
		want[name] = k
	}
	m := NewKeyMemo()
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 3; i++ {
				for name, req := range memoVariants {
					if k, _, err := m.RequestKey(ctx, &req); err != nil || k != want[name] {
						t.Errorf("%s: key %q err %v, want %q", name, k, err, want[name])
						return
					}
				}
			}
		}()
	}
	for g := 0; g < 4; g++ {
		<-done
	}
}
