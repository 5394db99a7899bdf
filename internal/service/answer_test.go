package service_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"soidomino/internal/bench"
	"soidomino/internal/cluster"
	"soidomino/internal/mapper"
	"soidomino/internal/report"
	"soidomino/internal/service"
	"soidomino/internal/store"
)

// muxSOIJSONSHA256 is the sha256 of `soimap -circuit mux -algo soi
// -json` as printed before results became compact bytes in the service;
// EncodeJSON output must never move.
const muxSOIJSONSHA256 = "8bf3bdad832cea3952bf6ddf2bed8eb0a3a1b1ad8bd08028c7070ae246e205f0"

// TestAnswerEveryTier checks the body of an answer from every tier a
// result can come from: the local LRU, the durable store (an indented
// record as older builds wrote it), a peer, a coalesced follower, a
// miss, a journal-recovered job, and a routed submit and poll. In each,
// the result is the last member and its bytes are json.Marshal of a
// clean re-derivation; the decoded result re-encodes to the CLI's
// -json bytes; and a routed body is the owner replica's body with only
// the job id namespaced.
func TestAnswerEveryTier(t *testing.T) {
	const submit = `{"circuit": "mux"}`
	p, err := report.PrepareNetwork(bench.MustBuild("mux"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := mapper.Map(context.Background(), mapper.SOI, p.Unate, mapper.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Audit(); err != nil {
		t.Fatal(err)
	}
	clean := service.NewMapResult("mux", p, res)
	want, err := json.Marshal(clean)
	if err != nil {
		t.Fatal(err)
	}
	indented, err := service.EncodeJSON(clean)
	if err != nil {
		t.Fatal(err)
	}
	if sum := sha256.Sum256(indented); hex.EncodeToString(sum[:]) != muxSOIJSONSHA256 {
		t.Fatalf("EncodeJSON output moved: sha256 %x", sum)
	}
	key, err := service.RequestKey(context.Background(), &service.MapRequest{Circuit: "mux"})
	if err != nil {
		t.Fatal(err)
	}
	tail := append(append([]byte(`,"result":`), want...), "}\n"...)
	check := func(name string, body []byte, tier string) {
		t.Helper()
		if !bytes.HasSuffix(body, tail) {
			t.Errorf("%s: body does not end with the result's compact bytes as its last member:\n%s", name, body)
			return
		}
		var v service.JobView
		if err := json.Unmarshal(body, &v); err != nil {
			t.Errorf("%s: decode: %v", name, err)
			return
		}
		if v.Attribution == nil || v.Attribution.CacheTier != tier {
			t.Errorf("%s: attribution %+v, want tier %q", name, v.Attribution, tier)
		}
		if got, _ := service.EncodeJSON(v.Result); !bytes.Equal(got, indented) {
			t.Errorf("%s: EncodeJSON of the decoded result differs from soimap -json", name)
		}
	}

	// Replica A maps once: a held leader (miss) and a follower that
	// coalesces onto it, then a resubmission hits the LRU.
	dirA := t.TempDir()
	a := service.New(service.Config{Workers: 1, StateDir: dirA, JournalFsync: "always"})
	started, release := make(chan struct{}, 1), make(chan struct{})
	service.HoldMapping(a, started, release)
	tsA := httptest.NewServer(a.Handler())
	leader := jobID(t, post(t, tsA.URL, `{"circuit": "mux", "async": true}`, http.StatusAccepted))
	<-started
	follower := jobID(t, post(t, tsA.URL, `{"circuit": "mux", "async": true}`, http.StatusAccepted))
	close(release)
	check("miss", poll(t, tsA.URL, leader), service.TierMiss)
	check("coalesced", poll(t, tsA.URL, follower), service.TierCoalesced)
	check("local", post(t, tsA.URL, submit, http.StatusOK), service.TierLocal)

	// Replica B has no state of its own and finds the result at A.
	b := service.New(service.Config{Workers: 1, Peers: []string{tsA.URL}})
	tsB := httptest.NewServer(b.Handler())
	defer shutdown(t, b, tsB)
	check("peer", post(t, tsB.URL, submit, http.StatusOK), service.TierPeer)

	// Replica C's store holds the result indented, as older builds wrote
	// it: the peer endpoint and a submission both serve the compact form.
	dirC := t.TempDir()
	results, _, err := store.OpenResults(dirC, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := results.Put(context.Background(), key, indented); err != nil {
		t.Fatal(err)
	}
	c := service.New(service.Config{Workers: 1, StateDir: dirC, JournalFsync: "always"})
	tsC := httptest.NewServer(c.Handler())
	defer shutdown(t, c, tsC)
	if got := get(t, tsC.URL+"/v1/cache?key="+url.QueryEscape(key), http.StatusOK); !bytes.Equal(got, want) {
		t.Errorf("peer endpoint serves an indented record as %q, want the compact bytes", got)
	}
	check("store", post(t, tsC.URL, submit, http.StatusOK), service.TierStore)

	// A restarts over its state dir and re-serves the leader from its
	// journal; a router fronting it forwards answers unchanged but for
	// the namespaced id.
	shutdown(t, a, tsA)
	a2 := service.New(service.Config{Workers: 1, StateDir: dirA, JournalFsync: "always"})
	tsA2 := httptest.NewServer(a2.Handler())
	defer shutdown(t, a2, tsA2)
	check("recovered", poll(t, tsA2.URL, leader), service.TierStore)
	rt, err := cluster.New(cluster.Config{Replicas: []string{tsA2.URL}, ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	tsR := httptest.NewServer(rt.Handler())
	defer tsR.Close()
	routed := post(t, tsR.URL, submit, http.StatusOK)
	check("routed submit", routed, service.TierLocal)
	id := jobID(t, routed)
	sameButID(t, "routed submit", routed, get(t, tsA2.URL+"/v1/jobs/"+strings.TrimPrefix(id, "0."), http.StatusOK), id)
	routedPoll := get(t, tsR.URL+"/v1/jobs/0."+leader, http.StatusOK)
	check("routed poll", routedPoll, service.TierStore)
	sameButID(t, "routed poll", routedPoll, get(t, tsA2.URL+"/v1/jobs/"+leader, http.StatusOK), "0."+leader)
}

// sameButID fails unless routed is replica with its leading id member
// replaced by the namespaced id.
func sameButID(t *testing.T, name string, routed, replica []byte, id string) {
	t.Helper()
	_, rest, ok := bytes.Cut(replica, []byte(`{"id":"`))
	_, after, ok2 := bytes.Cut(rest, []byte(`"`))
	if !ok || !ok2 {
		t.Fatalf("%s: replica body does not start with its id: %s", name, replica)
	}
	if want := append([]byte(`{"id":"`+id+`"`), after...); !bytes.Equal(routed, want) {
		t.Errorf("%s: routed body differs from the owner's beyond the id:\nrouted:  %s\nreplica: %s", name, routed, replica)
	}
}

func post(t *testing.T, base, body string, wantCode int) []byte {
	t.Helper()
	resp, err := http.Post(base+"/v1/map", "application/json", strings.NewReader(body))
	return readBody(t, resp, err, wantCode)
}

func get(t *testing.T, u string, wantCode int) []byte {
	t.Helper()
	resp, err := http.Get(u)
	return readBody(t, resp, err, wantCode)
}

func readBody(t *testing.T, resp *http.Response, err error, wantCode int) []byte {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != wantCode {
		t.Fatalf("%s: status %d, want %d: %s", resp.Request.URL, resp.StatusCode, wantCode, b)
	}
	return b
}

// poll fetches job id until it is terminal and returns that body.
func poll(t *testing.T, base, id string) []byte {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		b := get(t, base+"/v1/jobs/"+id, http.StatusOK)
		var v service.JobView
		if err := json.Unmarshal(b, &v); err != nil {
			t.Fatal(err)
		}
		if v.State == service.JobDone || v.State == service.JobFailed || v.State == service.JobCanceled {
			return b
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s", id, v.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func jobID(t *testing.T, body []byte) string {
	t.Helper()
	var v service.JobView
	if err := json.Unmarshal(body, &v); err != nil || v.ID == "" {
		t.Fatalf("no job id in %s (%v)", body, err)
	}
	return v.ID
}

// shutdown stops a replica and its listener.
func shutdown(t *testing.T, s *service.Server, ts *httptest.Server) {
	t.Helper()
	ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}
