package cluster

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"soidomino/internal/service"
)

// TestParseReply pins the router's reading of a replica body: the
// fix-ups land in the header as insertions, the result bytes pass
// through untouched, and a body the walk cannot read is an error.
func TestParseReply(t *testing.T) {
	const body = `{"id":"j7","state":"done","attribution":{"cache_tier":"local","wall_ms":0.5},"result":{"circuit":"mux","gates":[1, 2]}}` + "\n"
	r, err := parseReply([]byte(body), "2.", "http://r2", "0af7651916cd43dd8448eb211c80319c")
	if err != nil {
		t.Fatal(err)
	}
	wantHeader := `{"id":"2.j7","state":"done","attribution":{"replica":"http://r2","cache_tier":"local","wall_ms":0.5},"trace_id":"0af7651916cd43dd8448eb211c80319c"}`
	if string(r.header) != wantHeader || string(r.result) != `{"circuit":"mux","gates":[1, 2]}` ||
		r.state != service.JobDone || r.tier != service.TierLocal {
		t.Errorf("parseReply = header %s result %s state %s tier %s", r.header, r.result, r.state, r.tier)
	}
	// A queued view has no result; a replica that named itself and set
	// the trace id keeps both.
	r, err = parseReply([]byte(`{"id":"j1","state":"queued","trace_id":"t","attribution":{"replica":"a","cache_tier":"miss"}}`), "0.", "http://r0", "t")
	if err != nil || r.result != nil || string(r.header) != `{"id":"0.j1","state":"queued","trace_id":"t","attribution":{"replica":"a","cache_tier":"miss"}}` {
		t.Errorf("queued view: header %s result %q err %v", r.header, r.result, err)
	}
	for name, bad := range map[string]string{
		"not json":          `<html>`,
		"truncated result":  `{"id":"j1","state":"done","result":{"circuit":"mu`,
		"result not last":   `{"id":"j1","result":{},"state":"done"}`,
		"no state":          `{"id":"j1"}`,
		"id not a string":   `{"id":7,"state":"done"}`,
		"attribution array": `{"id":"j1","state":"done","attribution":[]}`,
	} {
		if _, err := parseReply([]byte(bad), "0.", "", ""); err == nil {
			t.Errorf("%s: parseReply accepted %s", name, bad)
		}
	}
}

// TestRouterFailsOverUnreadableBody: a replica body the router cannot
// read is an attempt error like a transport failure. The client retries
// the replica, then the router fails over, and the answer that comes
// back is whole.
func TestRouterFailsOverUnreadableBody(t *testing.T) {
	svc, _ := newReplicaTS(t, service.Config{})
	var calls atomic.Int64
	cut := func(w http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		svc.Handler().ServeHTTP(rec, r)
		body := rec.Body.Bytes()
		if r.Method == http.MethodPost && calls.Add(1) <= 2 {
			body = body[:len(body)/2] // the first two answers arrive torn
		}
		w.WriteHeader(rec.Code)
		w.Write(body)
	}
	tsA, tsB := httptest.NewServer(http.HandlerFunc(cut)), httptest.NewServer(http.HandlerFunc(cut))
	defer tsA.Close()
	defer tsB.Close()
	rt, ts := newRouterTS(t, Config{Replicas: []string{tsA.URL, tsB.URL}, ReplicationFactor: 2})
	resp, err := http.Post(ts.URL+"/v1/map", "application/json", strings.NewReader(`{"circuit": "mux"}`))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.HasSuffix(string(b), "}}\n") {
		t.Fatalf("status %d, body %s", resp.StatusCode, b)
	}
	if n := calls.Load(); n != 3 {
		t.Errorf("replicas answered %d submissions, want 3 (two torn, then a whole one)", n)
	}
	if n := rt.Counter("routed_failovers"); n != 1 {
		t.Errorf("routed_failovers = %d, want 1", n)
	}
}
