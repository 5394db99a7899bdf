package cluster

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"soidomino/internal/service"
)

// postError posts body to url and returns the status and error message.
func postError(t *testing.T, url, body string) (int, string) {
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

// TestRouterRejectsUnknownFieldsLikeReplica: a misspelled field gets the
// same 400 through the router as straight from a replica, instead of
// being dropped from the forwarded request.
func TestRouterRejectsUnknownFieldsLikeReplica(t *testing.T) {
	svc, rep := newReplicaTS(t, service.Config{})
	rt, ts := newRouterTS(t, Config{Replicas: []string{rep.URL}})
	body := `{"circuit": "mux", "optoins": {"pareto": true}}`
	dCode, dMsg := postError(t, rep.URL, body)
	rCode, rMsg := postError(t, ts.URL, body)
	if dCode != http.StatusBadRequest || rCode != dCode || rMsg != dMsg {
		t.Fatalf("router %d %q, replica %d %q; want the same 400", rCode, rMsg, dCode, dMsg)
	}
	if !strings.Contains(rMsg, "optoins") {
		t.Fatalf("error %q does not name the unknown field", rMsg)
	}
	if rt.Counter("requests_bad") != 1 || svc.Counter("jobs_submitted") != 0 {
		t.Fatal("the misspelled request was not rejected at the router")
	}
}

// TestRouterKeyMemo: the router keys each distinct submission once; a
// resubmission, respelled JSON included, routes by the memoized key to
// the same replica, and a key-shaping change is a fresh key.
func TestRouterKeyMemo(t *testing.T) {
	_, tsA := newReplicaTS(t, service.Config{})
	_, tsB := newReplicaTS(t, service.Config{})
	rt, ts := newRouterTS(t, Config{Replicas: []string{tsA.URL, tsB.URL}})
	var ids []string
	for _, body := range []string{
		`{"circuit": "z4ml"}`,
		`{"circuit": "z4ml"}`,
		" \n{ \"algorithm\": \"soi\",\t\"circuit\": \"z4ml\" }",
		`{"circuit": "z4ml", "algorithm": "rs"}`,
	} {
		code, v := postRouter(t, ts, body)
		if code != http.StatusOK || v.State != service.JobDone {
			t.Fatalf("%s: code %d state %s (%s)", body, code, v.State, v.Error)
		}
		ids = append(ids, v.ID)
	}
	if hits, misses := rt.Counter("key_memo_hits"), rt.Counter("key_memo_misses"); hits != 2 || misses != 2 {
		t.Fatalf("key_memo_hits %d, key_memo_misses %d; want 2 and 2", hits, misses)
	}
	for _, id := range ids[1:3] {
		if id[:strings.Index(id, ".")] != ids[0][:strings.Index(ids[0], ".")] {
			t.Fatalf("memoized resubmissions routed apart: %v", ids)
		}
	}
}
