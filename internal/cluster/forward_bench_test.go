package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"soidomino/internal/bench"
	"soidomino/internal/blif"
	"soidomino/internal/logic"
	"soidomino/internal/service"
)

// discardResponse is an http.ResponseWriter that drops the body and
// keeps one header map, so a benchmark loop measures only the router.
type discardResponse struct {
	h http.Header
	n int
}

func (d *discardResponse) Header() http.Header         { return d.h }
func (d *discardResponse) WriteHeader(int)             {}
func (d *discardResponse) Write(p []byte) (int, error) { d.n += len(p); return len(p), nil }

// cachedReplicaBody returns a replica's answer to a resubmission of n:
// the body the router forwards for a routed cache hit.
func cachedReplicaBody(b *testing.B, svc *service.Server, n *logic.Network) []byte {
	b.Helper()
	var text bytes.Buffer
	if err := blif.Write(&text, n); err != nil {
		b.Fatal(err)
	}
	req, err := json.Marshal(service.MapRequest{BLIF: text.String()})
	if err != nil {
		b.Fatal(err)
	}
	var rec *httptest.ResponseRecorder
	for i := 0; i < 2; i++ {
		rec = httptest.NewRecorder()
		svc.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/map", strings.NewReader(string(req))))
		if rec.Code != http.StatusOK {
			b.Fatalf("%s: status %d: %s", n.Name, rec.Code, rec.Body)
		}
	}
	return rec.Body.Bytes()
}

// BenchmarkRouterForward is the router's handling of one replica body
// for a routed cache hit of each keying-suite circuit, from the bytes
// the replica sent to the bytes the router writes (no transport).
func BenchmarkRouterForward(b *testing.B) {
	svc := service.New(service.Config{Workers: 1})
	defer svc.Shutdown(context.Background())
	for _, n := range bench.KeyingSuite() {
		body := cachedReplicaBody(b, svc, n)
		b.Run(n.Name, func(b *testing.B) {
			w := &discardResponse{h: http.Header{}}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				v, err := parseReply(body, "0.", "http://replica", "")
				if err != nil {
					b.Fatal(err)
				}
				service.WriteView(w, http.StatusOK, v.header, v.result)
			}
			b.ReportMetric(float64(w.n)/float64(b.N), "body-B/op")
		})
	}
}
