package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"soidomino/internal/client"
	"soidomino/internal/cluster"
	"soidomino/internal/obs"
	"soidomino/internal/service"
)

// fleet is an in-process soirouter fronting fleetReplicas soimapd
// replicas over loopback, configured as the daemons' defaults configure
// them, job retention and store bound included. The only additions are
// counting hooks on public configuration seams: the router clients'
// Sleep (one call per retry) and the replicas' peer HTTP client (one
// round trip per peer cache lookup).
type fleet struct {
	replicas  []*replicaNode
	router    *cluster.Router
	routerSrv *http.Server
	routerURL string
	ring      *cluster.Ring

	retries     atomic.Int64
	peerLookups atomic.Int64

	http *http.Client // the benchmark's own client
}

type replicaNode struct {
	svc *service.Server
	srv *http.Server
	url string
}

const fleetReplicas = 2

// countingTransport counts round trips through it.
type countingTransport struct {
	next http.RoundTripper
	n    *atomic.Int64
}

func (t countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	t.n.Add(1)
	return t.next.RoundTrip(r)
}

// bootFleet starts a fleet whose replicas hold cacheEntries results in
// their LRU (0 = daemon default) and, when stateRoot is set, keep their
// durable state in directories under it.
func bootFleet(cacheEntries int, stateRoot string) (*fleet, error) {
	f := &fleet{http: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}}}
	listeners := make([]net.Listener, fleetReplicas)
	urls := make([]string, fleetReplicas)
	for i := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range listeners[:i] {
				l.Close()
			}
			return nil, err
		}
		listeners[i] = ln
		urls[i] = "http://" + ln.Addr().String()
	}
	peerClient := &http.Client{Transport: countingTransport{http.DefaultTransport, &f.peerLookups}}
	for i, ln := range listeners {
		var peers []string
		for j, u := range urls {
			if j != i {
				peers = append(peers, u)
			}
		}
		cfg := service.Config{
			CacheEntries:   cacheEntries,
			Peers:          peers,
			PeerHTTPClient: peerClient,
			ReplicaName:    fmt.Sprintf("replica%d", i),
		}
		if stateRoot != "" {
			cfg.StateDir = filepath.Join(stateRoot, fmt.Sprintf("replica%d", i))
		}
		node := &replicaNode{svc: service.New(cfg), url: urls[i]}
		node.srv = &http.Server{Handler: node.svc.Handler()}
		go node.srv.Serve(ln)
		f.replicas = append(f.replicas, node)
	}
	rt, err := cluster.New(cluster.Config{
		Replicas: urls,
		Client: client.Config{Sleep: func(ctx context.Context, d time.Duration) error {
			f.retries.Add(1)
			t := time.NewTimer(d)
			defer t.Stop()
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-t.C:
				return nil
			}
		}},
	})
	if err != nil {
		f.close()
		return nil, err
	}
	f.router = rt
	f.ring = cluster.NewRing(urls, 0)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.close()
		return nil, err
	}
	f.routerURL = "http://" + ln.Addr().String()
	f.routerSrv = &http.Server{Handler: rt.Handler()}
	go f.routerSrv.Serve(ln)
	return f, nil
}

// close stops the router and every replica and waits for them.
func (f *fleet) close() {
	if f == nil {
		return
	}
	if f.routerSrv != nil {
		f.routerSrv.Close()
	}
	if f.router != nil {
		f.router.Close()
	}
	for _, r := range f.replicas {
		r.srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		r.svc.Shutdown(ctx)
		cancel()
	}
	f.http.CloseIdleConnections()
}

// owner is the index of the replica the router prefers for key.
func (f *fleet) owner(key string) int {
	u := f.ring.Prefer(key, 1)[0]
	for i, r := range f.replicas {
		if r.url == u {
			return i
		}
	}
	return 0
}

// answer is the part of a job view the oracle reads.
type answer struct {
	ID          string               `json:"id"`
	State       string               `json:"state"`
	Error       string               `json:"error"`
	Result      json.RawMessage      `json:"result"`
	Attribution *service.Attribution `json:"attribution"`
}

// post submits body to base's POST /v1/map. A sampled trace context adds
// a traceparent header.
func (f *fleet) post(ctx context.Context, base string, body []byte, tc *obs.TraceContext) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/map", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if tc != nil {
		req.Header.Set(obs.TraceparentHeader, tc.Traceparent())
	}
	resp, err := f.http.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// get fetches base+path.
func (f *fleet) get(ctx context.Context, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := f.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return io.ReadAll(resp.Body)
}

// promCounters reads the unlabelled samples of a Prometheus text
// exposition into a map.
func promCounters(b []byte) map[string]float64 {
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") || strings.Contains(line, "{") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out
}

// scrape sums the named counters over the router's and every replica's
// GET /metrics.
func (f *fleet) scrape(ctx context.Context) (map[string]float64, error) {
	sum := map[string]float64{}
	urls := []string{f.routerURL}
	for _, r := range f.replicas {
		urls = append(urls, r.url)
	}
	for _, u := range urls {
		b, err := f.get(ctx, u+"/metrics")
		if err != nil {
			return nil, err
		}
		for k, v := range promCounters(b) {
			sum[k] += v
		}
	}
	return sum, nil
}
