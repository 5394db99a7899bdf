package chaostest

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"time"

	"soidomino/internal/faultpoint"
	"soidomino/internal/service"
	"soidomino/internal/store"
)

// PersistConfig shapes a single-node crash-persistence campaign: one
// soimapd with a state dir, torn-write and fsync faults armed against
// the durable tier only, a crash mid-load, then a restart over the same
// dir. Zero fields select defaults.
type PersistConfig struct {
	// Seed drives the request stream and the tear schedule.
	Seed int64
	// Requests is the number of synchronous phase-1 submissions whose
	// response bytes are saved for the post-restart compare (default 12).
	Requests int
	// Pending is the number of asynchronous submissions left in flight
	// when the crash lands, so the journal has unfinished work to
	// re-admit (default 6).
	Pending int
	// Workers and QueueDepth size the server (defaults 2, 8).
	Workers, QueueDepth int
	// TornProb is the per-write probability of a torn result record
	// (default 0.25); journal tears and fsync failures fire at half of it.
	TornProb float64
	// SimCycles is the soisim oracle depth per verified response
	// (default 3; negative skips simulation).
	SimCycles int
	// StateDir overrides the campaign's scratch state dir (default: a
	// fresh temp dir, removed when the campaign ends).
	StateDir string
}

func (c PersistConfig) withDefaults() PersistConfig {
	if c.Requests <= 0 {
		c.Requests = 12
	}
	if c.Pending <= 0 {
		c.Pending = 6
	}
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 8
	}
	if c.TornProb <= 0 {
		c.TornProb = 0.25
	}
	if c.SimCycles == 0 {
		c.SimCycles = 3
	}
	return c
}

// PersistReport is one crash-persistence campaign's outcome. As
// everywhere in this package, Violations is the only field that can
// fail a campaign.
type PersistReport struct {
	Seed     int64
	Requests int
	// Done counts phase-1 responses that completed and were saved.
	Done int
	// TornInjected counts store tears and fsync failures the schedule
	// actually fired before the crash.
	TornInjected int64
	// Corrupt counts torn records the restarted server detected and
	// quarantined (boot fsck plus read-path checksum failures).
	Corrupt int64
	// WarmHits, Recovered and Readmitted are the restarted server's
	// recovery counters: durable-store hits, journal-recreated terminal
	// jobs and re-enqueued unfinished jobs.
	WarmHits, Recovered, Readmitted int64
	// Replayed counts phase-2 resubmissions whose bytes matched the
	// saved phase-1 response exactly.
	Replayed int
	// Violations are the campaign's findings: a resubmission whose bytes
	// drifted across the crash, a re-admitted job that failed organically
	// or vanished, or a cold restart. Empty means the campaign passed.
	Violations []string
}

func (r *PersistReport) String() string {
	return fmt.Sprintf("persist chaos seed=%d: %d requests, %d done, %d tears injected, %d quarantined, %d warm hits, %d recovered, %d readmitted, %d byte-stable replays, %d violations",
		r.Seed, r.Requests, r.Done, r.TornInjected, r.Corrupt,
		r.WarmHits, r.Recovered, r.Readmitted, r.Replayed, len(r.Violations))
}

// savedResponse pairs a phase-1 request with the exact bytes served for
// it, the oracle for the post-restart replay.
type savedResponse struct {
	wl    workload
	req   service.MapRequest
	bytes string
}

// RunPersist executes one crash-persistence campaign. Phase 1 boots a
// server with a state dir and only the durable tier's fault points
// armed (tears and fsync failures — faults that corrupt disk, never
// served bytes), completes a stream of submissions, launches a batch of
// async submissions, and crashes the server mid-load without any
// graceful shutdown. Phase 2 restarts over the same dir with no faults
// and checks the durability contract: the boot quarantines every torn
// record instead of refusing to start, journal recovery re-serves
// terminal jobs and re-admits unfinished ones under their original
// ids, and every phase-1 request resubmitted returns byte-identical
// results. The returned error covers harness failures; findings go to
// PersistReport.Violations.
func RunPersist(ctx context.Context, cfg PersistConfig) (*PersistReport, error) {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	rep := &PersistReport{Seed: cfg.Seed}

	stateDir := cfg.StateDir
	if stateDir == "" {
		dir, err := os.MkdirTemp("", "soichaos-persist-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		stateDir = dir
	}

	// Phase 1: only the durable tier's points are armed. Mapping-path
	// faults are the other campaigns' job; here every submission must
	// complete so its bytes can anchor the replay compare.
	reg := faultpoint.New(cfg.Seed ^ 0x7e47)
	reg.Arm(store.PointWriteTorn, faultpoint.Fault{Kind: faultpoint.Flip, Prob: cfg.TornProb})
	reg.Arm(store.PointJournalPartial, faultpoint.Fault{Kind: faultpoint.Flip, Prob: cfg.TornProb / 2})
	reg.Arm(store.PointFsyncFail, faultpoint.Fault{Kind: faultpoint.Error, Prob: cfg.TornProb / 2})

	srv := service.New(service.Config{
		Workers:      cfg.Workers,
		QueueDepth:   cfg.QueueDepth,
		JobRetention: time.Minute,
		Faults:       reg,
		StateDir:     stateDir,
		JournalFsync: "always", // exercise the fsync path and its fault
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	httpSrv := &http.Server{Handler: srv.Handler()}
	go httpSrv.Serve(ln)
	baseURL := "http://" + addr

	cli := campaignClient(baseURL)

	pool := workloads()
	var saved []savedResponse
	for i := 0; i < cfg.Requests; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		wl, req := randRequest(rng, pool)
		rep.Requests++
		v, err := cli.Map(ctx, &req)
		if err != nil {
			// The armed faults never touch the mapping path, so phase 1
			// has no designed request failures.
			rep.Violations = append(rep.Violations,
				fmt.Sprintf("phase-1 request %d (%s/%s): %v", i, wl.label, req.Algorithm, err))
			continue
		}
		if v.State != service.JobDone {
			rep.Violations = append(rep.Violations,
				fmt.Sprintf("phase-1 request %d (%s/%s): state %s (%s)", i, wl.label, req.Algorithm, v.State, v.Error))
			continue
		}
		b, err := service.EncodeJSON(v.Result)
		if err != nil {
			return nil, err
		}
		rep.Done++
		saved = append(saved, savedResponse{wl: wl, req: req, bytes: string(b)})
	}

	// Launch the pending batch and crash while it is in flight: these
	// jobs reach the journal as accepted/running but (mostly) never
	// terminal, which is exactly what recovery must re-admit.
	pendingDone := make(chan struct{})
	for i := 0; i < cfg.Pending; i++ {
		_, req := randRequest(rng, pool)
		go func(req service.MapRequest) {
			defer func() { pendingDone <- struct{}{} }()
			cli.Map(ctx, &req) // outcome irrelevant: the crash cuts it down
		}(req)
	}
	time.Sleep(10 * time.Millisecond) // let the batch reach the queue
	httpSrv.Close()
	srv.Abort()
	for i := 0; i < cfg.Pending; i++ {
		<-pendingDone
	}
	fired := reg.Fired()
	rep.TornInjected = fired[store.PointWriteTorn] + fired[store.PointJournalPartial] + fired[store.PointFsyncFail]

	// Phase 2: restart over the same dir, faults disarmed. The boot must
	// absorb whatever the tears left behind.
	srv2 := service.New(service.Config{
		Workers:      cfg.Workers,
		QueueDepth:   cfg.QueueDepth,
		JobRetention: time.Minute,
		StateDir:     stateDir,
	})
	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		srv2.Abort()
		return nil, fmt.Errorf("rebind %s: %w", addr, err)
	}
	httpSrv2 := &http.Server{Handler: srv2.Handler()}
	go httpSrv2.Serve(ln2)
	defer func() {
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		httpSrv2.Shutdown(sctx)
		srv2.Shutdown(sctx)
	}()

	rep.Corrupt = srv2.Counter("store_corrupt")
	rep.WarmHits = srv2.Counter("store_hits")
	rep.Recovered = srv2.Counter("jobs_recovered")
	rep.Readmitted = srv2.Counter("jobs_readmitted")
	if rep.Done > 0 && rep.WarmHits == 0 {
		rep.Violations = append(rep.Violations,
			"restart came back cold: no durable-store hits during journal recovery")
	}

	// Every re-admitted job must finish under its original id and, when
	// done, byte-match a clean sequential re-derivation.
	rep.Violations = append(rep.Violations, verifyReadmitted(ctx, srv2, baseURL, cfg.SimCycles, cfg.Seed, false)...)

	// Replay every saved phase-1 request: whether the answer comes from
	// the recovered store, the warmed memory cache or a fresh mapping
	// run, the bytes must be identical — quarantined tears may cost a
	// recompute, never a different answer.
	for i, s := range saved {
		v, err := cli.Map(ctx, &s.req)
		if err != nil {
			rep.Violations = append(rep.Violations,
				fmt.Sprintf("replay %d (%s/%s): %v", i, s.wl.label, s.req.Algorithm, err))
			continue
		}
		if v.State != service.JobDone {
			rep.Violations = append(rep.Violations,
				fmt.Sprintf("replay %d (%s/%s): state %s (%s)", i, s.wl.label, s.req.Algorithm, v.State, v.Error))
			continue
		}
		b, err := service.EncodeJSON(v.Result)
		if err != nil {
			return nil, err
		}
		if string(b) != s.bytes {
			rep.Violations = append(rep.Violations,
				fmt.Sprintf("replay %d (%s/%s): bytes drifted across the crash (silent corruption)", i, s.wl.label, s.req.Algorithm))
			continue
		}
		rep.Replayed++
	}
	return rep, nil
}
