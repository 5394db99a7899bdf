package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"soidomino/internal/client"
	"soidomino/internal/obs"
	"soidomino/internal/service"
)

// remoteFlags is the subset of soimap's flags a remote submission can
// express. Local-only outputs (-dump, -netlist, -spice, -dot, -verify,
// -compound, -stats) are not carried: the daemon returns the MapResult
// encoding only. -explain fetches the daemon's attribution record and
// -trace starts a sampled distributed trace, writing the stitched
// Perfetto JSON the server (replica or router) assembled.
type remoteFlags struct {
	circuit, blifPath, benchPath string
	algo, objective              string
	k, maxW, maxH                int
	pareto                       bool
	tupleBudget                  int
	seqAware                     bool
	strashOff                    bool
	jsonOut                      bool
	explain                      bool
	tracePath                    string
}

// runRemote maps through a soimapd instance using the retrying client:
// transient failures (connection refused during a rolling restart, 429
// under load) are retried with jittered backoff before soimap gives up.
func runRemote(baseURL string, timeout time.Duration, f remoteFlags) error {
	req := &service.MapRequest{Algorithm: f.algo}
	switch {
	case f.blifPath != "":
		b, err := os.ReadFile(f.blifPath)
		if err != nil {
			return err
		}
		req.BLIF = string(b)
	case f.benchPath != "":
		b, err := os.ReadFile(f.benchPath)
		if err != nil {
			return err
		}
		req.Bench = string(b)
	case f.circuit != "":
		req.Circuit = f.circuit
	default:
		return fmt.Errorf("one of -circuit, -blif or -bench is required")
	}
	req.Options = &service.RequestOptions{
		MaxWidth:      f.maxW,
		MaxHeight:     f.maxH,
		Objective:     f.objective,
		ClockWeight:   f.k,
		Pareto:        f.pareto,
		TupleBudget:   f.tupleBudget,
		SequenceAware: f.seqAware,
		StrashOff:     f.strashOff,
	}
	if timeout > 0 {
		req.TimeoutMS = timeout.Milliseconds()
	}

	// Ctrl-C aborts the submission and the poll loop promptly instead of
	// leaving soimap asleep between polls.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	// -trace mints a sampled trace context; the client propagates it as a
	// traceparent header, so the server records spans under our trace id.
	var tc obs.TraceContext
	if f.tracePath != "" {
		tc = obs.NewTraceContext()
		ctx = obs.WithTraceContext(ctx, tc)
	}

	c := client.New(client.Config{BaseURL: baseURL})
	v, err := c.Map(ctx, req)
	if err != nil {
		return err
	}
	// A synchronous submission can still come back non-terminal when the
	// HTTP round trip outlives the handler's patience; poll to the end.
	poll := time.NewTicker(50 * time.Millisecond)
	defer poll.Stop()
	for v.State == service.JobQueued || v.State == service.JobRunning {
		select {
		case <-ctx.Done():
			return fmt.Errorf("interrupted while polling remote job %s: %w", v.ID, ctx.Err())
		case <-poll.C:
		}
		if v, err = c.Job(ctx, v.ID); err != nil {
			return err
		}
	}
	switch v.State {
	case service.JobDone:
	case service.JobCanceled:
		return fmt.Errorf("remote job %s canceled: %s", v.ID, v.Error)
	default:
		return fmt.Errorf("remote job %s failed: %s", v.ID, v.Error)
	}

	if f.jsonOut {
		b, err := service.EncodeJSON(v.Result)
		if err != nil {
			return err
		}
		if _, err := os.Stdout.Write(b); err != nil {
			return err
		}
	} else {
		r := v.Result
		fmt.Printf("%s via %s (job %s, cached=%t)\n", r.Circuit, baseURL, v.ID, v.Cached)
		fmt.Printf("%s: Tlogic=%d Tdisch=%d Ttotal=%d gates=%d Tclock=%d levels=%d\n",
			r.Algorithm, r.Stats.TLogic, r.Stats.TDisch, r.Stats.TTotal,
			r.Stats.Gates, r.Stats.TClock, r.Stats.Levels)
		if r.Degraded {
			fmt.Println("note: tuple budget overflowed; result degraded to the per-shape heuristic")
		}
	}
	if f.explain {
		ev, err := c.Explain(ctx, v.ID)
		if err != nil {
			return fmt.Errorf("explain job %s: %w", v.ID, err)
		}
		out := io.Writer(os.Stdout)
		if f.jsonOut {
			out = os.Stderr
		}
		fmt.Fprintln(out, ev.Attribution.Table())
	}
	if f.tracePath != "" {
		b, err := fetchTrace(ctx, c, tc.TraceID)
		if err != nil {
			return fmt.Errorf("fetch trace %s: %w", tc.TraceID, err)
		}
		if err := os.WriteFile(f.tracePath, b, 0o644); err != nil {
			return err
		}
		if !f.jsonOut {
			fmt.Printf("distributed trace %s written to %s; load it at ui.perfetto.dev\n",
				tc.TraceID, f.tracePath)
		}
	}
	return nil
}

// fetchTrace retries briefly on 404: a replica exports a job's spans as
// its worker unwinds, which can land a beat after the job turns terminal
// and the poll loop stops.
func fetchTrace(ctx context.Context, c *client.Client, traceID string) ([]byte, error) {
	var lastErr error
	for i := 0; i < 20; i++ {
		b, err := c.Trace(ctx, traceID)
		if err == nil {
			return b, nil
		}
		var apiErr *client.APIError
		if !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound {
			return nil, err
		}
		lastErr = err
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(50 * time.Millisecond):
		}
	}
	return nil, lastErr
}
