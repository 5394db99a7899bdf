package mapper

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"soidomino/internal/bench"
	"soidomino/internal/decompose"
	"soidomino/internal/logic"
	"soidomino/internal/obs"
	"soidomino/internal/unate"
)

// unateBench builds a benchmark circuit and runs it through the standard
// decompose+unate pipeline, returning the mappable network.
func unateBench(t *testing.T, name string) *logic.Network {
	t.Helper()
	d, err := decompose.Decompose(bench.MustBuild(name))
	if err != nil {
		t.Fatalf("%s: decompose: %v", name, err)
	}
	u, err := unate.Convert(d)
	if err != nil {
		t.Fatalf("%s: unate: %v", name, err)
	}
	return u.Network
}

// TestConcurrentMappingMatchesSerial maps several circuits from parallel
// goroutines — each circuit many times, all sharing one network value —
// and requires every result to be byte-identical to the serial run. This
// guards the property the service's worker pool depends on: mapping runs
// share no mutable state, neither across goroutines nor through the input
// network. Run it under -race (scripts/check.sh does).
func TestConcurrentMappingMatchesSerial(t *testing.T) {
	circuits := []string{"mux", "z4ml", "cordic", "c8", "b9"}
	opt := DefaultOptions()

	nets := make(map[string]*logic.Network, len(circuits))
	want := make(map[string]string, len(circuits))
	for _, name := range circuits {
		nets[name] = unateBench(t, name)
		res, err := Map(context.Background(), SOI, nets[name], opt)
		if err != nil {
			t.Fatalf("%s: serial map: %v", name, err)
		}
		want[name] = res.Dump()
	}

	const repeats = 4
	var wg sync.WaitGroup
	errs := make(chan error, len(circuits)*repeats)
	for _, name := range circuits {
		for r := 0; r < repeats; r++ {
			wg.Add(1)
			go func(name string) {
				defer wg.Done()
				res, err := Map(context.Background(), SOI, nets[name], opt)
				if err != nil {
					errs <- err
					return
				}
				if got := res.Dump(); got != want[name] {
					t.Errorf("%s: concurrent result differs from serial run", name)
				}
			}(name)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("concurrent map: %v", err)
	}
}

func TestContextCancellationAbortsDP(t *testing.T) {
	n := unateBench(t, "c880")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Map(ctx, SOI, n, DefaultOptions())
	if res != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("got (%v, %v), want nil result and context.Canceled", res, err)
	}
}

func TestContextExpiredDeadlineAbortsDP(t *testing.T) {
	n := unateBench(t, "c880")
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	res, err := Map(ctx, Domino, n, DefaultOptions())
	if res != nil || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got (%v, %v), want nil result and context.DeadlineExceeded", res, err)
	}
}

// TestContextBackgroundMatchesPlainAPI: each deprecated ...MapContext
// wrapper maps exactly as Map does under its Algorithm.
func TestContextBackgroundMatchesPlainAPI(t *testing.T) {
	n := unateBench(t, "mux")
	for alg, wrapper := range map[Algorithm]func(context.Context, *logic.Network, Options) (*Result, error){
		Domino: DominoMapContext, RS: RSMapContext, RSDeep: RSMapDeepContext, SOI: SOIDominoMapContext,
	} {
		plain, err := Map(context.Background(), alg, n, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		wrapped, err := wrapper(context.Background(), n, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if plain.Dump() != wrapped.Dump() {
			t.Errorf("%s: deprecated wrapper diverges from Map", alg)
		}
	}
}

// errAfterCtx is a context whose Err flips to context.Canceled after a
// fixed number of Err calls — a deterministic stand-in for "the deadline
// expired mid-run" that pins exactly which checkpoint observes it.
type errAfterCtx struct {
	context.Context
	calls atomic.Int64
	after int64
}

func (c *errAfterCtx) Err() error {
	if c.calls.Add(1) > c.after {
		return context.Canceled
	}
	return nil
}

// TestMidNodeCancellationRegression pins the bounded in-loop checkpoint:
// before it, the engine polled the context only at node boundaries, so a
// cancellation landing inside a node with a large Pareto cross-product
// went unseen until the node finished. The mux Pareto run has a node
// with > combineCheckInterval combines; sweeping the flip point across
// every checkpoint must (a) abort the run for every flip index below the
// total and (b) hit the in-loop checkpoint ("canceled inside node") at
// least once. Without the in-loop check, flip indexes at or past the
// node count complete instead of aborting.
func TestMidNodeCancellationRegression(t *testing.T) {
	n := unateBench(t, "mux")
	opt := DefaultOptions()
	opt.Pareto = true

	// Baseline: count checkpoints on an uncanceled run.
	st := new(obs.Stats)
	if _, err := Map(obs.WithStats(context.Background(), st), SOI, n, opt); err != nil {
		t.Fatal(err)
	}
	boundary := int64(n.Len())
	if st.CancelChecks <= boundary {
		t.Fatalf("mux Pareto run has no in-loop checkpoints (checks=%d, nodes=%d); the regression needs a node with > %d combines",
			st.CancelChecks, boundary, combineCheckInterval)
	}

	sawInLoop := false
	for after := int64(0); after < st.CancelChecks; after++ {
		ctx := &errAfterCtx{Context: context.Background(), after: after}
		res, err := Map(ctx, SOI, n, opt)
		if res != nil || !errors.Is(err, context.Canceled) {
			t.Fatalf("flip after %d checks: got (%v, %v), want canceled", after, res, err)
		}
		if strings.Contains(err.Error(), "canceled inside node") {
			sawInLoop = true
		}
	}
	if !sawInLoop {
		t.Error("no flip point hit the in-loop checkpoint; the bounded mid-node check is gone")
	}
}

// TestParallelCancellation: on a circuit large enough to have been split
// across workers, a context canceled before the run or partway through
// it aborts both mappers with context.Canceled and no result.
func TestParallelCancellation(t *testing.T) {
	n := unateBench(t, "c880")
	for _, alg := range []Algorithm{SOI, Domino} {
		for _, after := range []int64{0, int64(n.Len() / 2)} {
			ctx := &errAfterCtx{Context: context.Background(), after: after}
			res, err := Map(ctx, alg, n, DefaultOptions())
			if res != nil || !errors.Is(err, context.Canceled) {
				t.Fatalf("%s, flip after %d checks: got (%v, %v), want nil result and context.Canceled", alg, after, res, err)
			}
		}
	}
}

// TestFedConstantError: a constant node feeding gates fails the run with
// the "fold constants" root cause, not a cancellation.
func TestFedConstantError(t *testing.T) {
	n := logic.New("bad-const")
	a := n.AddInput("a")
	b := n.AddInput("b")
	c1 := n.AddConst(true)
	g := n.AddGate(logic.And, c1, a)
	h := n.AddGate(logic.Or, g, b)
	n.AddOutput("o", h)

	_, err := Map(context.Background(), SOI, n, DefaultOptions())
	if err == nil || errors.Is(err, context.Canceled) || !strings.Contains(err.Error(), "fold constants") {
		t.Fatalf("got %v, want the fed-constant error", err)
	}
}
