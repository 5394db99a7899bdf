// Command perfbench is the repository benchmark. One invocation runs one
// workload against the mapper and its HTTP service stack, checks every
// answer with an output oracle, and prints its metrics as the last line
// of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Workloads (see README.md for why each exists):
//
//	batch-map   closed loop, one client, the `soimap -json` pipeline
//	hot-hits    closed loop, 2 clients, router + 2 replicas, all LRU hits
//	mixed-open  misses/hits/store/peer/coalesced from 2 connections: closed
//	            loop end to end, seeded Poisson open loop when traced
//
// With --trace 0 the end-to-end metrics are printed; with --trace 1 the
// per-layer metrics, measured by wrapping the public calls of each layer
// in the benchmark's own spans. Run it through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload hot-hits --seed 1 --seconds 12 --trace 0
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"
)

// benchProcs is how many processors the whole benchmark process runs
// on: load generator, router, replicas and mapper share one. On a host
// of a few vCPUs shared with other tenants, a process that keeps two
// busy runs at the pace of whichever is busier elsewhere, so its figures
// follow the neighbours; a one-processor process is rescheduled onto the
// idler vCPU instead. The mapper's auto DP workers (0) resolve to 1.
const benchProcs = 1

// setupRepeats is how many times each workload sets itself up; setup_s is
// the median, so one slow boot (cold page cache, a host stall) does not
// move it.
const setupRepeats = 7

// config is one invocation's parsed command line.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	outDir   string
}

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runReport is what a workload hands back: the result line plus the
// environment and traffic properties recorded beside it.
type runReport struct {
	result
	traffic map[string]any
	spans   []span
}

func newReport() *runReport {
	return &runReport{
		result:  result{Correct: true, Metrics: map[string]metric{}},
		traffic: map[string]any{},
	}
}

func (r *runReport) set(name string, value float64, unit string) {
	if math.IsNaN(value) || math.IsInf(value, 0) {
		value = 0
	}
	r.Metrics[name] = metric{Value: value, Unit: unit}
}

// fail records n failed operations and marks the run incorrect.
func (r *runReport) fail(n int) {
	if n > 0 {
		r.Failed += n
		r.Correct = false
	}
}

var workloads = map[string]func(context.Context, config) (*runReport, error){
	"batch-map":  runBatchMap,
	"hot-hits":   runHotHits,
	"mixed-open": runMixedOpen,
}

func main() {
	runtime.GOMAXPROCS(benchProcs)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:], os.Stdout)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var cfg config
	var trace int
	var writeExpected string
	fs.StringVar(&cfg.workload, "workload", "", "batch-map, hot-hits or mixed-open")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed for every generated input")
	fs.Float64Var(&cfg.seconds, "seconds", 12, "length of the measured phase")
	fs.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced run")
	fs.StringVar(&cfg.outDir, "out", filepath.Join(".bench_build", "perfbench-out"), "directory for spans and scratch state")
	fs.StringVar(&writeExpected, "write-expected", "", "regenerate the batch-map expected file at this path and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if writeExpected != "" {
		return writeExpectedFile(ctx, writeExpected)
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	cfg.trace = trace == 1
	if cfg.seconds <= 0 {
		return errors.New("--seconds must be positive")
	}
	runWorkload, ok := workloads[cfg.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (want batch-map, hot-hits or mixed-open)", cfg.workload)
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	rep, err := runWorkload(ctx, cfg)
	if err != nil {
		return err
	}
	defs := endToEnd
	if cfg.trace {
		rep.set("fail_ratio", float64(rep.Failed)/float64(max(rep.Attempted, 1)), "ratio")
		setLayerDefaults(rep)
		defs = perLayer
	}
	if err := only(rep, defs); err != nil {
		return err
	}
	if cfg.trace {
		path := filepath.Join(cfg.outDir, fmt.Sprintf("spans-%s-%d.json", cfg.workload, cfg.seed))
		if err := writeSpans(path, rep.spans); err != nil {
			return err
		}
		rep.traffic["spans_file"] = path
	}
	if rep.Attempted < 1 {
		return errors.New("no operation was attempted")
	}
	env, err := json.Marshal(map[string]any{"env": environment(cfg), "traffic": rep.traffic})
	if err != nil {
		return err
	}
	last, err := json.Marshal(rep.result)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n%s\n", env, last)
	return err
}

// environment is recorded with every result so a later claim can cite
// the host, toolchain and seed it was measured on.
func environment(cfg config) map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"trace":      cfg.trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"goos":       runtime.GOOS + "/" + runtime.GOARCH,
		"commit":     commit,
	}
}

// timeSetups runs setup setupRepeats times, tearing down every instance
// but the last, and returns the last instance with the median set-up time.
func timeSetups[T any](setup func() (T, error), teardown func(T)) (T, float64, error) {
	var inst T
	times := make([]float64, 0, setupRepeats)
	for i := 0; i < setupRepeats; i++ {
		if i > 0 {
			teardown(inst)
		}
		// Each set-up starts from a collected heap, so none pays for the
		// garbage input generation or an earlier set-up left.
		runtime.GC()
		start := time.Now()
		var err error
		inst, err = setup()
		if err != nil {
			return inst, 0, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	// Hand the torn-down instances' memory back to the OS, so the timed
	// phase's resident high-water mark is its own.
	debug.FreeOSMemory()
	return inst, median(times), nil
}
