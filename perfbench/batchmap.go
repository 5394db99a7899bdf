package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"time"

	"soidomino/internal/bench"
	"soidomino/internal/logic"
	"soidomino/internal/mapper"
	"soidomino/internal/netlist"
	"soidomino/internal/obs"
	"soidomino/internal/verify"
)

// suiteCircuits is the fixed circuit set the benchmark maps: a tiny
// multiplexer, the DES round whose DP dominates cold mapping, and the two
// largest ALU profiles.
var suiteCircuits = []string{"mux", "des", "c3540", "c7552"}

// batchAlgos are the four mappers under area options.
var batchAlgos = []string{"domino", "rs", "rsdeep", "soi"}

// bmJob is one batch-map job: a circuit, a mapper and its options.
type bmJob struct {
	circuit string
	algo    string
	pareto  bool
	src     *logic.Network
}

func (j bmJob) name() string {
	if j.pareto {
		return j.circuit + "/" + j.algo + "+pareto"
	}
	return j.circuit + "/" + j.algo
}

// options are the CLI's defaults (area objective, DP workers 0 = auto)
// plus the job's Pareto switch.
func (j bmJob) options() mapper.Options {
	opt := mapper.DefaultOptions()
	opt.Pareto = j.pareto
	return opt
}

// batchJobs builds the job set: every suite circuit under every mapper,
// plus soi with the Pareto extension on.
func batchJobs() ([]bmJob, error) {
	var jobs []bmJob
	for _, c := range suiteCircuits {
		b, ok := bench.Get(c)
		if !ok {
			return nil, fmt.Errorf("unknown suite circuit %q", c)
		}
		src := b.Build()
		for _, a := range batchAlgos {
			jobs = append(jobs, bmJob{circuit: c, algo: a, src: src})
		}
		jobs = append(jobs, bmJob{circuit: c, algo: "soi", pareto: true, src: src})
	}
	return jobs, nil
}

// expectedJob is one line of expected.json: what a correct mapping of
// the job must produce.
type expectedJob struct {
	Job    string `json:"job"`
	TTotal int    `json:"t_total"`
	TDisch int    `json:"t_disch"`
	SHA256 string `json:"sha256"`
}

//go:embed expected.json
var expectedFile []byte

func loadExpected() (map[string]expectedJob, error) {
	var list []expectedJob
	if err := json.Unmarshal(expectedFile, &list); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	out := make(map[string]expectedJob, len(list))
	for _, e := range list {
		out[e.Job] = e
	}
	return out, nil
}

func sha(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// writeExpectedFile regenerates expected.json from the current mapper.
// Only a deliberate change to mapping results justifies running it.
func writeExpectedFile(ctx context.Context, path string) error {
	jobs, err := batchJobs()
	if err != nil {
		return err
	}
	list := make([]expectedJob, 0, len(jobs))
	for _, j := range jobs {
		d, err := derive(ctx, nil, j.circuit, j.src, j.algo, j.options())
		if err != nil {
			return fmt.Errorf("%s: %w", j.name(), err)
		}
		list = append(list, expectedJob{Job: j.name(), TTotal: d.res.Stats.TTotal, TDisch: d.res.Stats.TDisch, SHA256: sha(d.json)})
	}
	b, err := json.MarshalIndent(list, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// checkExpected is the per-job oracle: T_total, T_disch and the sha256
// of the EncodeJSON bytes must equal the expected file's.
func checkExpected(exp map[string]expectedJob, j bmJob, d derivation) error {
	e, ok := exp[j.name()]
	switch {
	case !ok:
		return fmt.Errorf("%s: not in expected.json", j.name())
	case d.res.Stats.TTotal != e.TTotal || d.res.Stats.TDisch != e.TDisch:
		return fmt.Errorf("%s: T_total/T_disch %d/%d, expected %d/%d", j.name(),
			d.res.Stats.TTotal, d.res.Stats.TDisch, e.TTotal, e.TDisch)
	case sha(d.json) != e.SHA256:
		return fmt.Errorf("%s: EncodeJSON bytes differ from expected.json", j.name())
	}
	return nil
}

// deepCheck is the structural oracle run once per distinct job: the
// mapping is functionally equivalent to its source and its transistor
// netlist passes the netlist audit.
func deepCheck(j bmJob, d derivation) error {
	rep, err := verify.Equivalent(j.src, d.res, verify.DefaultOptions())
	if err != nil {
		return fmt.Errorf("%s: verify: %w", j.name(), err)
	}
	if !rep.OK() {
		return fmt.Errorf("%s: not equivalent: %s", j.name(), rep.Mismatches[0])
	}
	c, err := netlist.Build(d.res)
	if err != nil {
		return fmt.Errorf("%s: netlist: %w", j.name(), err)
	}
	if err := c.Audit(); err != nil {
		return fmt.Errorf("%s: netlist audit: %w", j.name(), err)
	}
	return nil
}

// bmPhase is what one measured batch-map phase leaves behind.
type bmPhase struct {
	lat    []float64 // per job, ms; failures +Inf
	rates  []float64 // per pass: jobs answered per second of mapping
	jobs   int
	failed int
	last   map[string]derivation
	rssMB  float64
}

// runBatchJobs drives the closed loop: one client maps whole passes over
// the job set, each pass in a seeded order, until seconds have passed and
// the sample supports a p95. run maps one job; the oracle time is kept
// out of the job latencies and pass rates.
func runBatchJobs(rng *rand.Rand, jobs []bmJob, exp map[string]expectedJob, seconds float64,
	run func(bmJob) (derivation, error)) *bmPhase {
	out := &bmPhase{last: make(map[string]derivation)}
	rss := startRSS()
	start := time.Now()
	order := make([]int, len(jobs))
	for i := range order {
		order[i] = i
	}
	for time.Since(start).Seconds() < seconds || len(out.lat) < samplesFor(0.95) {
		rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
		var busy time.Duration
		answered := 0
		for _, i := range order {
			j := jobs[i]
			t0 := time.Now()
			d, err := run(j)
			took := time.Since(t0)
			if err == nil {
				err = checkExpected(exp, j, d)
			}
			out.jobs++
			busy += took
			if err != nil {
				fmt.Fprintln(os.Stderr, "batch-map:", err)
				out.failed++
				out.lat = append(out.lat, math.Inf(1))
				continue
			}
			answered++
			out.lat = append(out.lat, ms(took))
			out.last[j.name()] = d
		}
		out.rates = append(out.rates, float64(answered)/busy.Seconds())
	}
	out.rssMB = rss.peakMB()
	return out
}

func runBatchMap(ctx context.Context, cfg config) (*runReport, error) {
	rep := newReport()
	exp, err := loadExpected()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	// Set-up builds the circuits and maps one warm-up pass, so lazy
	// runtime costs (heap growth, first-touch pages) land before timing.
	jobs, setupS, err := timeSetups(func() ([]bmJob, error) {
		jobs, err := batchJobs()
		if err != nil {
			return nil, err
		}
		for _, j := range jobs {
			if _, err := derive(ctx, nil, j.circuit, j.src, j.algo, j.options()); err != nil {
				return nil, fmt.Errorf("warm-up %s: %w", j.name(), err)
			}
		}
		return jobs, nil
	}, func([]bmJob) {})
	if err != nil {
		return nil, err
	}
	rep.traffic["jobs_per_pass"] = len(jobs)
	untraced := func(j bmJob) (derivation, error) { return derive(ctx, nil, j.circuit, j.src, j.algo, j.options()) }

	if cfg.trace {
		return tracedBatchMap(ctx, cfg, rep, rng, jobs, exp, untraced)
	}

	p := runBatchJobs(rng, jobs, exp, cfg.seconds, untraced)
	rep.Attempted = p.jobs
	rep.fail(p.failed)
	tTotal, tDisch := deepCheckAll(rep, jobs, p)
	// The median pass rate: a host stall slows a pass or two, not the figure.
	tput := median(p.rates)
	rep.set("setup_s", setupS, "s")
	rep.set("throughput_rps", tput, "1/s")
	// A closed loop runs at the highest rate its one client sustains.
	rep.set("rate_max_rps", tput, "1/s")
	latencyMetrics(rep, p.lat)
	rep.set("ok_ratio", float64(p.jobs-p.failed)/float64(p.jobs), "ratio")
	rep.set("peak_rss_mb", p.rssMB, "MiB")
	rep.set("transistors_total", float64(tTotal), "count")
	rep.set("discharge_transistors", float64(tDisch), "count")
	return rep, nil
}

// deepCheckAll runs the structural oracle once per distinct job, on the
// last mapping phase p produced, and sums T_total and T_disch over the
// job set: one pass's worth.
func deepCheckAll(rep *runReport, jobs []bmJob, p *bmPhase) (tTotal, tDisch int) {
	for _, j := range jobs {
		d, ok := p.last[j.name()]
		if !ok {
			rep.fail(1)
			continue
		}
		if err := deepCheck(j, d); err != nil {
			fmt.Fprintln(os.Stderr, "batch-map:", err)
			rep.fail(1)
		}
		tTotal += d.res.Stats.TTotal
		tDisch += d.res.Stats.TDisch
	}
	return tTotal, tDisch
}

// tracedBatchMap measures the per-layer metrics: half the time untraced
// (the baseline of obs.trace_overhead_ratio), half with every layer call
// wrapped in a span.
func tracedBatchMap(ctx context.Context, cfg config, rep *runReport, rng *rand.Rand, jobs []bmJob,
	exp map[string]expectedJob, untraced func(bmJob) (derivation, error)) (*runReport, error) {
	base := runBatchJobs(rng, jobs, exp, cfg.seconds/2, untraced)

	rec := newRecorder(time.Now())
	type jobStat struct {
		circuit string
		stats   obs.Stats
		dup     int
	}
	var stats []jobStat
	traced := func(j bmJob) (derivation, error) {
		var st obs.Stats
		root := rec.beginOp("job")
		d, err := derive(obs.WithStats(ctx, &st), rec, j.circuit, j.src, j.algo, j.options())
		rec.end(root)
		if err == nil {
			stats = append(stats, jobStat{j.circuit, st, d.pipe.Duplicated})
		}
		return d, err
	}
	tp := runBatchJobs(rng, jobs, exp, cfg.seconds/2, traced)
	rep.Attempted = base.jobs + tp.jobs
	rep.fail(base.failed + tp.failed)
	deepCheckAll(rep, jobs, tp)

	// PrepareNetworkMode times strash, decompose and unate into the
	// obs.Stats phases; the rest of the prepare span is pipeline glue.
	n := float64(len(stats))
	self := selfTimes(rec.spans)
	wall := totals(rec.spans)["job"]
	perJob := func(d time.Duration) float64 { return ms(d) / n }
	dp := map[string][]float64{}
	var ph obs.PhaseTimes
	var gen, kept, merged, dead, dup float64
	for _, s := range stats {
		dp[s.circuit] = append(dp[s.circuit], ms(s.stats.Phases.DP))
		ph.Strash += s.stats.Phases.Strash
		ph.Decompose += s.stats.Phases.Decompose
		ph.Unate += s.stats.Phases.Unate
		ph.DP += s.stats.Phases.DP
		ph.Traceback += s.stats.Phases.Traceback
		gen += float64(s.stats.TuplesGenerated)
		kept += float64(s.stats.TuplesKept)
		merged += float64(s.stats.StrashMerged)
		dead += float64(s.stats.StrashDead)
		dup += float64(s.dup)
	}
	other := self["job"] + self["prepare"] - ph.Strash - ph.Decompose - ph.Unate
	rep.set("mapper.dp_ms", perJob(ph.DP), "ms")
	for _, c := range suiteCircuits {
		rep.set("mapper.dp_ms."+c, mean(dp[c]), "ms")
	}
	rep.set("mapper.traceback_ms", perJob(ph.Traceback), "ms")
	rep.set("mapper.tuples_generated", gen/n, "count")
	rep.set("mapper.tuples_kept", kept/n, "count")
	rep.set("mapper.call_ms", perJob(self["mapper"]), "ms")
	rep.set("mapper.audit_ms", perJob(self["mapper.audit"]), "ms")
	rep.set("strash.ms", perJob(ph.Strash), "ms")
	rep.set("strash.merged_nodes", merged/n, "count")
	rep.set("strash.dead_nodes", dead/n, "count")
	rep.set("decompose.ms", perJob(ph.Decompose), "ms")
	rep.set("unate.ms", perJob(ph.Unate), "ms")
	rep.set("unate.duplicated_nodes", dup/n, "count")
	rep.set("service.new_result_ms", perJob(self["service.new_result"]), "ms")
	rep.set("service.encode_ms", perJob(self["service.encode"]), "ms")
	rep.set("pipeline.other_ms", perJob(other), "ms")
	coverage := 1 - float64(other)/float64(wall)
	rep.set("pipeline.coverage_share", coverage, "ratio")
	rep.set("obs.trace_overhead_ratio", median(tp.lat)/median(base.lat), "ratio")
	if coverage < 0.95 {
		fmt.Fprintf(os.Stderr, "batch-map: layer spans cover %.1f%% of job wall, below 95%%\n", 100*coverage)
		rep.Correct = false
	}
	rep.spans = rec.spans
	return rep, nil
}
