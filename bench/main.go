// Command bench is the repository's end-to-end benchmark: it drives
// service.Scheduler in-process through its public API with a closed loop
// of clients, times every job from just before Submit to Wait returning,
// and prints the metrics BENCHMARK.json declares.
//
//	go run . -workload spatial-hot -seed 1 -seconds 12 -trace 0
//
// With -trace 0 it prints the end-to-end metrics. With -trace 1 it runs
// the workload untraced and then traced, attributes the time to the
// scheduler's stages from their span trees, times direct calls into each
// layer below the scheduler, prints the per-layer metrics and writes all
// spans to the -spans file. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. The exit code is
// non-zero if any job failed or any result was wrong.
//
// See README.md for the workloads, the metrics and a baseline.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"

	"repro/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// setups is how many times each phase sets the scheduler up; setup_s is
// their median.
const setups = 5

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{v, unit} }

// result is the benchmark's last line of output.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// options are the command's flags.
type options struct {
	workload *workload
	seed     uint64
	seconds  float64
	trace    bool
	spans    string
}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (spatial-hot, spatial-cold, mixed-zipf, temporal-stateful, sweep-solo)")
	seed := fs.Uint64("seed", 1, "seed the job list and victims are drawn from")
	seconds := fs.Float64("seconds", 12, "run length in seconds on the reference host; sets the job count")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run and direct layer calls")
	spans := fs.String("spans", "", "span file of a -trace 1 run (default .bench_build/spans/<workload>-<seed>.json)")
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	w, err := workloadByName(*name)
	if err != nil {
		return options{}, err
	}
	if *seconds <= 0 || *seconds > 60 {
		return options{}, fmt.Errorf("-seconds %v out of range (0, 60]", *seconds)
	}
	if *trace != 0 && *trace != 1 {
		return options{}, fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	}
	o := options{workload: w, seed: *seed, seconds: *seconds, trace: *trace == 1, spans: *spans}
	if o.spans == "" {
		o.spans = filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-%d.json", w.name, o.seed))
	}
	return o, nil
}

// jobCount is the measured job count of a run: the workload's reference
// rate times the run length, but never fewer than minTailSamples, so that
// every run reports latency_p99_ms with ten samples beyond it. (On
// sweep-solo that makes a 12 s run last about 30 s.)
func jobCount(w *workload, seconds float64) int {
	return max(int(math.Round(w.jobsPerSec*seconds)), minTailSamples)
}

func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	p := o.workload.plan(o.workload, o.seed, jobCount(o.workload, o.seconds))
	fmt.Fprintln(stdout, provenance(o, p.jobs()))
	var res result
	if o.trace {
		res, err = layerRun(o, p, stderr)
	} else {
		res, err = endToEndRun(o, p, stderr)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// provenance is the header line of every run: no number is recorded
// without the commit and host shape it was measured on.
func provenance(o options, jobs int) string {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
		if rev != "" {
			commit = rev + dirty
		}
	}
	trace := 0
	if o.trace {
		trace = 1
	}
	return fmt.Sprintf("# bench commit=%s go=%s numcpu=%d gomaxprocs=%d workload=%s seed=%d seconds=%g trace=%d jobs=%d",
		commit, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), o.workload.name, o.seed, o.seconds, trace, jobs)
}

// endToEndRun measures the workload untraced and reports what a user of
// the scheduler sees.
func endToEndRun(o options, p plan, stderr io.Writer) (result, error) {
	ph, err := runPhase(o.workload, p, false, setups)
	if err != nil {
		return result{}, err
	}
	logErrs(stderr, ph)
	m := metrics{}
	m.set("jobs_per_s", float64(ph.attempted)/ph.wall.Seconds(), "jobs/s")
	latencyMetrics(ph.latMs, m)
	m.set("correct_ratio", float64(ph.correct)/float64(ph.attempted), "fraction")
	m.set("setup_s", medianDuration(ph.setup).Seconds(), "s")
	m.set("heap_live_mb", float64(ph.heapLive)/(1<<20), "MB")
	return result{Correct: ph.failed == 0, Attempted: ph.attempted, Failed: ph.failed, Metrics: m}, nil
}

// layerRun runs the workload untraced and traced, then the layer probes,
// and reports the per-layer metrics.
func layerRun(o options, p plan, stderr io.Writer) (result, error) {
	plain, err := runPhase(o.workload, p, false, 1)
	if err != nil {
		return result{}, err
	}
	logErrs(stderr, plain)
	traced, err := runPhase(o.workload, p, true, 1)
	if err != nil {
		return result{}, err
	}
	logErrs(stderr, traced)
	lp := &layerProbes{out: metrics{}}
	if err := lp.run(); err != nil {
		return result{}, err
	}
	m := lp.out

	c := plain.counters
	m.set("core.sim_attacker_s", plain.simSec, "sim_s")
	m.set("service.sessions_built", float64(c.built), "count")
	m.set("service.calibrations_reused", float64(c.calReused), "count")
	m.set("service.retries", float64(c.retries), "count")
	m.set("service.session_hit_rate", ratio(c.hits, c.hits+c.built), "fraction")
	m.set("proc.alloc_kb_per_job", float64(plain.allocBytes)/1024/float64(plain.attempted), "KiB")
	m.set("proc.gc_cycles", float64(plain.gcCycles), "count")
	plainRate := float64(plain.attempted) / plain.wall.Seconds()
	tracedRate := float64(traced.attempted) / traced.wall.Seconds()
	m.set("obs.trace_overhead_pct", 100*(plainRate-tracedRate)/plainRate, "%")
	stageMetrics(traced, m)

	if err := writeSpans(o.spans, provenance(o, p.jobs()), traced.spans, lp.spans); err != nil {
		return result{}, err
	}
	attempted := plain.attempted + traced.attempted
	failed := plain.failed + traced.failed
	return result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

// stageMetrics attributes the traced phase's client-side latency to the
// scheduler's stages by self time.
func stageMetrics(ph *phase, m metrics) {
	perStage := map[string][]float64{}
	sum := map[string]int64{}
	var total int64
	for _, st := range ph.stage {
		for name, ns := range st {
			perStage[name] = append(perStage[name], float64(ns)/1e6)
			sum[name] += ns
			total += ns
		}
	}
	var client float64
	for _, l := range ph.latMs {
		client += l * 1e6
	}
	p50 := func(name string) float64 {
		if len(perStage[name]) == 0 {
			return 0 // the workload never runs this stage (cloud jobs have no acquire)
		}
		return median(perStage[name])
	}
	m.set("service.queue_wait_ms_p50", p50("queue"), "ms")
	m.set("service.acquire_ms_p50", p50("acquire"), "ms")
	m.set("service.restore_ms_p50", p50("restore"), "ms")
	m.set("service.execute_ms_p50", p50("execute"), "ms")
	m.set("service.self_ms_p50", p50("root"), "ms")
	m.set("service.acquire_share", float64(sum["acquire"])/client, "fraction")
	m.set("service.execute_share", float64(sum["execute"])/client, "fraction")
	m.set("service.trace_coverage", float64(total)/client, "fraction")
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func logErrs(w io.Writer, ph *phase) {
	for _, e := range ph.errs {
		fmt.Fprintln(w, "bench: job failed:", e)
	}
}

// writeSpans writes the traced phase's job span trees and the layer
// probes' spans to path as one JSON document, under the run's provenance.
func writeSpans(path, provenance string, jobs, probes []*obs.Span) error {
	doc := struct {
		Provenance string      `json:"provenance"`
		Jobs       []*obs.Span `json:"jobs"`
		Probes     []*obs.Span `json:"probes"`
	}{provenance, jobs, probes}
	buf, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}
