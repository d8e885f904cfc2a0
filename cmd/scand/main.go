// Command scand is the attack-as-a-service daemon: it serves the job
// scheduler of internal/service over HTTP, multiplexing concurrent attack
// jobs (kernel base, KPTI, modules, Windows, §IV-F user scan, cloud
// scenarios, the stateful §IV-E behaviorspy / appfingerprint kinds whose
// per-victim sessions carry a timeline across jobs, and the defenseeval
// kind evaluating a §V countermeasure — flare | fgkaslr | rerand |
// maskedop — against its attack on a defense-configured boot) across
// executor goroutines that share calibrated sessions and one scan-engine
// worker pool. A job may pin its own sweep parallelism with "scan_workers"; the
// result store is bounded (-store-max-jobs, -store-ttl) so a long-lived
// daemon's memory stays flat while the aggregate stats keep counting.
//
// The scheduler self-heals: transient failures (injected faults, watchdog
// deadline overruns, panics, corrupt sessions) retry with capped
// exponential backoff up to -max-attempts, a per-attempt watchdog fails
// jobs that overrun -job-deadline, panicking jobs are isolated and their
// sessions quarantined (a fresh boot rebuilds them bit-identically via the
// calibration cache), and -shed-watermark enables admission control (429 +
// Retry-After before the queue fills). -fault-seed/-fault-rate drive a
// deterministic chaos run: the whole fault schedule is a pure function of
// the seed.
//
// Daemon mode:
//
//	scand [-addr :8440] [-executors N] [-scan-workers N] [-queue N] [-fresh]
//	      [-store-max-jobs N] [-store-ttl D] [-pprof localhost:6060]
//	      [-max-attempts N] [-job-deadline D] [-shed-watermark N]
//	      [-fault-seed N -fault-rate P] [-trace-sample N] [-trace-buffer N]
//
// The observability plane is always on for metrics and opt-in for traces:
// GET /metrics serves Prometheus text (per-kind/per-defense/per-site
// labels, queue depth, stage and latency histograms) at O(buckets) cost per
// scrape, and -trace-sample N records every Nth job's full lifecycle —
// queue wait, session acquire (cache hit/miss), restore, execute, retries,
// backoffs, fault and quarantine annotations — into a bounded ring
// (-trace-buffer), served as JSON or an ASCII timeline from
// GET /jobs/{id}/trace. With -trace-sample 0 the recorder is nil and the
// instrumented path costs one nil check per stage.
//
// -pprof serves net/http/pprof on a side listener (works in both daemon and
// load mode), so CPU/heap profiles of a live daemon never share a port with
// the job API.
//
//	POST /jobs       {"kind":"kernelbase","cpu":"12400F","seed":7}  → {"id":1}
//	POST /jobs       {"kind":"behaviorspy","seed":7,"duration_sec":20}
//	POST /jobs       {"kind":"appfingerprint","seed":7,"app":"fps-game","scan_workers":4}
//	POST /jobs       {"kind":"defenseeval","defense":"flare","seed":7}
//	POST /jobs       {"kind":"defenseeval","defense":"rerand","seed":7,"rerand_periods_sec":[0.001,0.1]}
//	GET  /jobs/1     status + result
//	GET  /jobs/1/trace          sampled lifecycle span tree (JSON)
//	GET  /jobs/1/trace?format=ascii  the same trace as an ASCII timeline
//	GET  /stats      success rate, jobs/s, p50/p99 latency, reuse counters
//	GET  /metrics    Prometheus text exposition
//	POST /drain      graceful drain (finish queued work, refuse new jobs)
//
// SIGINT/SIGTERM also drain before exiting. Load-generator mode hammers
// the scheduler in-process with a scenario workload — -mix mixed (every
// kind: both vendors, SGX, cloud, both temporal kinds, defense evals) or
// -mix defense (the vendor × FLARE/FGKASLR/rerand matrix), drawing
// victims uniformly or from a seeded zipfian skew (-load-dist) — and
// appends a LoadMixed throughput entry to BENCH_scan.json:
//
//	scand -load [-mix mixed|defense] [-load-dist uniform|zipfian] [-jobs 256]
//	      [-concurrency 64] [-victims 16] [-bench-out BENCH_scan.json]
package main

import (
	"errors"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"sort"
	"syscall"

	"repro/internal/service"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses flags and starts the daemon or the load generator; split from
// main for tests.
func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("scand", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr        = fs.String("addr", ":8440", "daemon listen address")
		pprofAddr   = fs.String("pprof", "", "serve net/http/pprof on this side address (e.g. localhost:6060; empty = off)")
		executors   = fs.Int("executors", 0, "concurrent job executors (0 = GOMAXPROCS)")
		scanWorkers = fs.Int("scan-workers", 0, "scan-engine workers per job (0 = inline, negative = all CPUs)")
		queue       = fs.Int("queue", 64, "bounded job-queue depth")
		fresh       = fs.Bool("fresh", false, "disable the shared scan pool (fresh replicas per sweep)")
		storeMax    = fs.Int("store-max-jobs", 0, "finished jobs retained in the result store (0 = default bound, negative = unbounded)")
		storeTTL    = fs.Duration("store-ttl", 0, "evict finished jobs older than this (0 = no TTL)")
		maxAttempts = fs.Int("max-attempts", 0, "attempts per job before a transient failure is final (0 = 3, 1 = no retries)")
		jobDeadline = fs.Duration("job-deadline", 0, "per-attempt watchdog deadline (0 = 2m default, negative = disabled)")
		shedMark    = fs.Int("shed-watermark", 0, "shed submissions when the queue holds this many jobs (0 = off)")
		faultSeed   = fs.Uint64("fault-seed", 0, "deterministic fault-injection seed (chaos runs)")
		faultRate   = fs.Float64("fault-rate", 0, "uniform per-site fault probability in [0,1] (0 = injection off)")
		traceSample = fs.Int("trace-sample", 0, "record every Nth job's lifecycle trace (1 = every job, 0 = tracing off)")
		traceBuffer = fs.Int("trace-buffer", 0, "retained traces in the bounded ring (0 = 256)")
		load        = fs.Bool("load", false, "run the load generator instead of the daemon")
		jobs        = fs.Int("jobs", 256, "load: total jobs")
		concurrency = fs.Int("concurrency", 64, "load: concurrent submitters")
		victims     = fs.Int("victims", 16, "load: victim pool size (repeat-scan ratio)")
		seed        = fs.Uint64("seed", 1, "load: base victim seed")
		mix         = fs.String("mix", "mixed", "load: scenario rotation — mixed (every kind incl. defense evals) or defense (the vendor × defense matrix)")
		loadDist    = fs.String("load-dist", "uniform", "load: victim distribution — uniform (round-robin pool) or zipfian (seeded skew, a few hot victims)")
		benchOut    = fs.String("bench-out", "BENCH_scan.json", "load: benchmark trajectory file (empty = don't record)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	s := service.New(service.Config{
		Executors:     *executors,
		QueueDepth:    *queue,
		ScanWorkers:   *scanWorkers,
		FreshWorkers:  *fresh,
		Store:         service.StoreConfig{MaxJobs: *storeMax, TTL: *storeTTL},
		MaxAttempts:   *maxAttempts,
		JobDeadline:   *jobDeadline,
		ShedWatermark: *shedMark,
		Fault:         service.FaultConfig(*faultSeed, *faultRate),
		TraceSample:   *traceSample,
		TraceBuffer:   *traceBuffer,
	})
	if *faultRate > 0 {
		fmt.Fprintf(stdout, "scand: CHAOS — injecting faults at rate %g per site, seed %d (deterministic)\n", *faultRate, *faultSeed)
	}

	if *pprofAddr != "" {
		// The blank net/http/pprof import registers its handlers on the
		// default mux; serve that mux on a side listener so profiles never
		// share a port with the job API (daemon mode) and are reachable
		// while the load generator hammers the scheduler (load mode).
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintf(stderr, "scand: pprof listener: %v\n", err)
			}
		}()
		fmt.Fprintf(stdout, "scand: pprof on http://%s/debug/pprof/\n", *pprofAddr)
	}

	if *load {
		var specs []service.JobSpec
		switch *mix {
		case "mixed":
			// nil = the generator's DefaultMix
		case "defense":
			specs = service.DefenseMatrix()
		default:
			fmt.Fprintf(stderr, "scand: unknown -mix %q (want mixed or defense)\n", *mix)
			return 2
		}
		if *loadDist != service.DistUniform && *loadDist != service.DistZipfian {
			fmt.Fprintf(stderr, "scand: unknown -load-dist %q (want uniform or zipfian)\n", *loadDist)
			return 2
		}
		lc := loadCmd{
			jobs: *jobs, concurrency: *concurrency, victims: *victims,
			seed: *seed, mixName: *mix, mix: specs, dist: *loadDist,
			benchOut: *benchOut,
		}
		return runLoad(s, lc, stdout, stderr)
	}

	srv := &http.Server{Addr: *addr, Handler: service.NewHandler(s)}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		fmt.Fprintln(stdout, "scand: draining (finishing queued jobs, refusing new ones)")
		s.Drain()
		srv.Close()
	}()
	eff := s.Config()
	fmt.Fprintf(stdout, "scand: serving attack jobs on %s (executors=%d scan-workers=%d queue=%d pooled=%v)\n",
		*addr, eff.Executors, eff.ScanWorkers, eff.QueueDepth, !eff.FreshWorkers)
	if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		fmt.Fprintf(stderr, "scand: %v\n", err)
		return 1
	}
	printStats(stdout, s.Stats())
	return 0
}

// loadCmd carries the load generator's flag bundle into runLoad.
type loadCmd struct {
	jobs, concurrency, victims int
	seed                       uint64
	mixName, dist              string
	mix                        []service.JobSpec
	benchOut                   string
}

// runLoad drives the in-process load generator and records the result.
func runLoad(s *service.Scheduler, lc loadCmd, stdout, stderr *os.File) int {
	fmt.Fprintf(stdout, "scand: load run — %d jobs, %d submitters, %d victims (%s), %s scenarios\n",
		lc.jobs, lc.concurrency, lc.victims, lc.dist, lc.mixName)
	rep := service.RunLoad(s, service.LoadConfig{
		Jobs:        lc.jobs,
		Concurrency: lc.concurrency,
		Victims:     lc.victims,
		Seed:        lc.seed,
		Mix:         lc.mix,
		Dist:        lc.dist,
	})
	s.Drain()
	rep.Stats = s.Stats()
	printStats(stdout, rep.Stats)
	if len(rep.KindLatency) > 0 {
		kinds := make([]string, 0, len(rep.KindLatency))
		for k := range rep.KindLatency {
			kinds = append(kinds, string(k))
		}
		sort.Strings(kinds)
		for _, k := range kinds {
			kl := rep.KindLatency[service.Kind(k)]
			fmt.Fprintf(stdout, "  %-16s %4d jobs, p50 %.2f ms, p99 %.2f ms\n", k, kl.Jobs, kl.P50Ms, kl.P99Ms)
		}
	}
	fmt.Fprintf(stdout, "wall %.2fs, %d queue-full retries\n", rep.WallSec, rep.Retries)
	if rep.Stats.Failed > 0 {
		fmt.Fprintf(stderr, "scand: %d jobs failed\n", rep.Stats.Failed)
		return 1
	}
	if lc.benchOut != "" {
		if err := service.AppendBench(lc.benchOut, rep); err != nil {
			fmt.Fprintf(stderr, "scand: recording benchmark: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "recorded load entry in %s\n", lc.benchOut)
	}
	return 0
}

func printStats(out *os.File, st service.Stats) {
	fmt.Fprintf(out, "jobs: %d submitted, %d done, %d failed, %d rejected; success %.2f%%\n",
		st.Submitted, st.Completed, st.Failed, st.Rejected, 100*st.SuccessRate)
	fmt.Fprintf(out, "throughput: %.1f jobs/s; latency p50 %.2f ms, p99 %.2f ms; simulated attacker time %.3f s\n",
		st.JobsPerSec, st.P50Ms, st.P99Ms, st.SimAttackerSec)
	fmt.Fprintf(out, "reuse: %d session hits / %d boots, %d calibrations skipped (hit rate %.1f%%), %d pooled scan replicas\n",
		st.SessionHits, st.Sessions, st.CalibrationsReused, 100*st.CacheHitRate(), st.PoolReplicas)
	if st.Retries+st.Shed+st.Quarantined > 0 || st.FaultsInjected > 0 {
		fmt.Fprintf(out, "healing: %d retries, %d shed, %d sessions quarantined, %d faults injected\n",
			st.Retries, st.Shed, st.Quarantined, st.FaultsInjected)
	}
}
