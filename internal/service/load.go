package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/rng"
)

// Victim-distribution names for LoadConfig.Dist.
const (
	// DistUniform cycles the victim pool round-robin (job i → victim
	// i mod Victims): every victim equally hot.
	DistUniform = "uniform"
	// DistZipfian draws victims from a seeded zipf law over the pool
	// (exponent ≈ 1.07): a few hot victims dominate the run — the skewed
	// workload real scan traffic looks like, and the one where the
	// session cache's idle cap decides the hit rate.
	DistZipfian = "zipfian"
)

// DefaultMix is the standard mixed-scenario workload of the load
// generator: every attack family, both vendors, bare metal and SGX — the
// scenario-diversity axis the service layer exists to multiplex. Seeds are
// assigned per submission (base seed + job index), so a load run sweeps
// victims, not just repeats one.
func DefaultMix() []JobSpec {
	return []JobSpec{
		{Kind: KindKernelBase, CPU: "12400F"},
		{Kind: KindKernelBase, CPU: "5600X"}, // AMD term-level sweep
		{Kind: KindKPTI, CPU: "12400F"},
		{Kind: KindModules, CPU: "1065G7"},
		{Kind: KindUserScan, CPU: "1065G7"},
		{Kind: KindUserScan, CPU: "1065G7", SGX: true},
		{Kind: KindKernelBase, CPU: "9900"}, // Coffee Lake victim
		{Kind: KindCloud, Provider: "gce"},
		// Temporal kinds: stateful sessions whose victim timeline advances
		// one window per job (repeat seeds continue the same timeline).
		{Kind: KindBehaviorSpy, CPU: "1065G7", DurationSec: 10},
		{Kind: KindAppFingerprint, CPU: "1065G7", App: "fps-game"},
		// Defense evaluations: countermeasure scenarios as first-class jobs
		// (the rerand entry shares its undefended boot with kernelbase jobs
		// of the same CPU/seed; flare and fgkaslr boot defended victims
		// with their own sessions and calibrations).
		{Kind: KindDefenseEval, CPU: "12400F", Defense: DefenseFLARE},
		{Kind: KindDefenseEval, CPU: "12400F", Defense: DefenseFGKASLR},
		{Kind: KindDefenseEval, CPU: "1065G7", Defense: DefenseRerand, RerandPeriodsSec: []float64{0.0001, 0.01, 1}},
	}
}

// DefenseMatrix is the vendor × defense scenario fan-out: every §V
// countermeasure evaluated on every preset whose probe semantics support
// the evaluation's attacks. FLARE and FGKASLR rest on the Intel TLB-probe
// path (P4); AMD parts take the re-randomization row, whose base recovery
// uses the P3 term-level sweep. Seeds are assigned per submission, like
// DefaultMix.
func DefenseMatrix() []JobSpec {
	var specs []JobSpec
	for _, cpu := range []string{"12400F", "1065G7", "9900"} {
		specs = append(specs,
			JobSpec{Kind: KindDefenseEval, CPU: cpu, Defense: DefenseFLARE},
			JobSpec{Kind: KindDefenseEval, CPU: cpu, Defense: DefenseFGKASLR},
			JobSpec{Kind: KindDefenseEval, CPU: cpu, Defense: DefenseRerand},
		)
	}
	specs = append(specs,
		JobSpec{Kind: KindDefenseEval, CPU: "5600X", Defense: DefenseRerand,
			RerandPeriodsSec: []float64{0.0001, 0.001, 0.01, 0.1, 1}},
		JobSpec{Kind: KindDefenseEval, CPU: "12400F", Defense: DefenseRerand,
			RerandPeriodsSec: []float64{0.0001, 0.001, 0.01, 0.1, 1}},
		JobSpec{Kind: KindDefenseEval, Defense: DefenseMaskedOp},
	)
	return specs
}

// LoadConfig tunes a load-generator run.
type LoadConfig struct {
	// Jobs is the total number of submissions (default 64).
	Jobs int
	// Concurrency is the number of concurrent submitters (default 8) —
	// each keeps one job in flight, resubmitting on queue-full
	// backpressure.
	Concurrency int
	// Seed is the base victim seed (default 1).
	Seed uint64
	// Victims is the size of the victim pool the run cycles through: job i
	// runs at Seed + i mod Victims (default 16). Smaller pools mean more
	// repeat scans — more session and calibration reuse; Victims >= Jobs
	// makes every job a fresh victim.
	Victims int
	// Dist picks how jobs draw from the victim pool: DistUniform
	// (default) or DistZipfian. The whole job→victim assignment is
	// precomputed from (Seed, Jobs, Victims, Dist) before any submitter
	// starts, so submitter interleaving can reorder submissions but never
	// change which victim a job scans.
	Dist string
	// Mix is the scenario rotation (default DefaultMix).
	Mix []JobSpec
	// WaitTimeout bounds how long a submitter waits on one accepted job
	// (default 2m — above the scheduler's own job deadline, so the
	// scheduler's watchdog fails a wedged job before the load generator
	// gives up on it). A timed-out wait is counted and the submitter moves
	// on; it never hangs the run.
	WaitTimeout time.Duration
}

// LoadReport is the outcome of one load run.
type LoadReport struct {
	Jobs        int     `json:"jobs"`
	Concurrency int     `json:"concurrency"`
	Dist        string  `json:"dist"`
	WallSec     float64 `json:"wall_sec"`
	Retries     int     `json:"retries"` // backpressure resubmissions (queue full / shed)
	// SubmitErrors counts submissions the scheduler rejected permanently
	// (invalid spec); those jobs are skipped, not retried.
	SubmitErrors int `json:"submit_errors,omitempty"`
	// WaitTimeouts counts accepted jobs whose result wait exceeded
	// LoadConfig.WaitTimeout (the submitter moved on; the job may still
	// finish).
	WaitTimeouts int   `json:"wait_timeouts,omitempty"`
	Stats        Stats `json:"stats"`
	// KindLatency breaks the run's end-to-end latency down per job kind
	// (bucketed p50/p99 from the store's per-kind histograms).
	KindLatency map[Kind]KindLatency `json:"kind_latency,omitempty"`
}

// RunLoad hammers the scheduler with cfg.Jobs submissions drawn from the
// mix and waits for all of them: the sustained-traffic harness behind
// `scand -load` and the race/throughput suite. Queue-full rejections are
// retried after a short backoff, so the bounded queue is continuously
// saturated without ever blocking inside Submit.
func RunLoad(s *Scheduler, cfg LoadConfig) LoadReport {
	if cfg.Jobs <= 0 {
		cfg.Jobs = 64
	}
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = 8
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Victims <= 0 {
		cfg.Victims = 16
	}
	if cfg.Dist == "" {
		cfg.Dist = DistUniform
	}
	if len(cfg.Mix) == 0 {
		cfg.Mix = DefaultMix()
	}
	if cfg.WaitTimeout <= 0 {
		cfg.WaitTimeout = 2 * time.Minute
	}
	victimOf := victimAssignment(cfg)

	start := time.Now()
	var (
		next         int
		retries      int
		subErrors    int
		waitTimeouts int
		mu           sync.Mutex
		wg           sync.WaitGroup
	)
	for w := 0; w < cfg.Concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				if i >= cfg.Jobs {
					mu.Unlock()
					return
				}
				next++
				mu.Unlock()
				spec := cfg.Mix[i%len(cfg.Mix)]
				spec.Seed = cfg.Seed + uint64(victimOf[i])
				for {
					j, err := s.Submit(spec)
					if err == nil {
						// Bounded wait: a job whose executor died must not
						// hang the submitter — WaitCtx gives up after the
						// timeout and the run keeps flowing.
						ctx, cancel := context.WithTimeout(context.Background(), cfg.WaitTimeout)
						_, werr := s.WaitCtx(ctx, j)
						cancel()
						if errors.Is(werr, context.DeadlineExceeded) {
							mu.Lock()
							waitTimeouts++
							mu.Unlock()
						}
						break
					}
					if errors.Is(err, ErrDraining) {
						// Draining is permanent for the whole run, not just
						// this job: stop submitting instead of retrying
						// forever against a scheduler that will never
						// accept again.
						return
					}
					if Classify(err) == ClassPermanent {
						// Permanent (validation) errors: retrying would
						// livelock. Skip the job and keep the run going.
						mu.Lock()
						subErrors++
						mu.Unlock()
						break
					}
					// Transient backpressure (queue full, shed): resubmit
					// after a short pause.
					mu.Lock()
					retries++
					mu.Unlock()
					time.Sleep(200 * time.Microsecond)
				}
			}
		}()
	}
	wg.Wait()
	return LoadReport{
		Jobs:         cfg.Jobs,
		Concurrency:  cfg.Concurrency,
		Dist:         cfg.Dist,
		WallSec:      time.Since(start).Seconds(),
		Retries:      retries,
		SubmitErrors: subErrors,
		WaitTimeouts: waitTimeouts,
		Stats:        s.Stats(),
		KindLatency:  s.KindLatencies(),
	}
}

// victimAssignment precomputes job index → victim pool index before any
// submitter starts: the assignment is a pure function of (Seed, Jobs,
// Victims, Dist), so submitter goroutine interleaving can reorder
// submissions but never change which victim a job scans — the property
// the determinism suite leans on.
func victimAssignment(cfg LoadConfig) []int {
	out := make([]int, cfg.Jobs)
	if cfg.Dist != DistZipfian {
		for i := range out {
			out[i] = i % cfg.Victims
		}
		return out
	}
	// Zipf CDF over victim ranks: weight(rank r) = 1/(r+1)^s. Rank 0 is
	// the hottest victim; s ≈ 1.07 matches the classic web-traffic skew.
	const s = 1.07
	cdf := make([]float64, cfg.Victims)
	var total float64
	for r := range cdf {
		total += 1 / math.Pow(float64(r+1), s)
		cdf[r] = total
	}
	src := rng.New(cfg.Seed ^ 0x21bfa90d)
	for i := range out {
		u := src.Float64() * total
		out[i] = sort.SearchFloat64s(cdf, u)
	}
	return out
}

// benchEntry mirrors the newline-delimited JSON schema scripts/bench.sh
// appends to BENCH_scan.json, so load-run throughput lands in the same
// trajectory file the probe benchmarks use (bench_compare skips entries
// with disjoint benchmark sets).
type benchEntry struct {
	Date       string           `json:"date"`
	Pattern    string           `json:"pattern"`
	NumCPU     int              `json:"num_cpu"`
	GoMaxProcs int              `json:"gomaxprocs"`
	Benchmarks []benchBenchmark `json:"benchmarks"`
}

type benchBenchmark struct {
	Name       string  `json:"name"`
	Iterations int     `json:"iterations"`
	JobsPerSec float64 `json:"jobs/s"`
	P50Ms      float64 `json:"p50_ms"`
	P99Ms      float64 `json:"p99_ms"`
	SimSec     float64 `json:"sim_attacker_s"`
	Sessions   int     `json:"sessions"`
	CalReused  int     `json:"calibrations_reused"`
	// SessionHits / HitRate record cache affinity for the run: HitRate is
	// (session hits + calibration hits) / session lookups — the metric
	// bench_compare watches for regressions.
	SessionHits int     `json:"session_hits"`
	HitRate     float64 `json:"session_hit_rate"`
	// Dist records the victim distribution the run drew from.
	Dist string `json:"dist,omitempty"`
	// KindLatencyMs is the per-kind p50/p99 breakdown of the run (load
	// entries only), keyed by kind name.
	KindLatencyMs map[string]KindLatency `json:"kind_latency_ms,omitempty"`
}

// AppendBench appends the load report as one BENCH_scan.json entry, a
// LoadMixed row named by job count and concurrency.
func AppendBench(path string, r LoadReport) error {
	var kindLat map[string]KindLatency
	if len(r.KindLatency) > 0 {
		kindLat = make(map[string]KindLatency, len(r.KindLatency))
		for k, v := range r.KindLatency {
			kindLat[string(k)] = v
		}
	}
	e := benchEntry{
		Date:       time.Now().UTC().Format(time.RFC3339),
		Pattern:    "scand-load",
		NumCPU:     runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Benchmarks: []benchBenchmark{{
			Name:          fmt.Sprintf("LoadMixed/jobs=%d/conc=%d", r.Jobs, r.Concurrency),
			Iterations:    r.Jobs,
			JobsPerSec:    r.Stats.JobsPerSec,
			P50Ms:         r.Stats.P50Ms,
			P99Ms:         r.Stats.P99Ms,
			SimSec:        r.Stats.SimAttackerSec,
			Sessions:      r.Stats.Sessions,
			CalReused:     r.Stats.CalibrationsReused,
			SessionHits:   r.Stats.SessionHits,
			HitRate:       r.Stats.CacheHitRate(),
			Dist:          r.Dist,
			KindLatencyMs: kindLat,
		}},
	}
	line, err := json.Marshal(e)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = f.Write(append(line, '\n'))
	return err
}
