package main

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/rng"
	"repro/internal/service"
)

// workload is one traffic mix the benchmark drives through the scheduler.
type workload struct {
	name    string
	clients int
	// jobsPerSec sizes the measured phase: a run of -seconds s submits
	// round(jobsPerSec·s) jobs. The rate is the workload's typical rate on
	// the reference host (2 CPUs), so a run there lasts about s seconds;
	// on any commit the job count, and therefore the work, is the same.
	jobsPerSec float64
	specs      []service.JobSpec
	// segment, when non-zero, caps how many measured jobs share one
	// scheduler. The scheduler's calibration cache keeps the calibration
	// of every victim it has seen, about 1.3 MB each, and never evicts; a
	// workload with a new victim per job would hold gigabytes by the end
	// of a run. Its measured jobs run instead on a fresh scheduler every
	// segment jobs, set up (New plus the warm-up) with the clock stopped.
	segment int
	// plan draws the victims of the measured phase and of the warm-up.
	plan func(w *workload, seed uint64, jobs int) plan
}

// job is one submission: a spec of the workload's mix and a victim seed.
type job struct {
	spec   int
	victim uint64
}

// plan is the precomputed job list of one run: the warm-up, run serially
// on one client, and each client's measured jobs, in submission order.
// A victim seed appears in at most one client's list, so no victim key is
// ever in flight twice and every result is a pure function of the plan.
type plan struct {
	warmup  []job
	clients [][]job
}

// segments splits every client's job list into the same number of
// consecutive parts, so that no part holds more than size jobs in all
// (size 0: one part). Part k of every client runs on one scheduler.
func (p plan) segments(size int) [][][]job {
	n := 1
	if size > 0 {
		n = (p.jobs() + size - 1) / size
	}
	segs := make([][][]job, n)
	for _, list := range p.clients {
		per := (len(list) + n - 1) / n
		for k := range segs {
			lo, hi := min(k*per, len(list)), min((k+1)*per, len(list))
			segs[k] = append(segs[k], list[lo:hi])
		}
	}
	return segs
}

// jobs returns the number of measured jobs.
func (p plan) jobs() int {
	n := 0
	for _, c := range p.clients {
		n += len(c)
	}
	return n
}

// spatialSpecs is the seven-spec stateless mix: every spatial probe path
// of the paper (Intel and AMD base, KPTI, modules, the fused user scan
// with and without SGX) plus one defended boot. Seven, an odd count, puts
// the latency median inside one kind's mode rather than between two.
func spatialSpecs() []service.JobSpec {
	return []service.JobSpec{
		{Kind: service.KindKernelBase, CPU: "12400F"},
		{Kind: service.KindKernelBase, CPU: "5600X"},
		{Kind: service.KindKPTI, CPU: "12400F"},
		{Kind: service.KindModules, CPU: "1065G7"},
		{Kind: service.KindUserScan, CPU: "1065G7"},
		{Kind: service.KindUserScan, CPU: "1065G7", SGX: true},
		{Kind: service.KindDefenseEval, CPU: "12400F", Defense: service.DefenseFLARE},
	}
}

// workloads lists the benchmark's workloads by name. The reasons for each
// are in README.md and BENCHMARK.json.
var workloads = []*workload{
	{
		// Every acquire after warm-up hits a parked session (14 victim
		// keys, within the 16-session idle cap): restore + execute only.
		name: "spatial-hot", clients: 2, jobsPerSec: 500,
		specs: spatialSpecs(),
		plan:  hotPlan(2),
	},
	{
		// A fresh victim per job: every acquire boots and calibrates.
		name: "spatial-cold", clients: 2, jobsPerSec: 230, segment: 128,
		specs: spatialSpecs(),
		plan:  coldPlan,
	},
	{
		// The full default mix over a zipfian victim pool far larger than
		// the session cache: cache policy decides the hit rate.
		name: "mixed-zipf", clients: 2, jobsPerSec: 270,
		specs: service.DefaultMix(),
		plan:  zipfPlan(16, 1.07),
	},
	{
		// Stateful temporal windows: a snapshot write after every job.
		name: "temporal-stateful", clients: 2, jobsPerSec: 1000,
		specs: []service.JobSpec{
			{Kind: service.KindBehaviorSpy, CPU: "1065G7", DurationSec: 10},
			{Kind: service.KindAppFingerprint, CPU: "1065G7", App: "fps-game"},
		},
		plan: hotPlan(4),
	},
	{
		// One job in flight: latency is the sweep, split over ScanWorkers.
		name: "sweep-solo", clients: 1, jobsPerSec: 30,
		specs: []service.JobSpec{
			{Kind: service.KindWindows, CPU: "12400F"},
			{Kind: service.KindModules, CPU: "1065G7"},
			{Kind: service.KindKernelBase, CPU: "5600X"},
		},
		plan: hotPlan(2),
	},
}

// workloadByName returns the named workload.
func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// victimBase derives the first victim seed of a run from the benchmark
// seed, so that another seed scans other victims. Victims are base+i; the
// top bit is left clear so base+i never wraps.
func victimBase(seed uint64) uint64 {
	return rng.New(seed^0xbe7c4a11).Uint64() >> 1
}

// specOrder returns the spec of each of n jobs: consecutive blocks of
// `specs` jobs, each a seeded random permutation of the mix. Every block
// runs the whole mix once, and the order changes from block to block, so
// the clients do not fall into lock-step on the same kinds of job (which
// would make a run's throughput depend on how they happened to align).
func specOrder(seed uint64, n, specs int) []int {
	src := rng.New(seed ^ 0x5bec0dde)
	order := make([]int, 0, n+specs)
	for len(order) < n {
		order = append(order, src.Perm(specs)...)
	}
	return order[:n]
}

// hotPlan runs the mix over a fixed pool of victims, block by block: block
// b goes to victim b mod victims, and victim v belongs to client v mod
// clients. The warm-up runs one job per (spec, victim) pair, so the
// measured phase only reuses sessions.
func hotPlan(victims int) func(w *workload, seed uint64, jobs int) plan {
	return func(w *workload, seed uint64, jobs int) plan {
		base := victimBase(seed)
		var p plan
		for v := 0; v < victims; v++ {
			for s := range w.specs {
				p.warmup = append(p.warmup, job{s, base + uint64(v)})
			}
		}
		p.clients = make([][]job, w.clients)
		for i, s := range specOrder(seed, jobs, len(w.specs)) {
			v := (i / len(w.specs)) % victims
			c := v % w.clients
			p.clients[c] = append(p.clients[c], job{s, base + uint64(v)})
		}
		return p
	}
}

// coldPlan gives every measured job a victim of its own; the warm-up runs
// one job per spec on victims after the measured range.
func coldPlan(w *workload, seed uint64, jobs int) plan {
	base := victimBase(seed)
	p := plan{clients: make([][]job, w.clients)}
	for i, s := range specOrder(seed, jobs, len(w.specs)) {
		p.clients[i%w.clients] = append(p.clients[i%w.clients], job{s, base + uint64(i)})
	}
	for s := range w.specs {
		p.warmup = append(p.warmup, job{s, base + uint64(jobs+s)})
	}
	return p
}

// zipfPlan draws each measured job's victim from a zipf law with exponent
// s over a pool of victims. Victims are handed to clients greedily by job
// count, heaviest first, to the client with the fewest jobs so far, which
// keeps the clients balanced while each victim stays with one client. The
// warm-up runs one job per spec on victims outside the pool.
func zipfPlan(victims int, s float64) func(w *workload, seed uint64, jobs int) plan {
	return func(w *workload, seed uint64, jobs int) plan {
		base := victimBase(seed)
		cdf := make([]float64, victims)
		var total float64
		for r := range cdf {
			total += 1 / math.Pow(float64(r+1), s)
			cdf[r] = total
		}
		src := rng.New(seed ^ 0x21bfa90d)
		draw := make([]int, jobs)
		count := make([]int, victims)
		for i := range draw {
			draw[i] = sort.SearchFloat64s(cdf, src.Float64()*total)
			count[draw[i]]++
		}
		byCount := make([]int, victims)
		for v := range byCount {
			byCount[v] = v
		}
		sort.SliceStable(byCount, func(a, b int) bool { return count[byCount[a]] > count[byCount[b]] })
		owner := make([]int, victims)
		load := make([]int, w.clients)
		for _, v := range byCount {
			c := 0
			for k := range load {
				if load[k] < load[c] {
					c = k
				}
			}
			owner[v] = c
			load[c] += count[v]
		}
		p := plan{clients: make([][]job, w.clients)}
		order := specOrder(seed, jobs, len(w.specs))
		for i, v := range draw {
			c := owner[v]
			p.clients[c] = append(p.clients[c], job{order[i], base + uint64(v)})
		}
		for sp := range w.specs {
			p.warmup = append(p.warmup, job{sp, base + uint64(victims+sp)})
		}
		return p
	}
}
