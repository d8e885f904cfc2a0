package core

import (
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/machine"
	"repro/internal/paging"
	"repro/internal/rng"
)

// Every sweep in the reproduction runs through sweep: the large
// virtual-address sweeps (kernel base, module region, the Windows
// 2^18-slot region, the fused §IV-F user scan, the AMD walk-termination
// sweep) and the temporal sweep of the §IV-E attacks, whose probe index is
// a spy tick rather than a page. A sweep partitions its index range [0, n)
// into fixed-size chunks and fans them out across workers through one
// atomic chunk counter; each worker owns a private probing context (the
// prober itself, or a calibrated replica on a machine clone drawn from a
// ScanPool), so workers never contend on shared mutable state.
//
// Worker contract. A sweepWorker is three calls: Start resets it for one
// chunk, ProbeChunk probes the chunk straight into its disjoint windows of
// the shared result slices (the address workers feed the whole chunk to
// one batch window of their prober; the spy worker loops over its ticks),
// and Elapsed reports the simulated cycles the chunk cost. The heal pass
// re-probes, through the worker type's HealProbe method, every index whose
// verdict disagrees with a neighbour; the sweeps whose true signal is
// isolated singletons (the AMD 4 KiB-slot sweep) and the temporal sweep
// pass no HealProbe, and a worker type without one cannot be passed.
//
// Determinism. Output is bit-identical for a fixed seed at any worker
// count, whichever workers (new or pooled replicas) run which chunks:
//
//  1. Per-chunk state reset. Start is called before each chunk with a seed
//     derived only from (sweep seed, chunk index); the worker resets its
//     translation caches and reseeds its noise, so a chunk's measurements
//     depend only on the chunk, never on which worker ran it, what it
//     probed before, or which earlier sweeps it served.
//  2. Deterministic merge. Workers write disjoint index ranges of the
//     result slices, simulated cycles are summed with commutative integer
//     addition, and the heal pass runs after the merge, single-threaded in
//     ascending index order on its own seeded stream.
//
// The per-chunk reset charges no attacker time: sharding models a faster
// host, not a different attack.
//
// Zero allocation per probe. The temporal sweep runs thousands of ticks
// per window, each replaying victim events and probing every target's
// leading pages; three ownership rules keep the per-tick path free of
// allocations (alloc-guard tests pin it):
//
//  1. Walk scratch belongs to the machine the events run on: a victim
//     event (machine.KernelTouch) walks with its machine's own buffer, so
//     a stateless driver replaying disjoint windows on N replicas
//     (behavior.Driver.ReplayWindow) touches N private scratches.
//  2. Probe scratch belongs to the (pooled) prober: a tick's per-target
//     page sweep goes through one batched probe into prober-owned windows.
//  3. The fan-out allocates per sweep, not per worker: the shard
//     goroutines share one argument-less closure and pick their worker off
//     a shared atomic index, so what remains per worker is the worker
//     struct itself.

// Shard granularities, in probe indices: chunkPages pages for the address
// sweeps (large enough to amortize the per-chunk reset, small enough that
// a 512-slot kernel scan still splits across workers) and tickChunk ticks
// for the temporal sweep (so a 100-tick Figure 6 window still fans out).
const (
	chunkPages = 128
	tickChunk  = 8
)

// healSamples is the heal pass's re-probe count: min-of-3, the paper's
// second pass.
const healSamples = 3

// sweepWorker is one shard's probing context. A worker is used by one
// goroutine at a time; distinct workers run concurrently.
type sweepWorker[V comparable] interface {
	// Start resets the worker for one chunk: translation caches emptied and
	// the noise stream reseeded from chunkSeed, so the chunk's measurements
	// are a pure function of (shared victim state, chunkSeed).
	Start(chunkSeed uint64)
	// ProbeChunk probes the indices [lo, hi) — index i at start + i*stride
	// for address sweeps, tick i for the temporal one — writing index i's
	// verdict and decision measurement to verdicts[i-lo] and cycles[i-lo].
	ProbeChunk(start paging.VirtAddr, stride uint64, lo, hi int, verdicts []V, cycles []float64)
	// Elapsed returns the simulated cycles consumed since the last Start.
	Elapsed() uint64
}

// healFunc is a worker type's HealProbe method (as a method expression such
// as (*mappedWorker).HealProbe): given a disagreeing index's VA and its
// first-pass outcome, it returns the healed one — for a single-measurement
// verdict the minimum of samples re-probes merged with the first-pass value
// and re-classified; the fused user scan re-derives its two-channel
// verdict.
type healFunc[V comparable, W any] func(w W, va paging.VirtAddr, samples int, cycles float64, v V) (float64, V)

// sweep probes n indices from start at the given stride across workers and
// returns the merged verdicts, decision measurements and total simulated
// cycles (the single attacker's probing time; parallelism is host-side
// only). Chunk c runs on whichever worker takes it next, after
// Start(streamSeed(seed, c)). A non-nil heal then re-probes, on workers[0]
// with stream chunks+1, every index whose verdict disagrees with a
// neighbour. Workers beyond the chunk count stay idle; n > 0 needs at
// least one worker.
func sweep[V comparable, W sweepWorker[V]](workers []W, seed uint64, start paging.VirtAddr, n int, stride uint64,
	chunk int, heal healFunc[V, W]) ([]V, []float64, uint64) {
	verdicts, cycles := make([]V, n), make([]float64, n)
	if n <= 0 {
		return verdicts, cycles, 0
	}
	chunks := (n + chunk - 1) / chunk

	// One shared fan-out state and ONE shard-body closure for all workers:
	// spawning `go body()` with no arguments allocates nothing per worker
	// (each goroutine picks its worker off the shared index), where a
	// per-iteration closure — or a `go f(arg)` arg frame — costs heap
	// allocations per worker per sweep.
	var sh struct {
		widx, next atomic.Int64
		sim        atomic.Uint64
		wg         sync.WaitGroup
	}
	body := func() {
		defer sh.wg.Done()
		wk := workers[sh.widx.Add(1)-1]
		var local uint64
		for {
			c := int(sh.next.Add(1)) - 1
			if c >= chunks {
				break
			}
			lo := c * chunk
			hi := min(lo+chunk, n)
			wk.Start(streamSeed(seed, uint64(c)))
			wk.ProbeChunk(start, stride, lo, hi, verdicts[lo:hi], cycles[lo:hi])
			local += wk.Elapsed()
		}
		sh.sim.Add(local)
	}
	sh.wg.Add(len(workers))
	for range workers {
		go body()
	}
	sh.wg.Wait()
	sim := sh.sim.Load()
	if heal == nil {
		return verdicts, cycles, sim
	}

	// The heal pass re-probes isolated flips AND run edges. Interrupt
	// spikes produce misreads that either split a module or image run in
	// two (isolated flip) or silently shorten a run by one (edge flip: the
	// misread agrees with the unmapped side, so an isolated-only rule never
	// catches it and an exact-run-length signature match fails). Genuine
	// boundaries are stable under the re-probe: noise is additive, so the
	// minimum converges to the true class latency and the verdict stands.
	w := workers[0]
	w.Start(streamSeed(seed, uint64(chunks)+1))
	for i := 0; i < n; i++ {
		left := i > 0 && verdicts[i-1] != verdicts[i]
		right := i < n-1 && verdicts[i+1] != verdicts[i]
		if !(left || right) {
			continue
		}
		va := start + paging.VirtAddr(uint64(i)*stride)
		cycles[i], verdicts[i] = heal(w, va, healSamples, cycles[i], verdicts[i])
	}
	return verdicts, cycles, sim + w.Elapsed()
}

// postSweepStream is the stream id reserved for the canonical post-sweep
// state (the parent machine's noise reseed after a sweep). No sweep can
// reach it: chunk streams use ids 0..chunks-1 and the heal pass chunks+1,
// both bounded by the probe count.
const postSweepStream = ^uint64(0) - 1

// streamSeed derives the noise seed of one stream of a sweep from the
// sweep seed with a SplitMix64-style finalizer, so streams are
// statistically independent yet a pure function of (seed, stream id) — and
// distinct ids never collide (the id map is injective and the finalizer a
// bijection).
func streamSeed(seed, stream uint64) uint64 {
	z := seed + 0x9e3779b97f4a7c15*(stream+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// ScanPool is a session-persistent pool of worker prober replicas for
// sharded sweeps. Construct one per session (CLI run, experiment
// sweep, evaluation harness) and share it through Options.Pool: the first
// scan clones its workers, every later scan — even against a different
// victim machine — rebinds and reuses them, amortizing the machine clone
// cost (its TLB, paging-structure and PTE-line caches) across the whole
// run. A prober with Workers >= 1 and no Pool creates its own pool on its
// first sharded scan. The pool holds whole *Prober replicas, not bare
// machines: each replica carries its batch scratch buffers (masked-op
// slices, measurement windows) across scans, so a pooled re-scan's
// allocations stop growing with the worker count. Scans stay bit-identical
// to sequential runs whichever replicas serve them, because every worker
// is noise-reseeded and translation-reset per chunk regardless of its
// history.
//
// Concurrent scans may share one pool (each replica is handed to exactly
// one scan at a time), but a single Prober must not run two scans
// concurrently.
type ScanPool struct {
	mu   sync.Mutex
	free []*Prober
	made int
}

// NewScanPool creates an empty pool.
func NewScanPool() *ScanPool { return &ScanPool{} }

// Replicas returns how many worker replicas the pool has ever cloned
// (steady-state scanning must not grow it).
func (sp *ScanPool) Replicas() int {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return sp.made
}

// get returns a prober replica bound to parent's current machine state and
// calibration: a free one rebound to parent, or a new clone seeded with
// the pool-wide creation ordinal. The clone runs outside the pool lock, so
// concurrent scans can clone machines in parallel.
func (sp *ScanPool) get(parent *Prober, seed uint64) *Prober {
	sp.mu.Lock()
	if n := len(sp.free); n > 0 {
		rp := sp.free[n-1]
		sp.free[n-1] = nil
		sp.free = sp.free[:n-1]
		sp.mu.Unlock()
		rp.M.Rebind(parent.M)
		rp.adopt(parent)
		return rp
	}
	ord := sp.made
	sp.made++
	sp.mu.Unlock()
	return parent.CloneTo(parent.M.Clone(seed + uint64(ord)))
}

// put parks a replica in the pool after a scan, unbound from the victim so
// an idle pool does not pin a discarded machine's page tables and memory
// (the next get's Rebind restores the references).
func (sp *ScanPool) put(rp *Prober) {
	rp.M.Unbind()
	sp.mu.Lock()
	sp.free = append(sp.free, rp)
	sp.mu.Unlock()
}

// adopt re-targets a pooled prober replica at parent's calibration and
// options (the prober-level counterpart of machine.Rebind): thresholds are
// a property of the preset and noise model, so copying them is all a
// replica needs to probe for a new parent — its scratch buffers stay.
func (rp *Prober) adopt(parent *Prober) {
	rp.Opt = parent.Opt
	rp.Threshold = parent.Threshold
	rp.StoreThreshold = parent.StoreThreshold
	rp.calibrated = parent.calibrated
	rp.scratchVA = parent.scratchVA
}

// CloneTo creates a prober on a machine replica, inheriting this prober's
// calibrated thresholds and options without recalibrating. Calibration maps
// and unmaps scratch pages — a mutation the shared address space of a
// replica must not see — and the thresholds are a property of the preset
// and noise model, not of the machine instance, so reusing them is exactly
// what a real attacker's single calibration amortized over many probing
// threads would do.
func (p *Prober) CloneTo(m *machine.Machine) *Prober {
	return &Prober{
		M:              m,
		Opt:            p.Opt,
		Threshold:      p.Threshold,
		StoreThreshold: p.StoreThreshold,
		calibrated:     p.calibrated,
		scratchVA:      p.scratchVA,
	}
}

// releaseReplicas folds the workers' state back into the parent after a
// scan — faults and performance counters, so RDTSC/PMC-based accounting in
// the attack drivers is unchanged — and returns the replicas to the pool
// for the next scan.
func (p *Prober) releaseReplicas(replicas []*Prober) {
	for _, rp := range replicas {
		p.faults += rp.faults
		p.M.Counters.Merge(rp.M.Counters)
		rp.faults = 0
		rp.M.Counters.Reset()
		p.Opt.Pool.put(rp)
	}
}

// workerBase implements the sweepWorker chunk lifecycle shared by every
// sweep type: per-chunk noise reseed + translation reset (the determinism
// contract) and simulated-cycle accounting.
type workerBase struct {
	p  *Prober
	t0 uint64
}

func (w *workerBase) Start(chunkSeed uint64) {
	w.p.M.ReseedNoise(chunkSeed)
	w.p.M.ResetTranslationState()
	w.t0 = w.p.M.RDTSC()
}

func (w *workerBase) Elapsed() uint64 { return w.p.M.RDTSC() - w.t0 }

// mappedWorker probes with the double-execution page-table attack (P2):
// verdict = "translation resolved fast" (mapped).
type mappedWorker struct{ workerBase }

// ProbeChunk hands the whole chunk to the batched probe primitive; the
// verdict window doubles as the fast-flag buffer, so results land directly
// in the sweep's per-shard result windows.
func (w *mappedWorker) ProbeChunk(start paging.VirtAddr, stride uint64, lo, hi int,
	verdicts []bool, cycles []float64) {
	w.p.probeBatchWindow(false, start, stride, lo, hi, nil, cycles, verdicts)
}

// HealProbe merges the minimum of samples re-probes with the first-pass
// measurement and re-classifies it.
func (w *mappedWorker) HealProbe(va paging.VirtAddr, samples int, cycles float64, _ bool) (float64, bool) {
	best := cycles
	for s := 0; s < samples; s++ {
		if pr := w.p.ProbeMapped(va); pr.Cycles < best {
			best = pr.Cycles
		}
	}
	return best, w.p.Threshold.Classify(best)
}

func storeClass(fast bool) PermClass {
	if fast {
		return PermWritable
	}
	return PermReadable
}

// fusedWorker mounts the fused §IV-F user scan: a single sweep whose
// verdict carries both the load (mapped) and store (writable)
// classification per VA, replacing the two serialized sweeps. Each
// chunk runs a load sub-pass over every page and then a store sub-pass over
// the pages the load sub-pass read as mapped — one pass over the range,
// one chunk setup, and the store warm-ups reuse the translations the load
// probes just installed (the simulated attacker pays fewer walks than the
// two-pass scan, exactly like a real pipelined attacker would).
//
// Determinism: the chunk's load and store measurements draw from two
// separate noise streams derived from the chunk seed, so a page's store
// noise does not depend on how many pages before it were mapped — the
// sweep stays bit-identical at any worker count.
type fusedWorker struct {
	workerBase
	loadNoise  rng.Source
	storeNoise rng.Source
	// fb and lo expose the load sub-pass's fast flags to storeSkip (built
	// once as a method value so per-chunk probing allocates nothing).
	fb          []bool
	lo          int
	storeSkipFn func(int) bool
	// loadSim and storeSim split the sweep's simulated cycles by sub-pass
	// (the paper reports the §IV-F load and store runtimes separately);
	// they are shared by all workers of one scan and summed commutatively,
	// so the split is as worker-count-invariant as the verdicts.
	loadSim, storeSim *atomic.Uint64

	// Every noise draw writes loadNoise or storeNoise, and a scan builds
	// its workers back to back, so the struct is padded to a whole number
	// of 64-byte lines (a test pins it): no two workers share a line.
	_ [40]byte
}

func newFusedWorker(rp *Prober, loadSim, storeSim *atomic.Uint64) *fusedWorker {
	w := &fusedWorker{workerBase: workerBase{p: rp}, loadSim: loadSim, storeSim: storeSim}
	w.storeSkipFn = w.storeSkip
	return w
}

// Start derives the chunk's two noise streams and resets translation state.
// The machine's own stream is left untouched; ProbeChunk and HealProbe swap
// the sub-pass streams in and out around their measurements.
func (w *fusedWorker) Start(chunkSeed uint64) {
	w.loadNoise.Reseed(streamSeed(chunkSeed, 0))
	w.storeNoise.Reseed(streamSeed(chunkSeed, 1))
	w.p.M.ResetTranslationState()
	w.t0 = w.p.M.RDTSC()
}

// storeSkip reports whether the store sub-pass skips index i: the load
// sub-pass read it as unmapped.
func (w *fusedWorker) storeSkip(i int) bool { return !w.fb[i-w.lo] }

func (w *fusedWorker) ProbeChunk(start paging.VirtAddr, stride uint64, lo, hi int,
	verdicts []PermClass, cycles []float64) {
	p := w.p
	fb := p.fastWindow(hi - lo)
	t0 := p.M.RDTSC()
	orig := p.M.SwapNoise(&w.loadNoise)
	w.fb, w.lo = fb, lo
	pos := p.probeBatchWindow(false, start, stride, lo, hi, nil, cycles, fb)
	for _, j := range pos {
		if !fb[j] {
			verdicts[j] = PermUnmapped
		}
	}
	t1 := p.M.RDTSC()
	w.loadSim.Add(t1 - t0)

	// Store sub-pass over the load-fast pages, on the chunk's store stream.
	// probeBatchWindow consults the skip function for every index before it
	// writes any store fast flag back into fb, so reusing fb is safe. A
	// mapped page's Cycles entry becomes its store measurement — the
	// measurement its final verdict was derived from.
	p.M.SwapNoise(&w.storeNoise)
	spos := p.probeBatchWindow(true, start, stride, lo, hi, w.storeSkipFn, cycles, fb)
	for _, j := range spos {
		verdicts[j] = storeClass(fb[j])
	}
	p.M.SwapNoise(orig)
	w.storeSim.Add(p.M.RDTSC() - t1)
}

// HealProbe re-decides one disagreeing page with min-of-samples re-probes
// of both sub-probes: first the load decision (merging the first-pass value
// only when it is load evidence — an unmapped verdict's cycles are its load
// measurement, a mapped verdict's are its store measurement), then, for
// pages that heal to mapped, the store classification.
func (w *fusedWorker) HealProbe(va paging.VirtAddr, samples int, cycles float64, v PermClass) (float64, PermClass) {
	p := w.p
	t0 := p.M.RDTSC()
	orig := p.M.SwapNoise(&w.loadNoise)
	best := math.Inf(1)
	if v == PermUnmapped {
		best = cycles
	}
	for s := 0; s < samples; s++ {
		if pr := p.ProbeMapped(va); pr.Cycles < best {
			best = pr.Cycles
		}
	}
	t1 := p.M.RDTSC()
	w.loadSim.Add(t1 - t0)
	if !p.Threshold.Classify(best) {
		p.M.SwapNoise(orig)
		return best, PermUnmapped
	}
	p.M.SwapNoise(&w.storeNoise)
	sbest := math.Inf(1)
	if v != PermUnmapped {
		sbest = cycles
	}
	for s := 0; s < samples; s++ {
		if pr := p.ProbeMappedStore(va); pr.Cycles < sbest {
			sbest = pr.Cycles
		}
	}
	p.M.SwapNoise(orig)
	w.storeSim.Add(p.M.RDTSC() - t1)
	return sbest, storeClass(p.StoreThreshold.Classify(sbest))
}

// termWorker probes with the walk-termination-level attack (P3): verdict =
// "the boundary walk reaches a PT" (a 4 KiB-structured slot).
type termWorker struct {
	workerBase
	samples   int
	threshold float64
}

// ProbeChunk batches the chunk's eviction+measure pairs through
// machine.MeasureEvictedBatch — the Zen 3 term-level sweep's counterpart of
// the mapped/store sweeps' batched chunks.
func (w *termWorker) ProbeChunk(start paging.VirtAddr, stride uint64, lo, hi int,
	verdicts []bool, cycles []float64) {
	w.p.probeTermBatchWindow(start, stride, lo, hi, w.samples, w.threshold, cycles, verdicts)
}

// runSweep runs one sweep of the prober: it shards the index range across
// Options.Workers machine replicas drawn from Options.Pool (Workers == 0
// runs one worker that *is* the prober, on its own machine), merges
// deterministically, and folds the workers' simulated probing cycles,
// performance counters and fault counts back into the prober's machine, so
// RDTSC-based runtime accounting in the attack drivers is unchanged:
// parallelism buys host wall-clock, not simulated attacker time. chunk is
// the shard granularity (chunkPages or tickChunk); heal is the worker
// type's HealProbe, or nil for a sweep without the heal pass.
//
// A worker's chunk output is a pure function of (victim state, chunk seed),
// never of which machine ran it, so the inline and replicated paths produce
// bit-identical results at every worker count for a fixed machine seed,
// whichever pooled replicas serve the chunks.
func runSweep[V comparable, W sweepWorker[V]](p *Prober, start paging.VirtAddr, n int, stride uint64,
	chunk int, wrap func(*Prober) W, heal healFunc[V, W]) ([]V, []float64) {
	p.scanEpoch++
	seed := p.M.Seed() ^ (p.scanEpoch * 0x9e3779b97f4a7c15)
	inline := p.Opt.Workers == 0
	if !inline && p.Opt.Pool == nil {
		p.Opt.Pool = NewScanPool()
	}
	// One worker per chunk at most: a spare one would cost a replica and
	// probe nothing.
	workers := make([]W, min(max(p.Opt.Workers, 1), (n+chunk-1)/chunk))
	replicas := p.replicaBuf[:0]
	for i := range workers {
		rp := p
		if !inline {
			rp = p.Opt.Pool.get(p, seed)
			replicas = append(replicas, rp)
		}
		workers[i] = wrap(rp)
	}
	verdicts, cycles, sim := sweep(workers, seed, start, n, stride, chunk, heal)
	p.releaseReplicas(replicas)
	p.replicaBuf = replicas[:0]
	if !inline {
		// Inline probing advanced the prober's clock directly; replica
		// probing happened on private clocks and is charged here.
		p.M.AdvanceCycles(sim)
	}
	// Leave the parent in the same canonical post-sweep state on every
	// path: the inline run reseeded the parent's noise and flushed its
	// translation caches per chunk, the replica run left them untouched —
	// either way the machine now gets a sweep-derived noise stream and
	// empty translation state, so *later* direct probes (the TLB attack,
	// the KPTI entry-point search) are also bit-identical across worker
	// settings, not just the sweep output itself. Architecturally this is
	// the honest state anyway: a multi-thousand-probe sweep displaces
	// every translation structure.
	p.M.ReseedNoise(streamSeed(seed, postSweepStream))
	p.M.ResetTranslationState()
	return verdicts, cycles
}

// ScanTermLevel runs the walk-termination-level sweep (P3) over n slots at
// the given stride: each slot is sampled `samples` times with targeted
// eviction and reduced by minimum, and the verdict reports whether the
// slot's boundary walk reads a PT (4 KiB-structured region). There is no
// heal pass: the AMD kernel-base signal *is* a handful of isolated
// PT-terminating slots, exactly what a neighbour-disagreement heal would
// re-probe away.
func (p *Prober) ScanTermLevel(start paging.VirtAddr, n int, stride uint64, samples int, threshold float64) ([]bool, []float64) {
	return runSweep(p, start, n, stride, chunkPages,
		func(rp *Prober) *termWorker {
			return &termWorker{workerBase: workerBase{p: rp}, samples: samples, threshold: threshold}
		}, nil)
}
