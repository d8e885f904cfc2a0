package core

import (
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/machine"
	"repro/internal/paging"
	"repro/internal/rng"
	"repro/internal/scan"
)

// ScanPool is a session-persistent pool of worker prober replicas for the
// sharded scan engine. Construct one per session (CLI run, experiment
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

// workerBase implements the scan.Worker chunk lifecycle shared by every
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
// in the engine's per-shard result windows.
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
// classification per VA, replacing the two serialized engine sweeps. Each
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
	w.loadNoise.Reseed(scan.StreamSeed(chunkSeed, 0))
	w.storeNoise.Reseed(scan.StreamSeed(chunkSeed, 1))
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

// runSweep is the one scan path every sharded sweep takes — large VA
// ranges (probe indices are pages/slots) and temporal attacks alike (probe
// indices are time ticks; see spyWorker). It shards the index
// range across Options.Workers machine replicas drawn from Options.Pool,
// merges deterministically, and folds the workers' simulated probing cycles,
// performance counters and fault counts back into the prober's machine, so
// RDTSC-based runtime accounting in the attack drivers is unchanged:
// parallelism buys host wall-clock, not simulated attacker time. chunk
// overrides the shard granularity (0 = Options.ScanChunkPages, then the
// engine default).
//
// Workers == 0 runs the identical engine semantics inline: a single worker
// that *is* the prober's own machine (no clone, no goroutine fan-out
// beyond the engine's one). Because a worker's chunk output is a pure
// function of (victim state, chunk seed) — never of which machine ran it —
// the inline and replicated paths produce bit-identical results at every
// worker count for a fixed machine seed, whichever pooled replicas serve
// the chunks.
func runSweep[V comparable](p *Prober, start paging.VirtAddr, n int, stride uint64,
	chunk int, heal int, wrap func(*Prober) scan.Worker[V]) scan.Result[V] {
	p.scanEpoch++
	seed := p.M.Seed() ^ (p.scanEpoch * 0x9e3779b97f4a7c15)
	inline := p.Opt.Workers == 0
	nw := p.Opt.Workers
	if inline {
		nw = 1
	} else if p.Opt.Pool == nil {
		p.Opt.Pool = NewScanPool()
	}
	if chunk <= 0 {
		chunk = p.Opt.ScanChunkPages
	}
	replicas := p.replicaBuf[:0]
	eng := scan.New(scan.Config{
		Workers:     nw,
		ChunkPages:  chunk,
		Seed:        seed,
		HealSamples: heal,
	}, func(int) scan.Worker[V] {
		if inline {
			return wrap(p)
		}
		rp := p.Opt.Pool.get(p, seed)
		replicas = append(replicas, rp)
		return wrap(rp)
	})
	res := eng.Scan(start, n, stride)
	p.releaseReplicas(replicas)
	p.replicaBuf = replicas[:0]
	if !inline {
		// Inline probing advanced the prober's clock directly; replica
		// probing happened on private clocks and is charged here.
		p.M.AdvanceCycles(res.SimCycles)
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
	p.M.ReseedNoise(scan.StreamSeed(seed, scan.PostSweepStream))
	p.M.ResetTranslationState()
	return res
}

// scanMapped runs the P2 mapped/unmapped sweep on the engine.
func (p *Prober) scanMapped(start paging.VirtAddr, n int, stride uint64) scan.Result[bool] {
	return runSweep(p, start, n, stride, 0, 0,
		func(rp *Prober) scan.Worker[bool] { return &mappedWorker{workerBase{p: rp}} })
}

// ScanTermLevel runs the walk-termination-level sweep (P3) over n slots at
// the given stride: each slot is sampled `samples` times with targeted
// eviction and reduced by minimum, and the verdict reports whether the
// slot's boundary walk reads a PT (4 KiB-structured region). Healing is
// disabled — the AMD kernel-base signal *is* a handful of isolated
// PT-terminating slots, exactly what a neighbour-disagreement heal would
// re-probe away.
func (p *Prober) ScanTermLevel(start paging.VirtAddr, n int, stride uint64, samples int, threshold float64) ([]bool, []float64) {
	res := runSweep(p, start, n, stride, 0, -1,
		func(rp *Prober) scan.Worker[bool] {
			return &termWorker{workerBase: workerBase{p: rp}, samples: samples, threshold: threshold}
		})
	return res.Verdicts, res.Cycles
}
