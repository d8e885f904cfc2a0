package scan

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/paging"
)

// DefaultChunkPages is the default shard granularity. Large enough that the
// per-chunk reset cost is amortized over many probes, small enough that a
// 512-slot kernel scan still splits across workers.
const DefaultChunkPages = 128

// Worker is one shard's probing context. Implementations wrap a calibrated
// prober on a private machine replica. Workers are used by one goroutine at
// a time; distinct workers run concurrently.
type Worker[V comparable] interface {
	// Start resets the worker for one chunk: translation caches emptied and
	// the noise stream reseeded from chunkSeed, so the chunk's measurements
	// are a pure function of (shared victim state, chunkSeed).
	Start(chunkSeed uint64)
	// ProbeChunk probes the indices [lo, hi) — index i at start + i*stride
	// for address sweeps, tick i for temporal ones — writing index i's
	// verdict and decision measurement to verdicts[i-lo] and cycles[i-lo],
	// windows of the engine's shared result slices.
	ProbeChunk(start paging.VirtAddr, stride uint64, lo, hi int, verdicts []V, cycles []float64)
	// Elapsed returns the simulated cycles consumed since the last Start.
	Elapsed() uint64
}

// Healer is how a worker takes part in the healing pass: the engine hands
// it each index whose verdict disagrees with a neighbour, with the
// first-pass outcome, and the worker returns the healed one — for a
// single-measurement verdict the minimum of samples re-probes merged with
// the first-pass value and re-classified; a fused probe (load + store
// classification per VA) re-derives its verdict from both channels. It
// runs single-threaded in ascending index order on the heal stream. A scan
// whose healing is enabled (Config.HealSamples >= 0) needs a worker that
// implements Healer.
type Healer[V comparable] interface {
	HealProbe(va paging.VirtAddr, samples int, cycles float64, v V) (float64, V)
}

// Factory builds the worker for one shard. It is called sequentially from
// the scanning goroutine before any worker runs, so implementations may
// clone machines (or draw replicas from a pool) without locking.
type Factory[V comparable] func(id int) Worker[V]

// Config tunes an Engine.
type Config struct {
	// Workers is the number of concurrent shards. 0 means GOMAXPROCS.
	Workers int
	// ChunkPages is the shard granularity in probe indices. 0 means
	// DefaultChunkPages.
	ChunkPages int
	// Seed derives the per-chunk noise seeds. The same Seed yields
	// bit-identical results at any worker count.
	Seed uint64
	// HealSamples is the re-probe count of the healing pass. 0 means 3
	// (min-of-3, matching the paper's second pass); negative disables
	// healing entirely — sweeps whose signal *is* isolated singletons
	// (the AMD 4 KiB-slot sweep) must not smooth them away.
	HealSamples int
}

// Engine shards scans over a VA range across workers, producing one verdict
// of type V per probed index.
type Engine[V comparable] struct {
	cfg     Config
	factory Factory[V]
}

// New creates an engine. The factory is invoked once per shard at the start
// of each Scan call.
func New[V comparable](cfg Config, factory Factory[V]) *Engine[V] {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.ChunkPages <= 0 {
		cfg.ChunkPages = DefaultChunkPages
	}
	if cfg.HealSamples == 0 {
		cfg.HealSamples = 3
	}
	return &Engine[V]{cfg: cfg, factory: factory}
}

// Result is one scan's merged output.
type Result[V comparable] struct {
	// Verdicts and Cycles hold the per-index verdicts and decision
	// measurements, index i corresponding to start + i*stride.
	Verdicts []V
	Cycles   []float64
	// SimCycles is the total simulated cycle cost of all probes (the
	// single-attacker probing time; parallelism is host-side only).
	SimCycles uint64
	// Chunks, Workers and Healed describe the run shape.
	Chunks  int
	Workers int
	Healed  int
}

// Scan probes n addresses from start at the given stride and returns the
// merged, healed result. Output is bit-identical for a fixed Config.Seed
// regardless of Config.Workers.
func (e *Engine[V]) Scan(start paging.VirtAddr, n int, stride uint64) Result[V] {
	res := Result[V]{Verdicts: make([]V, n), Cycles: make([]float64, n)}
	if n <= 0 {
		return res
	}
	chunk := e.cfg.ChunkPages
	chunks := (n + chunk - 1) / chunk
	nw := e.cfg.Workers
	if nw > chunks {
		nw = chunks
	}
	res.Chunks = chunks
	res.Workers = nw

	workers := make([]Worker[V], nw)
	for i := range workers {
		workers[i] = e.factory(i)
	}

	// One shared fan-out state and ONE shard-body closure for all workers:
	// spawning `go body()` with no arguments allocates nothing per worker
	// (each goroutine picks its worker off the shared index), where a
	// per-iteration closure — or a `go f(arg)` arg frame — used to cost ~3
	// heap allocations per worker per scan. Result slices are captured by
	// value (never reassigned), so the fan-out's only per-scan allocations
	// are the shared-state box and the closure itself.
	var sh struct {
		widx, next atomic.Int64
		sim        atomic.Uint64
		wg         sync.WaitGroup
	}
	verdicts, cycles := res.Verdicts, res.Cycles
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
			hi := lo + chunk
			if hi > n {
				hi = n
			}
			wk.Start(StreamSeed(e.cfg.Seed, uint64(c)))
			// The worker owns the whole chunk: it writes straight into its
			// disjoint window of the shared result slices.
			wk.ProbeChunk(start, stride, lo, hi, verdicts[lo:hi], cycles[lo:hi])
			local += wk.Elapsed()
		}
		sh.sim.Add(local)
	}
	sh.wg.Add(nw)
	for w := 0; w < nw; w++ {
		go body()
	}
	sh.wg.Wait()
	res.SimCycles = sh.sim.Load()

	if e.cfg.HealSamples > 0 {
		e.heal(&res, start, n, stride, workers[0])
	}
	return res
}

// heal re-probes every index whose verdict disagrees with a neighbour —
// isolated flips AND run edges — through the worker's Healer. Interrupt
// spikes produce misreads that either split a module or image run in two
// (isolated flip) or silently shorten a run by one (edge flip: the misread
// agrees with the unmapped side, so an isolated-only rule never catches it
// and an exact-run-length signature match fails). Genuine boundaries are
// stable under the re-probe: noise is additive, so the minimum converges to
// the true class latency and the verdict stands. The pass runs
// single-threaded in ascending index order on a chunk-independent seed, so
// its output depends only on the merged first-pass result.
func (e *Engine[V]) heal(res *Result[V], start paging.VirtAddr, n int, stride uint64, w Worker[V]) {
	h, ok := w.(Healer[V])
	if !ok {
		panic("scan: healing is enabled but the worker does not implement Healer")
	}
	w.Start(StreamSeed(e.cfg.Seed, uint64(res.Chunks)+1))
	for i := 0; i < n; i++ {
		left := i > 0 && res.Verdicts[i-1] != res.Verdicts[i]
		right := i < n-1 && res.Verdicts[i+1] != res.Verdicts[i]
		if !(left || right) {
			continue
		}
		va := start + paging.VirtAddr(uint64(i)*stride)
		res.Cycles[i], res.Verdicts[i] = h.HealProbe(va, e.cfg.HealSamples, res.Cycles[i], res.Verdicts[i])
		res.Healed++
	}
	res.SimCycles += w.Elapsed()
}

// PostSweepStream is the stream id reserved for the caller's canonical
// post-sweep state (the parent machine's noise reseed after a sweep). No
// scan can reach it: chunk streams use ids 0..chunks-1 and the healing
// pass chunks+1, both bounded by the probe count.
const PostSweepStream = ^uint64(0) - 1

// StreamSeed derives the noise seed of one stream of a scan from the
// engine seed with a SplitMix64-style finalizer, so streams are
// statistically independent yet a pure function of (seed, stream id) —
// and distinct ids never collide (the id map is injective and the
// finalizer a bijection). Chunks use their index as the id; the healing
// pass uses chunks+1; PostSweepStream is reserved for callers.
func StreamSeed(seed, stream uint64) uint64 {
	z := seed + 0x9e3779b97f4a7c15*(stream+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
