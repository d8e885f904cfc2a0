package core

import (
	"fmt"
	"runtime"
	"sort"

	"repro/internal/avx"
	"repro/internal/fault"
	"repro/internal/machine"
	"repro/internal/paging"
	"repro/internal/stats"
)

// ScratchBase is where the prober mmaps its calibration pages: an arbitrary
// unused spot in the attacker's own address space.
const ScratchBase paging.VirtAddr = 0x7e0000000000

// Estimator selects how a probe reduces its k measurement samples to one
// decision value.
type Estimator int

// Estimators.
const (
	// EstMin takes the minimum — the classic timing-channel estimator
	// (latency noise is mostly additive), and the paper's choice.
	EstMin Estimator = iota
	// EstTrimmedMean drops the top quartile (interrupt spikes) and
	// averages the rest. Under heavy symmetric jitter it concentrates as
	// 1/√k where the minimum saturates; the robustness tests and the
	// estimator ablation use it.
	EstTrimmedMean
)

// Options tunes the prober. The zero value is the paper's configuration.
type Options struct {
	// CalibrationPages is how many fresh pages the dirty-store calibration
	// samples (one first-store per page). 0 means 256.
	CalibrationPages int
	// ProbeSamples is how many second-execution measurements each probe
	// takes before reduction. 0 means 1 (the paper's double-execution
	// probe measures the second run once).
	ProbeSamples int
	// Estimator reduces the sample set (default EstMin).
	Estimator Estimator
	// TwoSided calibrates the threshold as the midpoint between the
	// fast class (dirty-store trick) and a slow-class sample taken on the
	// attacker's own *unmapped* scratch addresses, instead of the paper's
	// one-sided fast-median-plus-margin. More robust when jitter is
	// comparable to the class gap.
	TwoSided bool
	// Margin is added to the one-sided calibrated threshold, in cycles.
	// 0 means 4 (widened automatically to 3σ of the calibration sample).
	Margin float64
	// ExtraJitterSigma adds timer jitter (SGX counting-thread fallback).
	ExtraJitterSigma float64
	// Workers sets the host parallelism of every sweep (ScanMapped, the
	// fused §IV-F user scan, the AMD term-level sweep, the §IV-E tick
	// sweep), which all run through runSweep. 0 runs the sweep inline on
	// the prober's own machine (sequential, no replicas); any value >= 1
	// fans chunks out across that many worker machine replicas;
	// negative means "all CPUs" (normalized to runtime.NumCPU by
	// withDefaults). Output is bit-identical at every setting for a fixed
	// machine seed — worker count buys host wall-clock, never different
	// results.
	Workers int
	// Pool is the session-persistent pool sharded sweeps draw their worker
	// prober replicas (calibrated probers on machine replicas, with their
	// batch scratch) from when Workers >= 1. Construct one ScanPool per
	// session and share it across probers (and victims); nil gives the
	// prober its own pool on its first sharded scan. Output does not
	// depend on which pool, or which of its replicas, serves a scan.
	Pool *ScanPool
}

func (o Options) withDefaults() Options {
	if o.CalibrationPages == 0 {
		o.CalibrationPages = 256
	}
	if o.ProbeSamples == 0 {
		o.ProbeSamples = 1
	}
	if o.Margin == 0 {
		o.Margin = 4
	}
	if o.Workers < 0 {
		o.Workers = runtime.NumCPU()
	}
	return o
}

// Prober owns a calibrated measurement context on one machine.
type Prober struct {
	M   *machine.Machine
	Opt Options

	// Threshold separates "translation resolved fast" (mapped + TLB hit)
	// from "walk + assist" timings; calibrated per §IV-B from the
	// dirty-bit masked-store time on the attacker's own pages.
	Threshold stats.Threshold

	// StoreThreshold separates the assist-free store path (writable
	// destination) from the store-assist path (read-only destination),
	// for the permission attack (P5). Calibrated as the midpoint between
	// zero-mask stores on the attacker's own rw- pages and the dirty-
	// assist store sample.
	StoreThreshold stats.Threshold

	// calibrated is set after Calibrate.
	calibrated bool
	scratchVA  paging.VirtAddr
	faults     int

	// sortBuf is the trimmed-mean reduction's scratch, reused so the
	// reduction does not allocate per probe.
	sortBuf []float64
	// scanEpoch salts the sweep seed per sweep so consecutive sweeps on one
	// prober draw independent noise.
	scanEpoch uint64

	// Batch scratch, reused across chunks (and, via the prober pool, across
	// scans): the masked-op slice handed to machine.MeasureBatch, the
	// window-relative positions of the probed ops, the raw per-sample
	// measurements, the reduced decision values, and the per-window fast
	// flags. Sized to the largest window the prober has probed (rounded up
	// by lineSlice). The first four live only for one window call;
	// batchFast (and tickCyc) are result windows callers hold across calls,
	// so the per-VA probes never write into them.
	batchOps  []avx.Op
	batchPos  []int
	batchMeas []float64
	batchVals []float64
	batchFast []bool
	// tickCyc backs the temporal ticks' per-target measurement window (see
	// tickWindows); it must be distinct from batchMeas, which ProbeTLBBatch
	// uses for the raw measurements the window is reduced from.
	tickCyc []float64
	// replicaBuf backs runSweep's per-scan replica list (a Prober runs one
	// scan at a time, so one buffer suffices).
	replicaBuf []*Prober

	// Every batch writes faults, and a pool's replicas are built back to
	// back and probe at once, so the struct is padded to a whole number
	// of 64-byte lines (a test pins it): no two probers share a line.
	_ [40]byte
}

// NewProber creates and calibrates a prober.
func NewProber(m *machine.Machine, opt Options) (*Prober, error) {
	p := &Prober{M: m, Opt: opt.withDefaults(), scratchVA: ScratchBase}
	if err := p.Calibrate(); err != nil {
		return nil, err
	}
	return p, nil
}

// Calibrate determines the mapped/unmapped decision threshold using the
// paper's trick (§IV-B): the first masked store to a clean (D=0) writable
// user page takes a Dirty-bit microcode assist whose latency matches the
// masked-load latency on a kernel-mapped page. Sampling our *own* pages
// therefore yields the fast-class mean without touching kernel memory.
func (p *Prober) Calibrate() error {
	if err := p.M.Fire(fault.Calibrate); err != nil {
		return fmt.Errorf("core: calibration: %w", err)
	}
	n := p.Opt.CalibrationPages
	length := uint64(n) * paging.Page4K
	if err := p.M.MapUser(p.scratchVA, length, paging.Writable); err != nil {
		return fmt.Errorf("core: calibration mmap: %w", err)
	}
	// Raw dirty-store timings, one per fresh page; they are reduced in
	// groups of ProbeSamples with the probe estimator so that the
	// threshold lives on the same scale as the reduced probe values.
	fastRaw := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		va := p.scratchVA + paging.VirtAddr(i*paging.Page4K)
		// Pre-touch with a load so the translation is TLB-resident and
		// only the dirty assist contributes (isolates the assist time).
		p.M.ExecMasked(avx.MaskedLoad(va, avx.AllMask(8)))
		t, r := p.M.Measure(avx.MaskedStore(va, avx.AllMask(8)))
		if r.Faulted {
			return fmt.Errorf("core: unexpected fault during calibration at %#x", uint64(va))
		}
		fastRaw = append(fastRaw, t)
	}
	fast := p.reduceGroups(fastRaw)
	// Zero-mask stores on our own (now dirty) rw- pages sample the
	// assist-free store path for the permission attack's threshold.
	storeRaw := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		va := p.scratchVA + paging.VirtAddr(i*paging.Page4K)
		t, r := p.M.Measure(avx.MaskedStore(va, avx.ZeroMask))
		if r.Faulted {
			return fmt.Errorf("core: unexpected fault during store calibration at %#x", uint64(va))
		}
		storeRaw = append(storeRaw, t)
	}
	storeFast := p.reduceGroups(storeRaw)
	if err := p.M.UnmapUser(p.scratchVA, length); err != nil {
		return fmt.Errorf("core: calibration munmap: %w", err)
	}

	if p.Opt.TwoSided {
		// Slow-class sample: the scratch addresses are unmapped now, so
		// probing them times the walk+assist path without touching any
		// foreign memory.
		// One timed load per page, no warm-up: the TLB attack's op
		// sequence.
		slowRaw := make([]float64, n)
		p.ProbeTLBBatch(p.scratchVA, n, paging.Page4K, slowRaw, make([]bool, n))
		slow := p.reduceGroups(slowRaw)
		// 0.3 of the way to the slow class: first-fast-slot scans give
		// the slow class ~500 error opportunities against the fast
		// class's one, so the threshold hugs the fast class.
		p.Threshold = stats.CalibrateFraction(fast, slow, 0.3)
	} else {
		// One-sided (the paper's §IV-B threshold): fast-class median plus
		// a margin that adapts to the measured jitter — ~1 cycle on a
		// quiet desktop (margin stays at the configured minimum), several
		// cycles on a noisy cloud guest. 3σ of the trimmed sample is the
		// attacker-observable estimate.
		margin := p.Opt.Margin
		if s := 3 * fast.Trimmed(0, 0.98).Std(); s > margin {
			margin = s
		}
		p.Threshold = stats.CalibrateOffset(fast, margin)
	}
	p.StoreThreshold = stats.CalibrateMidpoint(storeFast, fast)
	// Leave the machine in the canonical empty-translation state (the same
	// state runSweep restores after every sweep): calibration mapped,
	// touched and unmapped hundreds of scratch pages, so the honest
	// post-calibration state has every translation structure displaced
	// anyway — and a canonical state makes everything probed after
	// calibration a pure function of (victim image, machine seed), not of
	// calibration internals. This is also what lets a calibration cache
	// replay the post-calibration state on a fresh victim replica exactly
	// (see NewProberFromCalibration).
	p.M.ResetTranslationState()
	p.calibrated = true
	return nil
}

// SessionState snapshots the attack-visible state of a prober and its
// machine: the full machine.Snapshot (clock, noise-stream position,
// counters, translation-cache contents, user write shadow) plus the
// prober's fault count and scan epoch. A service session captures it after
// calibration — and, for stateful attacks like the §IV-E behavior spy,
// again after every job — and restores it before the next job, so each job
// starts from exactly the state its position in the session implies: a
// job's output is a pure function of (victim image, session state, spec),
// never of what else ran on the machine in between.
type SessionState struct {
	ms        machine.Snapshot
	scanEpoch uint64
	faults    int
}

// Checkpoint snapshots the prober+machine state.
func (p *Prober) Checkpoint() SessionState {
	return SessionState{ms: p.M.Snapshot(), scanEpoch: p.scanEpoch, faults: p.faults}
}

// Restore rewinds the prober and its machine to a checkpointed state. It
// fails if the victim's page tables were mutated since the checkpoint (see
// machine.Restore — probe-only attacks never trip it).
func (p *Prober) Restore(s SessionState) error {
	if err := p.M.Restore(s.ms); err != nil {
		return err
	}
	p.scanEpoch = s.scanEpoch
	p.faults = s.faults
	return nil
}

// adoptState is the cross-machine Restore: it applies a state snapshotted
// on a different machine whose attack-observable image this prober's
// machine reproduces (see machine.Adopt).
func (p *Prober) adoptState(s SessionState) {
	p.M.Adopt(s.ms)
	p.scanEpoch = s.scanEpoch
	p.faults = s.faults
}

// Calibration is the portable result of one Calibrate run: the decision
// thresholds plus the execution state a fresh boot of the same victim
// should resume from. Cache it keyed by victim configuration (preset, boot
// parameters, seed, prober options) and hand it to
// NewProberFromCalibration to skip recalibrating a fresh boot of the same
// victim.
type Calibration struct {
	Threshold      stats.Threshold
	StoreThreshold stats.Threshold
	// State is the execution state when the calibration was snapshotted:
	// right after Calibrate returned, or after a probe-only reconnaissance
	// that followed it (such as a Modules sweep), which a replay then
	// inherits and must not run again.
	State SessionState
}

// CalibrationSnapshot exports the prober's calibration for a session cache,
// with the prober's current state as the state a replay resumes from. Call
// it right after NewProber, or after probe-only attacks that every replay
// of this calibration would otherwise repeat (a session's reconnaissance):
// the replayed prober then starts where those attacks left off, and the
// replaying caller must skip them. The attacks must not have mutated the
// page tables.
func (p *Prober) CalibrationSnapshot() Calibration {
	return Calibration{Threshold: p.Threshold, StoreThreshold: p.StoreThreshold, State: p.Checkpoint()}
}

// NewProberFromCalibration creates a prober on m from a cached calibration
// instead of running Calibrate. m must be a bit-identical replica of the
// machine the calibration was taken on (same preset, same seed, same boot
// sequence); adopting the recorded state then reproduces the original
// prober at the point of its CalibrationSnapshot exactly — same
// thresholds, same clock, same noise position — without paying the
// calibration's mmap + measurement cost, the way a real attacker
// calibrates once per victim class and reuses the thresholds across
// sessions. Every attack result from the returned prober is bit-identical
// to one the original prober would have produced next. When the snapshot
// was taken after a reconnaissance, the returned prober has already
// "run" it: the caller reuses its recorded outcome instead of repeating
// it, or the clock and noise position advance twice.
//
// The replay crosses machines, so it adopts the recorded state rather than
// Restore-ing it (the calibrated original mapped and unmapped scratch
// pages a calibration-skipping boot never does; the attack-observable image
// is equivalent, the page-table mutation counters are not). Checkpoint the
// returned prober to obtain a state that Restore — with its mutation guard
// — accepts on this machine.
func NewProberFromCalibration(m *machine.Machine, opt Options, cal Calibration) *Prober {
	p := &Prober{
		M:              m,
		Opt:            opt.withDefaults(),
		Threshold:      cal.Threshold,
		StoreThreshold: cal.StoreThreshold,
		calibrated:     true,
		scratchVA:      ScratchBase,
	}
	p.adoptState(cal.State)
	return p
}

// reduceGroups reduces raw per-measurement values in groups of
// ProbeSamples with the configured estimator, yielding a sample on the
// same scale as probe decision values.
func (p *Prober) reduceGroups(raw []float64) *stats.Sample {
	k := p.Opt.ProbeSamples
	out := &stats.Sample{}
	for i := 0; i < len(raw); i += k {
		end := i + k
		if end > len(raw) {
			end = len(raw)
		}
		out.Add(p.reduce(raw[i:end]))
	}
	return out
}

// reduce collapses one probe's sample set to its decision value. The
// trimmed-mean path sorts into a reused scratch buffer instead of
// allocating and re-sorting a fresh copy on every probe.
func (p *Prober) reduce(xs []float64) float64 {
	switch p.Opt.Estimator {
	case EstTrimmedMean:
		if len(xs) == 1 {
			return xs[0]
		}
		if cap(p.sortBuf) < len(xs) {
			p.sortBuf = lineSlice[float64](len(xs))
		}
		sorted := p.sortBuf[:len(xs)]
		copy(sorted, xs)
		sort.Float64s(sorted)
		keep := len(sorted) - len(sorted)/4
		sum := 0.0
		for _, x := range sorted[:keep] {
			sum += x
		}
		return sum / float64(keep)
	default: // EstMin
		min := xs[0]
		for _, x := range xs[1:] {
			if x < min {
				min = x
			}
		}
		return min
	}
}

// Faults returns the number of delivered page faults the prober has caused
// (must stay zero: suppression is the attack's point; tests assert this).
func (p *Prober) Faults() int { return p.faults }

// ProbeResult is one page-probe outcome.
type ProbeResult struct {
	VA paging.VirtAddr
	// Cycles is the decision measurement (minimum of the sample set).
	Cycles float64
	// Fast reports Cycles at or below the calibrated threshold.
	Fast bool
}

// ProbeMapped runs the page-table attack (P2) at va: execute the masked
// load twice and measure the second run. On Intel, a mapped kernel page's
// translation is TLB-resident by the second run (fast); an unmapped page
// walks every time (slow). Never faults (P1: all-zero mask). It is the
// one-index window of probeBatchWindow, the primitive every mapped sweep
// chunk runs.
func (p *Prober) ProbeMapped(va paging.VirtAddr) ProbeResult {
	return p.probeOne(false, va)
}

// ProbeMappedStore is ProbeMapped using masked stores (P6: slightly faster;
// used by the §IV-F store-scan variant). The permission attack needs the
// store-specific threshold: a store assist on a read-only page is cheaper
// than a load assist (P6) and would pass the load threshold.
func (p *Prober) ProbeMappedStore(va paging.VirtAddr) ProbeResult {
	return p.probeOne(true, va)
}

// probeOne runs probeBatchWindow over the single index va with its own
// one-element result windows — never the prober's batchFast, which a
// chunk or tick caller may be holding.
func (p *Prober) probeOne(store bool, va paging.VirtAddr) ProbeResult {
	var cycles [1]float64
	var fast [1]bool
	p.probeBatchWindow(store, va, 0, 0, 1, nil, cycles[:], fast[:])
	return ProbeResult{VA: va, Cycles: cycles[0], Fast: fast[0]}
}

// probeBatchWindow is the one double-execution probing primitive under
// ProbeMapped, ProbeMappedStore and every mapped, store and fused scan
// chunk: it probes the non-skipped indices of [lo, hi) (page i at
// start + i*stride), writing each probed index's decision measurement into
// cycles[i-lo] and its threshold verdict into fast[i-lo] (the store
// threshold for store probes), and returns the window-relative positions
// probed. Skipped indices consume no probe and no noise, and their window
// entries are left untouched. The probe sequence per index is one warm-up
// execution, ProbeSamples measured executions, jitter (loads only), then
// reduction.
func (p *Prober) probeBatchWindow(store bool, start paging.VirtAddr, stride uint64, lo, hi int,
	skip func(int) bool, cycles []float64, fast []bool) []int {
	ops, pos := p.windowOps(store, start, stride, lo, hi, skip)
	vals := p.measureBatch(ops, !store)
	thr := &p.Threshold
	if store {
		thr = &p.StoreThreshold
	}
	for j, v := range vals {
		cycles[pos[j]] = v
		fast[pos[j]] = thr.Classify(v)
	}
	return pos
}

// windowOps builds, in the prober's op scratch, one all-zero-mask masked
// op — a store when store is set, a load otherwise — for each non-skipped
// index of [lo, hi), page i at start + i*stride, and returns the ops with
// their window-relative positions.
func (p *Prober) windowOps(store bool, start paging.VirtAddr, stride uint64, lo, hi int,
	skip func(int) bool) ([]avx.Op, []int) {
	n := hi - lo
	if cap(p.batchOps) < n {
		p.batchOps = lineSlice[avx.Op](n)[:0]
		p.batchPos = lineSlice[int](n)[:0]
	}
	ops, pos := p.batchOps[:0], p.batchPos[:0]
	for i := lo; i < hi; i++ {
		if skip != nil && skip(i) {
			continue
		}
		va := start + paging.VirtAddr(uint64(i)*stride)
		if store {
			ops = append(ops, avx.MaskedStore(va, avx.ZeroMask))
		} else {
			ops = append(ops, avx.MaskedLoad(va, avx.ZeroMask))
		}
		pos = append(pos, i-lo)
	}
	return ops, pos
}

// measWindow returns the raw-measurement scratch, sized to n samples.
func (p *Prober) measWindow(n int) []float64 {
	if cap(p.batchMeas) < n {
		p.batchMeas = lineSlice[float64](n)
	}
	return p.batchMeas[:n]
}

// measureBatch measures every op with the double-execution probe (one
// warm-up, ProbeSamples measured runs) and reduces each op's samples to its
// decision value with the configured estimator, returning one value per op
// in a reused buffer. Load probes add the configured extra timer jitter
// (a coarser timer, modelled as widened quantization) to every sample;
// store probes do not.
func (p *Prober) measureBatch(ops []avx.Op, loadJitter bool) []float64 {
	k := p.Opt.ProbeSamples
	meas := p.measWindow(len(ops) * k)
	p.faults += p.M.MeasureBatch(ops, 1, k, meas)
	if cap(p.batchVals) < len(ops) {
		p.batchVals = lineSlice[float64](len(ops))
	}
	vals := p.batchVals[:len(ops)]
	jitter := 0.0
	if loadJitter && p.Opt.ExtraJitterSigma > 0 {
		jitter = p.Opt.ExtraJitterSigma
	}
	for j := range ops {
		xs := meas[j*k : (j+1)*k]
		if jitter > 0 {
			for t := range xs {
				xs[t] += jitter
			}
		}
		vals[j] = p.reduce(xs)
	}
	return vals
}

// lineSlice returns a zeroed slice of length n for prober scratch. Its
// capacity is rounded up to a multiple of 64 elements, so the backing array
// is a whole number of 64-byte lines: pool replicas probe at once, and a
// small window must not share a line with another replica's.
func lineSlice[T any](n int) []T { return make([]T, (n+63)&^63)[:n] }

// fastWindow returns the reusable per-window fast-flag scratch buffer.
func (p *Prober) fastWindow(n int) []bool {
	if cap(p.batchFast) < n {
		p.batchFast = lineSlice[bool](n)
	}
	return p.batchFast[:n]
}

// probeTermBatchWindow is the walk-termination probing primitive under
// every term-level sweep chunk (and the one-index ProbeTermLevel the
// reference tests compare): for each index of [lo, hi), samples
// eviction+measure pairs run through machine.MeasureEvictedBatch and
// reduce by minimum (samples <= 0 means 1). cycles and verdicts receive the
// window-relative results; verdict = cycles above the walk-termination
// threshold.
func (p *Prober) probeTermBatchWindow(start paging.VirtAddr, stride uint64, lo, hi int,
	samples int, threshold float64, cycles []float64, verdicts []bool) {
	if samples <= 0 {
		samples = 1
	}
	ops, _ := p.windowOps(false, start, stride, lo, hi, nil)
	meas := p.measWindow(len(ops) * samples)
	p.faults += p.M.MeasureEvictedBatch(ops, samples, meas)
	// Load probes add the extra timer jitter to every sample; a constant
	// addend commutes with the min reduction.
	jitter := p.Opt.ExtraJitterSigma
	for j := range ops {
		best := meas[j*samples]
		for _, t := range meas[j*samples+1 : (j+1)*samples] {
			if t < best {
				best = t
			}
		}
		best += jitter
		cycles[j] = best
		verdicts[j] = best > threshold
	}
}

// ScanMapped probes n pages from start at the given stride with the
// page-table attack, then re-probes (min-of-3) every page whose verdict
// disagrees with a neighbour: interrupt spikes produce isolated false
// "unmapped" reads that would split a module or image run in two, or
// shorten one at its edge. The second pass is what the paper's
// 99.7–99.8 % module accuracy implies.
//
// The merged output is bit-identical at every Options.Workers setting for
// a fixed machine seed (see runSweep).
func (p *Prober) ScanMapped(start paging.VirtAddr, n int, stride uint64) ([]bool, []float64) {
	return runSweep(p, start, n, stride, chunkPages,
		func(rp *Prober) *mappedWorker { return &mappedWorker{workerBase{p: rp}} },
		(*mappedWorker).HealProbe)
}

// ProbeTLB runs the TLB attack (P4) at va: a single timed masked load.
// If the kernel recently used the page, its translation is TLB-resident
// and the probe is fast; otherwise the probe walks. The caller controls
// eviction (evict → let victim run → probe). It is the one-index window of
// ProbeTLBBatch.
func (p *Prober) ProbeTLB(va paging.VirtAddr) ProbeResult {
	var cycles [1]float64
	var fast [1]bool
	p.ProbeTLBBatch(va, 1, 0, cycles[:], fast[:])
	return ProbeResult{VA: va, Cycles: cycles[0], Fast: fast[0]}
}

// ProbeTLBBatch runs the TLB attack (P4) over n pages from start at the
// given stride: one timed masked load per page, in page order, no warm-up
// execution (the attack's whole point is reading the translation state the
// *victim* left behind). The op plumbing is paid once per batch through
// machine.MeasureBatch, and all scratch lives on the prober, so the
// temporal tick loops (behavior spy, app fingerprinting) probe their
// per-target leading pages without allocating. cycles[i] receives page i's
// measurement and fast[i] its threshold verdict; both must have length >= n.
func (p *Prober) ProbeTLBBatch(start paging.VirtAddr, n int, stride uint64, cycles []float64, fast []bool) {
	ops, _ := p.windowOps(false, start, stride, 0, n, nil)
	meas := p.measWindow(n)
	p.faults += p.M.MeasureBatch(ops, 0, 1, meas)
	// Load probes widen every sample by the configured timer jitter.
	jitter := p.Opt.ExtraJitterSigma
	for i, v := range meas {
		v += jitter
		cycles[i] = v
		fast[i] = p.Threshold.Classify(v)
	}
}

// tickWindows returns the reusable per-tick measurement windows (cycles +
// fast flags) the temporal tick loops probe into: prober-owned so a
// steady-state tick allocates nothing, distinct from the batch scratch
// ProbeTLBBatch consumes internally.
func (p *Prober) tickWindows(n int) ([]float64, []bool) {
	if cap(p.tickCyc) < n {
		p.tickCyc = lineSlice[float64](n)
	}
	return p.tickCyc[:n], p.fastWindow(n)
}

// PermClass is the permission classification the paired probe yields (P5).
// The masked load separates {r--, r-x, rw-} from {---, unmapped}; the
// masked store then separates rw- from r--/r-x. r-- and r-x are
// indistinguishable (Fig. 7 reports "(r--|r-x)"), and --- is
// indistinguishable from unmapped ("(---|unmap)").
type PermClass int

// Permission classes the attack can distinguish.
const (
	PermUnmapped PermClass = iota // --- or no mapping
	PermReadable                  // r-- or r-x
	PermWritable                  // rw-
)

// String renders the class in Figure 7's notation.
func (c PermClass) String() string {
	switch c {
	case PermUnmapped:
		return "(---|unmap)"
	case PermReadable:
		return "(r--|r-x)"
	case PermWritable:
		return "rw-"
	}
	return "?"
}
