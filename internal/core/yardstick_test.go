package core

import (
	"fmt"
	"testing"

	"repro/internal/behavior"
	"repro/internal/paging"
	"repro/internal/scan"
)

// The sequential and two-pass yardsticks the parity suites measure the
// engine-based attacks against. They live here, not in the production
// API: nothing but the parity tests and BenchmarkUserScanTwoPass calls
// them.

// sequentialTicks runs n tick bodies in order on p's own machine under the
// engine's exact determinism contract — the same scan-epoch seed
// derivation, per-chunk noise reseed + translation reset, and canonical
// post-sweep state that runSweep applies. It is the one place the temporal
// yardstick loops (BehaviorSpy.RunWindowSequential,
// AppFingerprinter.ClassifyFromSequential) get their chunk scaffolding
// from, so the seed contract cannot drift between them and the engine.
func sequentialTicks(p *Prober, n int, body func(i int)) {
	p.scanEpoch++
	seed := p.M.Seed() ^ (p.scanEpoch * 0x9e3779b97f4a7c15)
	chunk := tickChunk(p)
	for lo, c := 0, 0; lo < n; lo, c = lo+chunk, c+1 {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		p.M.ReseedNoise(scan.StreamSeed(seed, uint64(c)))
		p.M.ResetTranslationState()
		for i := lo; i < hi; i++ {
			body(i)
		}
	}
	p.M.ReseedNoise(scan.StreamSeed(seed, scan.PostSweepStream))
	p.M.ResetTranslationState()
}

// RunSequential is the sequential parity yardstick of Run.
func (s *BehaviorSpy) RunSequential(d *behavior.Driver, duration float64) ([]SpyTrace, error) {
	return s.RunWindowSequential(d, 0, duration)
}

// RunWindowSequential is the plain sequential spy loop, kept as the parity
// yardstick for the engine-based RunWindow: it walks the ticks in order on
// the prober's own machine under the engine's exact determinism contract
// (same per-chunk noise seeds, same canonical tick state, same post-sweep
// state), so its traces must be bit-identical to RunWindow's at every
// worker setting for a fixed machine seed.
func (s *BehaviorSpy) RunWindowSequential(d *behavior.Driver, t0, t1 float64) ([]SpyTrace, error) {
	if err := s.init(); err != nil {
		return nil, err
	}
	d.EnsureHorizon(t1)
	n := windowTicks(t0, t1, s.TickSec)
	obs := make([]tickObs, n)
	sequentialTicks(s.P, n, func(i int) {
		obs[i] = s.tick(s.P, d, t0+float64(i)*s.TickSec)
	})
	return s.assemble(t0, obs), nil
}

// ClassifySequential is the sequential parity yardstick of Classify.
func (f *AppFingerprinter) ClassifySequential(d *behavior.Driver) (AppProfile, error) {
	return f.ClassifyFromSequential(d, 0)
}

// ClassifyFromSequential is the plain sequential observation loop, kept as
// the parity yardstick for the engine-based ClassifyFrom (same determinism
// contract; see BehaviorSpy.RunWindowSequential).
func (f *AppFingerprinter) ClassifyFromSequential(d *behavior.Driver, t0 float64) (AppProfile, error) {
	watch, err := f.init()
	if err != nil {
		return AppProfile{}, err
	}
	d.EnsureHorizon(t0 + float64(f.Ticks)*f.TickSec)
	masks := make([]uint64, f.Ticks)
	sequentialTicks(f.P, f.Ticks, func(i int) {
		masks[i] = f.tick(f.P, d, watch, t0+float64(i)*f.TickSec)
	})
	return f.match(watch, masks)
}

// UserScanTwoPass is the serialized two-sweep §IV-F scan the fused UserScan
// replaced: a full masked-load sweep, then a masked-store sweep over the
// pages the load pass read as mapped. Kept as the reference implementation
// — the fused scan must recover the same regions at a fixed seed (the
// parity suite enforces it) — and for ablations of the fusion itself.
func UserScanTwoPass(p *Prober, start, end paging.VirtAddr) UserScanResult {
	t0 := p.M.RDTSC()
	var res UserScanResult

	pages := int(uint64(end-start) >> 12)
	mapped, _ := p.ScanMapped(start, pages, paging.Page4K)
	t1 := p.M.RDTSC()
	res.LoadCycles = t1 - t0

	classes := p.scanStoreClasses(start, mapped)
	t2 := p.M.RDTSC()
	res.StoreCycles = t2 - t1
	res.TotalCycles = t2 - t0

	res.Regions = mergeRegions(start, classes)
	return res
}

// storeWorker probes with the masked-store attack (P5/P6): verdict =
// writable vs read-only, for pages the load pass already read as mapped.
type storeWorker struct{ workerBase }

func (w *storeWorker) Probe(va paging.VirtAddr) scan.Sample[PermClass] {
	pr := w.p.ProbeMappedStore(va)
	return scan.Sample[PermClass]{Cycles: pr.Cycles, Verdict: storeClass(pr.Fast)}
}

// ProbeChunk batches the chunk's store probes, then maps the fast flags to
// permission classes in the verdict window (skipped pages get skipV —
// PermUnmapped in the user scan).
func (w *storeWorker) ProbeChunk(start paging.VirtAddr, stride uint64, lo, hi int,
	skip func(int) bool, skipV PermClass, verdicts []PermClass, cycles []float64) {
	p := w.p
	if skip != nil {
		for i := lo; i < hi; i++ {
			if skip(i) {
				verdicts[i-lo] = skipV
			}
		}
	}
	fast := p.fastWindow(hi - lo)
	pos := p.probeBatchWindow(true, start, stride, lo, hi, skip, cycles, fast)
	for _, j := range pos {
		verdicts[j] = storeClass(fast[j])
	}
}

func (w *storeWorker) Classify(cycles float64) PermClass {
	return storeClass(w.p.StoreThreshold.Classify(cycles))
}

// scanStoreClasses runs the §IV-F store-classification pass on the engine:
// every page the load pass read as mapped is probed with the masked-store
// attack and classified writable vs read-only (including the min-of-3
// healing re-probe of isolated verdict flips); unmapped pages are skipped
// outright — no probe, no noise draw — and come back PermUnmapped.
func (p *Prober) scanStoreClasses(start paging.VirtAddr, mapped []bool) []PermClass {
	res := runSweep(p, start, len(mapped), paging.Page4K, 0, 0,
		func(i int) bool { return !mapped[i] }, PermUnmapped,
		func(rp *Prober) scan.Worker[PermClass] { return &storeWorker{workerBase{p: rp}} })
	return res.Verdicts
}

// BenchmarkUserScanTwoPass measures the serialized two-pass §IV-F user
// scan (masked-load sweep + masked-store classification sweep), the
// baseline the fused UserScan is judged against: compare host ms/op and
// sim_ms with the root BenchmarkUserScanFused.
func BenchmarkUserScanTwoPass(b *testing.B) {
	for _, workers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			p, lo, hi := userScanVictim(b, 900, Options{Workers: workers, Pool: NewScanPool()})
			pages := int(uint64(hi-lo) >> 12)
			b.SetBytes(int64(pages))
			b.ResetTimer()
			var simCycles uint64
			for i := 0; i < b.N; i++ {
				simCycles += UserScanTwoPass(p, lo, hi).TotalCycles
			}
			b.ReportMetric(p.M.Preset.CyclesToSeconds(simCycles/uint64(b.N))*1e3, "sim_ms")
			b.ReportMetric(float64(pages)*float64(b.N)/b.Elapsed().Seconds(), "probes/s")
		})
	}
}
