package core

import (
	"fmt"
	"testing"

	"repro/internal/behavior"
	"repro/internal/paging"
)

// The sequential and two-pass yardsticks the parity suites measure the
// engine-based attacks against: one sequential temporal sweep, which both
// temporal attacks' yardsticks run on, and the two-pass user scan. They
// live here, not in the production API: nothing but the parity tests and
// BenchmarkUserScanTwoPass calls them.

// sequentialSweep runs n spy ticks from victim time t0 in order on the
// spy's own machine under runSweep's exact determinism contract — the
// same scan-epoch seed derivation, per-chunk noise reseed + translation
// reset, and canonical post-sweep state that runSweep applies. It is the
// sequential yardstick of BehaviorSpy.sweep, the one temporal sweep both
// RunWindow and AppFingerprinter.ClassifyFrom run on; the spy must be
// initialized.
func sequentialSweep(s *BehaviorSpy, d *behavior.Driver, t0 float64, n int) []tickObs {
	p := s.P
	d.EnsureHorizon(t0 + float64(n)*s.TickSec)
	p.scanEpoch++
	seed := p.M.Seed() ^ (p.scanEpoch * 0x9e3779b97f4a7c15)
	chunk := tickChunk
	obs := make([]tickObs, n)
	for lo, c := 0, 0; lo < n; lo, c = lo+chunk, c+1 {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		p.M.ReseedNoise(streamSeed(seed, uint64(c)))
		p.M.ResetTranslationState()
		for i := lo; i < hi; i++ {
			obs[i] = s.tick(p, d, t0+float64(i)*s.TickSec)
		}
	}
	p.M.ReseedNoise(streamSeed(seed, postSweepStream))
	p.M.ResetTranslationState()
	return obs
}

// RunWindowSequential is the plain sequential spy loop, kept as the parity
// yardstick for the engine-based RunWindow: its traces must be
// bit-identical to RunWindow's at every worker setting for a fixed machine
// seed.
func (s *BehaviorSpy) RunWindowSequential(d *behavior.Driver, t0, t1 float64) ([]SpyTrace, error) {
	if err := s.init(); err != nil {
		return nil, err
	}
	return s.assemble(t0, sequentialSweep(s, d, t0, windowTicks(t0, t1, s.TickSec))), nil
}

// ClassifyFromSequential is the plain sequential observation loop, kept as
// the parity yardstick for the engine-based ClassifyFrom (same determinism
// contract; see sequentialSweep).
func (f *AppFingerprinter) ClassifyFromSequential(d *behavior.Driver, t0 float64) (AppProfile, error) {
	if err := f.init(); err != nil {
		return AppProfile{}, err
	}
	return f.match(sequentialSweep(&f.spy, d, t0, f.Ticks))
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
// It does its own skipping: a page the load pass read as unmapped is
// neither probed nor healed, draws no noise, and keeps verdict
// PermUnmapped and zero cycles.
type storeWorker struct {
	workerBase
	skip func(int) bool
}

func newStoreWorker(rp *Prober, mapped []bool) *storeWorker {
	return &storeWorker{workerBase: workerBase{p: rp}, skip: func(i int) bool { return !mapped[i] }}
}

// ProbeChunk batches the chunk's store probes over its mapped pages, then
// maps the fast flags to permission classes in the verdict window (the
// pages it skips keep the sweep's zero verdict, PermUnmapped).
func (w *storeWorker) ProbeChunk(start paging.VirtAddr, stride uint64, lo, hi int,
	verdicts []PermClass, cycles []float64) {
	fast := w.p.fastWindow(hi - lo)
	for _, j := range w.p.probeBatchWindow(true, start, stride, lo, hi, w.skip, cycles, fast) {
		verdicts[j] = storeClass(fast[j])
	}
}

// HealProbe merges the minimum of samples store re-probes with the
// first-pass measurement and re-classifies it. Unmapped pages are not
// healed: they keep their first-pass outcome and consume no probe.
func (w *storeWorker) HealProbe(va paging.VirtAddr, samples int, cycles float64, v PermClass) (float64, PermClass) {
	if v == PermUnmapped {
		return cycles, v
	}
	best := cycles
	for s := 0; s < samples; s++ {
		if pr := w.p.ProbeMappedStore(va); pr.Cycles < best {
			best = pr.Cycles
		}
	}
	return best, storeClass(w.p.StoreThreshold.Classify(best))
}

// scanStoreClasses runs the §IV-F store-classification pass through runSweep:
// every page the load pass read as mapped is probed with the masked-store
// attack and classified writable vs read-only (including the min-of-3
// healing re-probe of isolated verdict flips); unmapped pages are skipped
// outright — no probe, no noise draw — and come back PermUnmapped.
func (p *Prober) scanStoreClasses(start paging.VirtAddr, mapped []bool) []PermClass {
	classes, _ := runSweep(p, start, len(mapped), paging.Page4K, chunkPages,
		func(rp *Prober) *storeWorker { return newStoreWorker(rp, mapped) },
		(*storeWorker).HealProbe)
	return classes
}

// BenchmarkUserScanTwoPass measures the serialized two-pass §IV-F user
// scan (masked-load sweep + masked-store classification sweep), the
// baseline the fused UserScan is judged against: compare host ms/op and
// sim_ms with BenchmarkUserScanFused.
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
