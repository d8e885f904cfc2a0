package core

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/avx"
	"repro/internal/fault"
	"repro/internal/linux"
	"repro/internal/machine"
	"repro/internal/paging"
	"repro/internal/scan"
	"repro/internal/stats"
	"repro/internal/uarch"
)

// refProber carries the per-VA probe implementations the production probes
// replaced — timed one op at a time through machine.Measure and
// EvictTranslation — kept verbatim as the differential reference for the
// one-index batch windows that ProbeMapped, ProbeMappedStore, ProbeTLB and
// ProbeTermLevel now are, and for Calibrate's two-sided slow sample.
type refProber struct {
	*Prober
	sampleBuf []float64
}

// newRefProber boots nothing: it wraps a fresh prober on m and calibrates
// it with the reference Calibrate.
func newRefProber(m *machine.Machine, opt Options) (*refProber, error) {
	p := &refProber{Prober: &Prober{M: m, Opt: opt.withDefaults(), scratchVA: ScratchBase}}
	if err := p.Calibrate(); err != nil {
		return nil, err
	}
	return p, nil
}

func (p *refProber) Calibrate() error {
	if err := p.M.Fire(fault.Calibrate); err != nil {
		return fmt.Errorf("core: calibration: %w", err)
	}
	n := p.Opt.CalibrationPages
	length := uint64(n) * paging.Page4K
	if err := p.M.MapUser(p.scratchVA, length, paging.Writable); err != nil {
		return fmt.Errorf("core: calibration mmap: %w", err)
	}
	fastRaw := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		va := p.scratchVA + paging.VirtAddr(i*paging.Page4K)
		p.M.ExecMasked(avx.MaskedLoad(va, avx.AllMask(8)))
		t, r := p.M.Measure(avx.MaskedStore(va, avx.AllMask(8)))
		if r.Faulted {
			return fmt.Errorf("core: unexpected fault during calibration at %#x", uint64(va))
		}
		fastRaw = append(fastRaw, t)
	}
	fast := p.reduceGroups(fastRaw)
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
		slowRaw := make([]float64, 0, n)
		for i := 0; i < n; i++ {
			va := p.scratchVA + paging.VirtAddr(i*paging.Page4K)
			slowRaw = append(slowRaw, p.measureLoad(va))
		}
		slow := p.reduceGroups(slowRaw)
		p.Threshold = stats.CalibrateFraction(fast, slow, 0.3)
	} else {
		margin := p.Opt.Margin
		if s := 3 * fast.Trimmed(0, 0.98).Std(); s > margin {
			margin = s
		}
		p.Threshold = stats.CalibrateOffset(fast, margin)
	}
	p.StoreThreshold = stats.CalibrateMidpoint(storeFast, fast)
	p.M.ResetTranslationState()
	p.calibrated = true
	return nil
}

// measureLoad measures one all-zero-mask masked load at va.
func (p *refProber) measureLoad(va paging.VirtAddr) float64 {
	t, r := p.M.Measure(avx.MaskedLoad(va, avx.ZeroMask))
	if r.Faulted {
		p.faults++
	}
	if p.Opt.ExtraJitterSigma > 0 {
		// Coarser timer: model as widened quantization jitter.
		t += p.Opt.ExtraJitterSigma
	}
	return t
}

// measureStore measures one all-zero-mask masked store at va.
func (p *refProber) measureStore(va paging.VirtAddr) float64 {
	t, r := p.M.Measure(avx.MaskedStore(va, avx.ZeroMask))
	if r.Faulted {
		p.faults++
	}
	return t
}

func (p *refProber) ProbeMapped(va paging.VirtAddr) ProbeResult {
	// First execution: populate TLB/PSC (its timing is discarded).
	p.M.ExecMasked(avx.MaskedLoad(va, avx.ZeroMask))
	k := p.Opt.ProbeSamples
	if k == 1 {
		t := p.measureLoad(va)
		return ProbeResult{VA: va, Cycles: t, Fast: p.Threshold.Classify(t)}
	}
	xs := p.samples(k)
	for s := 0; s < k; s++ {
		xs[s] = p.measureLoad(va)
	}
	v := p.reduce(xs)
	return ProbeResult{VA: va, Cycles: v, Fast: p.Threshold.Classify(v)}
}

// samples returns the reusable k-element sample scratch buffer.
func (p *refProber) samples(k int) []float64 {
	if cap(p.sampleBuf) < k {
		p.sampleBuf = make([]float64, k)
	}
	return p.sampleBuf[:k]
}

func (p *refProber) ProbeMappedStore(va paging.VirtAddr) ProbeResult {
	p.M.ExecMasked(avx.MaskedStore(va, avx.ZeroMask))
	k := p.Opt.ProbeSamples
	xs := p.samples(k)
	for s := 0; s < k; s++ {
		xs[s] = p.measureStore(va)
	}
	best := p.reduce(xs)
	return ProbeResult{VA: va, Cycles: best, Fast: p.StoreThreshold.Classify(best)}
}

func (p *refProber) ProbeTermLevel(va paging.VirtAddr, samples int) TermProbe {
	if samples <= 0 {
		samples = 1
	}
	best := 0.0
	for s := 0; s < samples; s++ {
		p.M.EvictTranslation(va)
		t := p.measureLoad(va)
		if s == 0 || t < best {
			best = t
		}
	}
	return TermProbe{VA: va, Cycles: best}
}

func (p *refProber) ProbeTLB(va paging.VirtAddr) ProbeResult {
	t := p.measureLoad(va)
	return ProbeResult{VA: va, Cycles: t, Fast: p.Threshold.Classify(t)}
}

// sweep is the engine's inline (workers 0) sweep as it ran with per-index
// probing: the scan-epoch seed, a noise reseed and translation reset per
// chunk, one probe call per index, the min-of-heal re-probe of every index
// whose verdict disagrees with a neighbour (heal < 0 disables it), and the
// canonical post-sweep state.
func (p *refProber) sweep(start paging.VirtAddr, n int, stride uint64, heal int,
	probe func(paging.VirtAddr) float64, classify func(float64) bool) ([]bool, []float64) {
	p.scanEpoch++
	seed := p.M.Seed() ^ (p.scanEpoch * 0x9e3779b97f4a7c15)
	chunk := p.Opt.ScanChunkPages
	if chunk <= 0 {
		chunk = scan.DefaultChunkPages
	}
	verdicts, cycles := make([]bool, n), make([]float64, n)
	chunks := 0
	for lo := 0; lo < n; lo += chunk {
		p.M.ReseedNoise(scan.StreamSeed(seed, uint64(chunks)))
		p.M.ResetTranslationState()
		for i := lo; i < lo+chunk && i < n; i++ {
			cycles[i] = probe(start + paging.VirtAddr(uint64(i)*stride))
			verdicts[i] = classify(cycles[i])
		}
		chunks++
	}
	if heal > 0 {
		p.M.ReseedNoise(scan.StreamSeed(seed, uint64(chunks)+1))
		p.M.ResetTranslationState()
		for i := 0; i < n; i++ {
			left := i > 0 && verdicts[i-1] != verdicts[i]
			right := i < n-1 && verdicts[i+1] != verdicts[i]
			if !(left || right) {
				continue
			}
			best := cycles[i]
			for s := 0; s < heal; s++ {
				if c := probe(start + paging.VirtAddr(uint64(i)*stride)); c < best {
					best = c
				}
			}
			cycles[i], verdicts[i] = best, classify(best)
		}
	}
	p.M.ReseedNoise(scan.StreamSeed(seed, scan.PostSweepStream))
	p.M.ResetTranslationState()
	return verdicts, cycles
}

func (p *refProber) ScanMapped(start paging.VirtAddr, n int, stride uint64) ([]bool, []float64) {
	return p.sweep(start, n, stride, 3,
		func(va paging.VirtAddr) float64 { return p.ProbeMapped(va).Cycles }, p.Threshold.Classify)
}

func (p *refProber) ScanTermLevel(start paging.VirtAddr, n int, stride uint64, samples int, threshold float64) ([]bool, []float64) {
	return p.sweep(start, n, stride, -1,
		func(va paging.VirtAddr) float64 { return p.ProbeTermLevel(va, samples).Cycles },
		func(c float64) bool { return c > threshold })
}

// referenceOptions are the prober configurations the differential tests
// cover: the paper's, multi-sample trimmed-mean reduction, extra timer
// jitter, and two-sided calibration.
var referenceOptions = []Options{
	{},
	{ProbeSamples: 3, Estimator: EstTrimmedMean},
	{ExtraJitterSigma: 2.5},
	{TwoSided: true},
}

// referencePair boots the same victim twice and calibrates one copy with
// the production Calibrate, the other with the reference.
func referencePair(t *testing.T, preset func() *uarch.Preset, seed uint64, opt Options) (*Prober, *refProber, *linux.Kernel) {
	t.Helper()
	boot := func() (*machine.Machine, *linux.Kernel) {
		m := machine.New(preset(), seed)
		k, err := linux.Boot(m, linux.Config{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		return m, k
	}
	m, k := boot()
	prod, err := NewProber(m, opt)
	if err != nil {
		t.Fatal(err)
	}
	rm, _ := boot()
	ref, err := newRefProber(rm, opt)
	if err != nil {
		t.Fatal(err)
	}
	return prod, ref, k
}

// sameThreshold compares thresholds bit for bit (a one-sided calibration
// records a NaN slow-class mean, which == never matches).
func sameThreshold(a, b stats.Threshold) bool {
	return math.Float64bits(a.Cycles) == math.Float64bits(b.Cycles) &&
		math.Float64bits(a.FastMean) == math.Float64bits(b.FastMean) &&
		math.Float64bits(a.SlowMean) == math.Float64bits(b.SlowMean)
}

// sameState fails the test unless both probers' machines agree on the
// simulated clock, the performance counters and the fault count.
func sameState(t *testing.T, what string, prod *Prober, ref *refProber) {
	t.Helper()
	if prod.M.RDTSC() != ref.M.RDTSC() {
		t.Fatalf("%s: clock %d, reference %d", what, prod.M.RDTSC(), ref.M.RDTSC())
	}
	if prod.M.Counters != ref.M.Counters {
		t.Fatalf("%s: performance counters differ from the reference", what)
	}
	if prod.Faults() != ref.Faults() {
		t.Fatalf("%s: %d faults, reference %d", what, prod.Faults(), ref.Faults())
	}
}

// The production probes and the workers-0 sweeps must be bit-identical to
// the per-VA reference: same calibrated thresholds, same decision values
// and verdicts, same clock, counters and fault count after every stage, on
// an Intel part (TLB-resident kernel pages) and an AMD one (term-level
// sweep), for every reference option set.
func TestProbesMatchReference(t *testing.T) {
	presets := []struct {
		name   string
		preset func() *uarch.Preset
	}{{"12400F", uarch.AlderLake12400F}, {"5600X", uarch.Zen3_5600X}}
	for _, pr := range presets {
		for _, opt := range referenceOptions {
			t.Run(fmt.Sprintf("%s/%+v", pr.name, opt), func(t *testing.T) {
				prod, ref, k := referencePair(t, pr.preset, 131, opt)
				if !sameThreshold(prod.Threshold, ref.Threshold) || !sameThreshold(prod.StoreThreshold, ref.StoreThreshold) {
					t.Fatalf("thresholds %+v/%+v, reference %+v/%+v",
						prod.Threshold, prod.StoreThreshold, ref.Threshold, ref.StoreThreshold)
				}
				sameState(t, "calibration", prod, ref)

				vas := []paging.VirtAddr{
					k.Base, k.Base + paging.Page2M, k.Base - 8*paging.Page2M, k.FourKPages[0],
					linux.ModuleRegionBase, linux.ModuleRegionBase + 5*paging.Page4K, ScratchBase,
				}
				for _, va := range vas {
					if got, want := prod.ProbeMapped(va), ref.ProbeMapped(va); got != want {
						t.Fatalf("ProbeMapped(%#x) = %+v, reference %+v", uint64(va), got, want)
					}
					if got, want := prod.ProbeMappedStore(va), ref.ProbeMappedStore(va); got != want {
						t.Fatalf("ProbeMappedStore(%#x) = %+v, reference %+v", uint64(va), got, want)
					}
					if got, want := prod.ProbeTLB(va), ref.ProbeTLB(va); got != want {
						t.Fatalf("ProbeTLB(%#x) = %+v, reference %+v", uint64(va), got, want)
					}
					if got, want := prod.ProbeTermLevel(va, 3), ref.ProbeTermLevel(va, 3); got != want {
						t.Fatalf("ProbeTermLevel(%#x) = %+v, reference %+v", uint64(va), got, want)
					}
				}
				sameState(t, "per-VA probes", prod, ref)

				gotV, gotC := prod.ScanMapped(linux.ModuleRegionBase, 700, paging.Page4K)
				wantV, wantC := ref.ScanMapped(linux.ModuleRegionBase, 700, paging.Page4K)
				if !reflect.DeepEqual(gotV, wantV) || !reflect.DeepEqual(gotC, wantC) {
					t.Fatal("ScanMapped differs from the reference sweep")
				}
				sameState(t, "ScanMapped", prod, ref)

				thr := prod.PTTermThreshold()
				gotV, gotC = prod.ScanTermLevel(linux.TextRegionBase, linux.TextSlots, paging.Page2M, 4, thr)
				wantV, wantC = ref.ScanTermLevel(linux.TextRegionBase, linux.TextSlots, paging.Page2M, 4, thr)
				if !reflect.DeepEqual(gotV, wantV) || !reflect.DeepEqual(gotC, wantC) {
					t.Fatal("ScanTermLevel differs from the reference sweep")
				}
				sameState(t, "ScanTermLevel", prod, ref)
			})
		}
	}
}
