package core

import (
	"testing"
	"testing/quick"

	"repro/internal/linux"
	"repro/internal/machine"
	"repro/internal/paging"
	"repro/internal/uarch"
)

func bootedProber(t *testing.T, preset *uarch.Preset, seed uint64, cfg linux.Config) (*Prober, *linux.Kernel) {
	t.Helper()
	m := machine.New(preset, seed)
	cfg.Seed = seed
	k, err := linux.Boot(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProber(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return p, k
}

func TestCalibrationThresholdSeparatesClasses(t *testing.T) {
	p, k := bootedProber(t, uarch.AlderLake12400F(), 31, linux.Config{})
	// The threshold must sit between the kernel-mapped (TLB hit) and
	// unmapped timings.
	pm := p.ProbeMapped(k.Base)
	pu := p.ProbeMapped(k.Base - 8*paging.Page2M)
	if !pm.Fast {
		t.Fatalf("kernel-mapped probe read slow (%.1f vs thr %.1f)", pm.Cycles, p.Threshold.Cycles)
	}
	if pu.Fast {
		t.Fatalf("unmapped probe read fast (%.1f vs thr %.1f)", pu.Cycles, p.Threshold.Cycles)
	}
	if pm.Cycles >= pu.Cycles {
		t.Fatal("class timings inverted")
	}
}

func TestCalibrationUnmapsScratch(t *testing.T) {
	p, _ := bootedProber(t, uarch.AlderLake12400F(), 33, linux.Config{})
	w := p.M.UserAS.Translate(ScratchBase, nil)
	if w.Mapped {
		t.Fatal("calibration pages left mapped")
	}
}

// ProbePerm runs the permission attack (P5) at va, one VA at a time. The
// load probe uses an all-zero mask (never faults); for readable pages the
// store probe's timing separates writable (fast or dirty-assist) from
// read-only (store assist) destinations. Production classifies pages with
// the fused UserScan sweep, which pairs the same two probes per chunk.
func (p *Prober) ProbePerm(va paging.VirtAddr) PermClass {
	load := p.ProbeMapped(va)
	if !load.Fast {
		return PermUnmapped
	}
	store := p.ProbeMappedStore(va)
	if store.Fast {
		// Store resolved without an inaccessible-page assist: writable.
		// (A first-write dirty assist times at the threshold; probing with
		// an all-zero mask never sets D, so a clean rw- page still shows
		// the fast store path — the assist only fires for real writes.)
		return PermWritable
	}
	return PermReadable
}

func TestStoreThresholdSeparatesWritability(t *testing.T) {
	p, _ := bootedProber(t, uarch.AlderLake12400F(), 35, linux.Config{})
	m := p.M
	// Private rw- page (dirty) vs r-- page.
	rw := paging.VirtAddr(0x7d0000000000)
	ro := rw + paging.Page4K
	if err := m.MapUser(rw, 2*paging.Page4K, paging.Writable); err != nil {
		t.Fatal(err)
	}
	if err := m.ProtectUser(ro, paging.Page4K, 0); err != nil {
		t.Fatal(err)
	}
	if got := p.ProbePerm(rw); got != PermWritable {
		t.Fatalf("rw- classified %v", got)
	}
	if got := p.ProbePerm(ro); got != PermReadable {
		t.Fatalf("r-- classified %v", got)
	}
	if got := p.ProbePerm(rw + 100*paging.Page4K); got != PermUnmapped {
		t.Fatalf("unmapped classified %v", got)
	}
}

func TestProbeNeverFaults(t *testing.T) {
	p, k := bootedProber(t, uarch.AlderLake12400F(), 37, linux.Config{})
	addrs := []paging.VirtAddr{
		k.Base, k.Base - paging.Page2M, linux.ModuleRegionBase,
		0x1000, 0x7fffffffe000, 0xffffffffffffe000,
	}
	for _, va := range addrs {
		p.ProbeMapped(va)
		p.ProbeMappedStore(va)
		p.ProbeTLB(va)
		p.ProbePerm(va)
	}
	if p.Faults() != 0 {
		t.Fatalf("primitives delivered %d faults — suppression broken", p.Faults())
	}
}

// Property: ProbeMapped agrees with page-table ground truth for kernel
// slots across many random boots (modulo the documented noise rate, so a
// small error budget is allowed).
func TestProbeMappedMatchesGroundTruth(t *testing.T) {
	errs, total := 0, 0
	for seed := uint64(0); seed < 8; seed++ {
		p, k := bootedProber(t, uarch.AlderLake12400F(), 41+seed, linux.Config{})
		for slot := 0; slot < linux.TextSlots; slot += 7 {
			va := linux.TextRegionBase + paging.VirtAddr(uint64(slot)<<21)
			truth := p.M.KernelAS.Translate(va, nil).Mapped
			got := p.ProbeMapped(va).Fast
			total++
			if got != truth {
				errs++
			}
		}
		_ = k
	}
	if rate := float64(errs) / float64(total); rate > 0.01 {
		t.Fatalf("probe error rate %.3f over %d probes", rate, total)
	}
}

func TestProbeTLBDetectsKernelTouch(t *testing.T) {
	p, k := bootedProber(t, uarch.IceLake1065G7(), 43, linux.Config{})
	lm, _ := k.Module("bluetooth")
	p.M.EvictTLB()
	if pr := p.ProbeTLB(lm.Base); pr.Fast {
		t.Fatal("cold module probe read fast")
	}
	p.M.EvictTLB()
	if err := k.TouchModule("bluetooth", 4); err != nil {
		t.Fatal(err)
	}
	if pr := p.ProbeTLB(lm.Base); !pr.Fast {
		t.Fatalf("touched module probe read slow (%.1f vs %.1f)", pr.Cycles, p.Threshold.Cycles)
	}
}

func TestProbeTermLevelSeparates4KSlots(t *testing.T) {
	p, k := bootedProber(t, uarch.Zen3_5600X(), 45, linux.Config{})
	// A 2M-mapped slot and a 4K-structured slot must separate by roughly
	// one PTE-line miss.
	slot2M := p.ProbeTermLevel(k.Base, 4)
	slot4K := p.ProbeTermLevel(k.FourKPages[0], 4)
	if slot4K.Cycles-slot2M.Cycles < p.M.Preset.PTELineMiss/2 {
		t.Fatalf("level signal too weak: 4K %.1f vs 2M %.1f", slot4K.Cycles, slot2M.Cycles)
	}
}

func TestScanMappedHealsIsolatedMisreads(t *testing.T) {
	p, k := bootedProber(t, uarch.AlderLake12400F(), 47, linux.Config{})
	lm := k.Modules[3]
	pages := int(lm.Size >> 12)
	mapped, _ := p.ScanMapped(lm.Base, pages, paging.Page4K)
	for i, ok := range mapped {
		if !ok {
			t.Fatalf("module page %d read unmapped after the healing pass", i)
		}
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.CalibrationPages != 256 || o.ProbeSamples != 1 || o.Margin != 4 {
		t.Fatalf("defaults %+v", o)
	}
	o = Options{CalibrationPages: 8, ProbeSamples: 3, Margin: 2}.withDefaults()
	if o.CalibrationPages != 8 || o.ProbeSamples != 3 || o.Margin != 2 {
		t.Fatalf("overrides lost: %+v", o)
	}
}

func TestMinOfKProbesReduceNoise(t *testing.T) {
	// Ablation: with heavy sampling, probes of the same page should have
	// lower dispersion than single samples.
	m := machine.New(uarch.AlderLake12400F(), 49)
	if _, err := linux.Boot(m, linux.Config{Seed: 49}); err != nil {
		t.Fatal(err)
	}
	p1, err := NewProber(m, Options{ProbeSamples: 1})
	if err != nil {
		t.Fatal(err)
	}
	pk, err := NewProber(m, Options{ProbeSamples: 8})
	if err != nil {
		t.Fatal(err)
	}
	va := linux.TextRegionBase + 64*paging.Page2M
	spread := func(p *Prober) float64 {
		min, max := 1e18, 0.0
		for i := 0; i < 60; i++ {
			c := p.ProbeMapped(va).Cycles
			if c < min {
				min = c
			}
			if c > max {
				max = c
			}
		}
		return max - min
	}
	if spread(pk) > spread(p1) {
		t.Fatal("min-of-8 probing is noisier than single probing")
	}
}

// Property: the calibrated threshold is always strictly between the fast
// store path and the dirty-assist time, across presets and seeds.
func TestCalibrationProperty(t *testing.T) {
	presets := uarch.All()
	err := quick.Check(func(seed uint64, pi uint8) bool {
		preset := presets[int(pi)%len(presets)]
		m := machine.New(preset, seed)
		if _, err := linux.Boot(m, linux.Config{Seed: seed}); err != nil {
			return false
		}
		p, err := NewProber(m, Options{CalibrationPages: 64})
		if err != nil {
			return false
		}
		fastStore := preset.MaskedStoreBase + preset.FenceOverhead
		dirty := preset.MaskedStoreBase + preset.AssistDirty + preset.FenceOverhead
		return p.StoreThreshold.Cycles > fastStore && p.StoreThreshold.Cycles < dirty &&
			p.Threshold.Cycles > dirty-10
	}, &quick.Config{MaxCount: 16})
	if err != nil {
		t.Fatal(err)
	}
}
