package core

import (
	"reflect"
	"testing"

	"repro/internal/linux"
	"repro/internal/machine"
	"repro/internal/paging"
	"repro/internal/uarch"
)

// The batched double-execution window must be bit-identical to the
// reference per-VA ProbeMapped loop (reference_test.go): same machine
// state, same noise draws, same decision values and verdicts, same
// simulated clock afterwards. Two victims booted from the same seed give
// two probers in identical post-calibration state; one probes per VA, the
// other in one window.
func TestProbeBatchMatchesProbeMapped(t *testing.T) {
	const seed = 77
	const pages = 512
	for _, opt := range []Options{
		{},
		{ProbeSamples: 3, Estimator: EstTrimmedMean},
		{ExtraJitterSigma: 2.5},
	} {
		loop, _ := engineProberOpt(t, seed, opt)
		ref := &refProber{Prober: loop}
		batch, _ := engineProberOpt(t, seed, opt)

		wantC := make([]float64, pages)
		wantF := make([]bool, pages)
		for i := 0; i < pages; i++ {
			pr := ref.ProbeMapped(linux.ModuleRegionBase + paging.VirtAddr(uint64(i)<<12))
			wantC[i], wantF[i] = pr.Cycles, pr.Fast
		}
		gotC := make([]float64, pages)
		gotF := make([]bool, pages)
		batch.probeBatchWindow(false, linux.ModuleRegionBase, paging.Page4K, 0, pages, nil, gotC, gotF)

		if !reflect.DeepEqual(wantC, gotC) || !reflect.DeepEqual(wantF, gotF) {
			t.Fatalf("opt %+v: batched probe output differs from ProbeMapped loop", opt)
		}
		if loop.M.RDTSC() != batch.M.RDTSC() {
			t.Fatalf("opt %+v: batched clock %d differs from loop clock %d", opt, batch.M.RDTSC(), loop.M.RDTSC())
		}
		if loop.Faults() != batch.Faults() {
			t.Fatalf("opt %+v: fault counts differ", opt)
		}
	}
}

// The store window must match a reference ProbeMappedStore loop the same
// way.
func TestProbeBatchStoreMatchesProbeMappedStore(t *testing.T) {
	const seed = 78
	const pages = 512
	loop, _ := engineProber(t, seed, 0)
	ref := &refProber{Prober: loop}
	batch, _ := engineProber(t, seed, 0)

	wantC := make([]float64, pages)
	wantF := make([]bool, pages)
	for i := 0; i < pages; i++ {
		pr := ref.ProbeMappedStore(linux.ModuleRegionBase + paging.VirtAddr(uint64(i)<<12))
		wantC[i], wantF[i] = pr.Cycles, pr.Fast
	}
	gotC := make([]float64, pages)
	gotF := make([]bool, pages)
	batch.probeBatchWindow(true, linux.ModuleRegionBase, paging.Page4K, 0, pages, nil, gotC, gotF)

	if !reflect.DeepEqual(wantC, gotC) || !reflect.DeepEqual(wantF, gotF) {
		t.Fatal("batched store probe output differs from ProbeMappedStore loop")
	}
	if loop.M.RDTSC() != batch.M.RDTSC() {
		t.Fatal("batched store clock diverged from the loop")
	}
}

// Steady-state batched probing must not allocate: the op, position,
// measurement and reduction buffers are prober-owned and reused.
func TestProbeBatchZeroAllocSteadyState(t *testing.T) {
	p, _ := engineProber(t, 79, 0)
	const pages = 256
	cycles := make([]float64, pages)
	fast := make([]bool, pages)
	for _, store := range []bool{false, true} {
		p.probeBatchWindow(store, linux.ModuleRegionBase, paging.Page4K, 0, pages, nil, cycles, fast) // warm scratch
		if n := testing.AllocsPerRun(20, func() {
			p.probeBatchWindow(store, linux.ModuleRegionBase, paging.Page4K, 0, pages, nil, cycles, fast)
		}); n > 0 {
			t.Errorf("probeBatchWindow(store=%v) allocates %.1f/op at steady state, want 0", store, n)
		}
	}
}

// The per-VA probes are one-index windows with their own one-element
// result windows: those stay on the stack, so a per-VA probe allocates
// nothing either.
func TestPerVAProbesZeroAlloc(t *testing.T) {
	p, k := engineProber(t, 80, 0)
	probes := map[string]func(){
		"ProbeMapped":      func() { p.ProbeMapped(k.Base) },
		"ProbeMappedStore": func() { p.ProbeMappedStore(k.Base) },
		"ProbeTLB":         func() { p.ProbeTLB(k.Base) },
		"ProbeTermLevel":   func() { p.ProbeTermLevel(k.Base, 3) },
	}
	for name, probe := range probes {
		probe() // warm scratch
		if n := testing.AllocsPerRun(100, probe); n > 0 {
			t.Errorf("%s allocates %.1f/op, want 0", name, n)
		}
	}
}

// BenchmarkProbeBatch measures the batched double-execution probe
// (probeBatchWindow over a 512-page window) — the per-probe host cost every
// mapped sweep chunk pays, to compare against the root
// BenchmarkProbeMapped's one-index window per call.
func BenchmarkProbeBatch(b *testing.B) {
	m := machine.New(uarch.AlderLake12400F(), 1)
	if _, err := linux.Boot(m, linux.Config{Seed: 1}); err != nil {
		b.Fatal(err)
	}
	p, err := NewProber(m, Options{})
	if err != nil {
		b.Fatal(err)
	}
	const chunk = 512
	cycles := make([]float64, chunk)
	fast := make([]bool, chunk)
	b.ResetTimer()
	for i := 0; i < b.N; i += chunk {
		p.probeBatchWindow(false, linux.ModuleRegionBase, paging.Page4K, 0, chunk, nil, cycles, fast)
	}
}

// Pooled re-scan allocations must not scale with the worker count beyond
// the engine's small per-shard constants (worker struct, goroutine,
// pool-get bookkeeping): the probers, their batch scratch and the replica
// list are all pooled or parent-owned. A per-worker budget of a few small
// allocations is the whole remaining growth.
func TestPooledScanAllocsFlatAcrossWorkers(t *testing.T) {
	const pages = 2048
	measure := func(workers int) float64 {
		p, _ := engineProberOpt(t, 151, Options{Workers: workers, Pool: NewScanPool()})
		p.ScanMapped(linux.ModuleRegionBase, pages, paging.Page4K) // fill pool, warm scratch
		return testing.AllocsPerRun(10, func() {
			p.ScanMapped(linux.ModuleRegionBase, pages, paging.Page4K)
		})
	}
	base := measure(1)
	wide := measure(8)
	t.Logf("allocs/scan: workers=1 %.0f, workers=8 %.0f", base, wide)
	if growth := wide - base; growth > 8*6 {
		t.Errorf("pooled scan allocations grew by %.0f from 1 to 8 workers (>6 per worker)", growth)
	}
}

// The fused user scan must recover exactly the regions the two-pass scan
// recovers at a fixed seed — at every worker setting —
// and must cost the simulated attacker less than the two passes do (the
// store warm-ups ride on the load probes' translations; the sweep setup is
// paid once).
func TestUserScanFusedMatchesTwoPass(t *testing.T) {
	for _, seed := range []uint64{900, 901, 907} {
		want := userScanTwoPassResult(t, seed, Options{Workers: 0})
		if len(want.Regions) == 0 {
			t.Fatalf("seed %d: two-pass scan found no regions", seed)
		}
		for _, workers := range []int{0, 1, 4, 8} {
			got := userScanResult(t, seed, Options{Workers: workers})
			if !reflect.DeepEqual(want.Regions, got.Regions) {
				t.Fatalf("seed %d workers=%d: fused regions differ from two-pass\nwant: %+v\ngot:  %+v",
					seed, workers, want.Regions, got.Regions)
			}
			if got.TotalCycles >= want.TotalCycles {
				t.Errorf("seed %d workers=%d: fused scan cost %d sim cycles, two-pass %d — fusion should be cheaper",
					seed, workers, got.TotalCycles, want.TotalCycles)
			}
		}
	}
}

// userScanTwoPassResult is userScanResult for the legacy two-sweep path.
func userScanTwoPassResult(t *testing.T, seed uint64, opt Options) UserScanResult {
	t.Helper()
	return userScanWith(t, seed, opt, UserScanTwoPass)
}

// The two-pass reference implementation keeps its own worker parity (it is
// the yardstick the fused scan is checked against); the settings share one
// pool, so the wider ones run on rebound replicas.
func TestUserScanTwoPassWorkerParity(t *testing.T) {
	base := userScanTwoPassResult(t, 900, Options{Workers: 0})
	pool := NewScanPool()
	for _, workers := range []int{1, 4, 8} {
		got := userScanTwoPassResult(t, 900, Options{Workers: workers, Pool: pool})
		if !reflect.DeepEqual(base, got) {
			t.Fatalf("workers=%d: two-pass UserScanResult differs from workers=0", workers)
		}
	}
}

// The fused scan's load/store cycle split must be worker-count invariant
// (each chunk's sub-pass deltas are deterministic and summed
// commutatively) and add up to the sweep's probing total.
func TestUserScanFusedCycleSplitInvariant(t *testing.T) {
	base := userScanResult(t, 900, Options{Workers: 0})
	if base.LoadCycles == 0 || base.StoreCycles == 0 {
		t.Fatalf("fused scan reported empty cycle split: %+v", base)
	}
	if base.LoadCycles+base.StoreCycles > base.TotalCycles {
		t.Fatalf("cycle split exceeds total: load %d + store %d > total %d",
			base.LoadCycles, base.StoreCycles, base.TotalCycles)
	}
	for _, workers := range []int{1, 4, 8} {
		got := userScanResult(t, 900, Options{Workers: workers})
		if got.LoadCycles != base.LoadCycles || got.StoreCycles != base.StoreCycles {
			t.Fatalf("workers=%d: cycle split (%d, %d) differs from workers=0 (%d, %d)",
				workers, got.LoadCycles, got.StoreCycles, base.LoadCycles, base.StoreCycles)
		}
	}
}
