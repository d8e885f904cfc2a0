package core

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/linux"
	"repro/internal/machine"
	"repro/internal/paging"
	"repro/internal/uarch"
	"repro/internal/userspace"
)

// engineProber boots a fresh victim with the given seed and scan options.
func engineProber(t *testing.T, seed uint64, workers int) (*Prober, *linux.Kernel) {
	t.Helper()
	return engineProberOpt(t, seed, Options{Workers: workers})
}

func engineProberOpt(t *testing.T, seed uint64, opt Options) (*Prober, *linux.Kernel) {
	t.Helper()
	m := machine.New(uarch.AlderLake12400F(), seed)
	k, err := linux.Boot(m, linux.Config{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProber(m, opt)
	if err != nil {
		t.Fatal(err)
	}
	return p, k
}

// The headline determinism guarantee: for the same machine seed, a parallel
// scan (workers > 1) produces bit-identical output — verdicts AND raw cycle
// measurements — to the sequential scans (workers = 1, and the inline
// workers = 0 path, which runs the same engine semantics on the prober's
// own machine).
func TestScanMappedParallelParity(t *testing.T) {
	const seed = 101
	const pages = 2048
	pSeq, _ := engineProber(t, seed, 1)
	mappedSeq, cyclesSeq := pSeq.ScanMapped(linux.ModuleRegionBase, pages, paging.Page4K)

	for _, workers := range []int{0, 2, 8} {
		pPar, _ := engineProber(t, seed, workers)
		mappedPar, cyclesPar := pPar.ScanMapped(linux.ModuleRegionBase, pages, paging.Page4K)
		if !reflect.DeepEqual(mappedSeq, mappedPar) {
			t.Fatalf("workers=%d: mapped bitmap differs from sequential", workers)
		}
		if !reflect.DeepEqual(cyclesSeq, cyclesPar) {
			t.Fatalf("workers=%d: cycle measurements differ from sequential", workers)
		}
		if pSeq.M.RDTSC() != pPar.M.RDTSC() {
			t.Fatalf("workers=%d: simulated clock %d differs from sequential %d",
				workers, pPar.M.RDTSC(), pSeq.M.RDTSC())
		}
	}
}

// userScanWith boots a victim with a userspace process and runs the given
// §IV-F scan variant over its libc window.
func userScanWith(t *testing.T, seed uint64, opt Options, scan func(*Prober, paging.VirtAddr, paging.VirtAddr) UserScanResult) UserScanResult {
	t.Helper()
	p, lo, hi := userScanVictim(t, seed, opt)
	return scan(p, lo, hi)
}

// userScanVictim boots the libc-window user-scan victim at seed and returns
// its calibrated prober and the [lo, hi) window to scan.
func userScanVictim(tb testing.TB, seed uint64, opt Options) (*Prober, paging.VirtAddr, paging.VirtAddr) {
	tb.Helper()
	m := machine.New(uarch.IceLake1065G7(), seed)
	if _, err := linux.Boot(m, linux.Config{Seed: seed}); err != nil {
		tb.Fatal(err)
	}
	proc, err := userspace.Build(m, userspace.Config{Seed: seed, EntropyBits: 10, HideLastRWPage: true})
	if err != nil {
		tb.Fatal(err)
	}
	p, err := NewProber(m, opt)
	if err != nil {
		tb.Fatal(err)
	}
	libc := proc.Libs[0]
	return p, libc.Base - 4*paging.Page4K, libc.End() + 8*paging.Page4K
}

// userScanResult runs the default (fused) §IV-F scan.
func userScanResult(t *testing.T, seed uint64, opt Options) UserScanResult {
	t.Helper()
	return userScanWith(t, seed, opt, UserScan)
}

// The fused §IV-F user scan — load and store sub-probes, healing and
// region merge — must produce a bit-identical UserScanResult (regions AND
// cycle accounting) at workers 0, 1, 4 and 8, across seeds.
func TestUserScanWorkerParity(t *testing.T) {
	for _, seed := range []uint64{900, 901, 907} {
		base := userScanResult(t, seed, Options{Workers: 0})
		if len(base.Regions) == 0 {
			t.Fatalf("seed %d: user scan found no regions", seed)
		}
		for _, workers := range []int{1, 4, 8} {
			got := userScanResult(t, seed, Options{Workers: workers})
			if !reflect.DeepEqual(base, got) {
				t.Fatalf("seed %d workers=%d: UserScanResult differs from workers=0\nbase: %+v\ngot:  %+v",
					seed, workers, base, got)
			}
		}
	}
}

// amdBaseResult runs the AMD (term-level sweep) kernel-base attack.
func amdBaseResult(t *testing.T, seed uint64, opt Options) KernelBaseResult {
	t.Helper()
	m := machine.New(uarch.Zen3_5600X(), seed)
	k, err := linux.Boot(m, linux.Config{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProber(m, opt)
	if err != nil {
		t.Fatal(err)
	}
	res, err := KernelBase(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Base != k.Base {
		t.Fatalf("seed %d: AMD base %#x, truth %#x", seed, uint64(res.Base), uint64(k.Base))
	}
	return res
}

// The AMD walk-termination-level sweep must produce a bit-identical
// KernelBaseResult (per-slot samples AND runtime accounting) at workers
// 0, 1, 4 and 8, across seeds.
func TestTermLevelWorkerParity(t *testing.T) {
	for _, seed := range []uint64{300, 301} {
		base := amdBaseResult(t, seed, Options{Workers: 0})
		for _, workers := range []int{1, 4, 8} {
			got := amdBaseResult(t, seed, Options{Workers: workers})
			if !reflect.DeepEqual(base, got) {
				t.Fatalf("seed %d workers=%d: term-level KernelBaseResult differs from workers=0", seed, workers)
			}
		}
	}
}

// Scans drawing workers from a session pool must match fresh-worker scans
// bit-exactly — including on reuse: the second scan runs on rebound
// replicas and must still match a fresh prober's second scan.
func TestPooledMatchesFresh(t *testing.T) {
	const seed = 113
	const pages = 2048

	freshP, _ := engineProber(t, seed, 4)
	var freshRuns [][]bool
	var freshCycles [][]float64
	for i := 0; i < 3; i++ {
		m, c := freshP.ScanMapped(linux.ModuleRegionBase, pages, paging.Page4K)
		freshRuns, freshCycles = append(freshRuns, m), append(freshCycles, c)
	}

	pool := NewScanPool()
	pooledP, _ := engineProberOpt(t, seed, Options{Workers: 4, Pool: pool})
	for i := 0; i < 3; i++ {
		m, c := pooledP.ScanMapped(linux.ModuleRegionBase, pages, paging.Page4K)
		if !reflect.DeepEqual(m, freshRuns[i]) || !reflect.DeepEqual(c, freshCycles[i]) {
			t.Fatalf("pooled scan %d differs from fresh-worker scan", i)
		}
	}
	if pool.Replicas() != 4 {
		t.Fatalf("pool created %d replicas for a 4-worker prober", pool.Replicas())
	}

	// The sharded user scan and the AMD term sweep must be pool-invariant
	// too (different sweep/verdict types through the same pool).
	usPool := NewScanPool()
	usFresh := userScanResult(t, 900, Options{Workers: 4})
	usPooled := userScanResult(t, 900, Options{Workers: 4, Pool: usPool})
	if !reflect.DeepEqual(usFresh, usPooled) {
		t.Fatal("pooled UserScanResult differs from fresh")
	}
	amdPool := NewScanPool()
	amdFresh := amdBaseResult(t, 300, Options{Workers: 4})
	amdPooled := amdBaseResult(t, 300, Options{Workers: 4, Pool: amdPool})
	if !reflect.DeepEqual(amdFresh, amdPooled) {
		t.Fatal("pooled AMD KernelBaseResult differs from fresh")
	}
}

// One pool must serve scans against different victims in one session: the
// replicas rebind to each new parent machine instead of re-cloning, and
// results still match fresh-worker runs.
func TestPoolReboundAcrossVictims(t *testing.T) {
	pool := NewScanPool()
	for trial, seed := range []uint64{121, 122, 123} {
		fresh, _ := engineProber(t, seed, 4)
		wantM, wantC := fresh.ScanMapped(linux.ModuleRegionBase, 1024, paging.Page4K)

		pooled, _ := engineProberOpt(t, seed, Options{Workers: 4, Pool: pool})
		gotM, gotC := pooled.ScanMapped(linux.ModuleRegionBase, 1024, paging.Page4K)
		if !reflect.DeepEqual(wantM, gotM) || !reflect.DeepEqual(wantC, gotC) {
			t.Fatalf("trial %d: pooled scan against new victim differs from fresh", trial)
		}
	}
	if pool.Replicas() != 4 {
		t.Fatalf("pool grew to %d replicas across victims, want 4", pool.Replicas())
	}
}

// Concurrent scans sharing one pool must not interfere: each gets
// exclusive replicas, and every result matches the same prober's solo run
// (run under -race to catch replica-state leaks).
func TestPoolConcurrentScans(t *testing.T) {
	const pages = 1024
	const iters = 3
	seeds := []uint64{131, 137}

	// Solo expectations, fresh workers.
	expect := make([][][]bool, len(seeds))
	for i, seed := range seeds {
		p, _ := engineProber(t, seed, 2)
		for k := 0; k < iters; k++ {
			m, _ := p.ScanMapped(linux.ModuleRegionBase, pages, paging.Page4K)
			expect[i] = append(expect[i], m)
		}
	}

	pool := NewScanPool()
	probers := make([]*Prober, len(seeds))
	for i, seed := range seeds {
		probers[i], _ = engineProberOpt(t, seed, Options{Workers: 2, Pool: pool})
	}
	var wg sync.WaitGroup
	for i := range probers {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for k := 0; k < iters; k++ {
				m, _ := probers[i].ScanMapped(linux.ModuleRegionBase, pages, paging.Page4K)
				if !reflect.DeepEqual(m, expect[i][k]) {
					t.Errorf("prober %d scan %d: concurrent pooled result differs from solo run", i, k)
					return
				}
			}
		}(i)
	}
	wg.Wait()
}

// The pool's point: a pooled re-scan must not pay the ~170-allocation
// Machine.Clone cost per worker again. Steady-state allocations per scan
// must sit far below even one clone, and far below the fresh-worker path.
func TestPooledRescanDoesNotReclone(t *testing.T) {
	const pages = 1024
	pool := NewScanPool()
	p, _ := engineProberOpt(t, 151, Options{Workers: 4, Pool: pool})
	p.ScanMapped(linux.ModuleRegionBase, pages, paging.Page4K) // warm: clones the 4 replicas
	made := pool.Replicas()

	pooled := testing.AllocsPerRun(5, func() {
		p.ScanMapped(linux.ModuleRegionBase, pages, paging.Page4K)
	})
	if pool.Replicas() != made {
		t.Fatalf("re-scan grew the pool: %d -> %d replicas", made, pool.Replicas())
	}

	pf, _ := engineProber(t, 151, 4)
	fresh := testing.AllocsPerRun(5, func() {
		pf.ScanMapped(linux.ModuleRegionBase, pages, paging.Page4K)
	})

	t.Logf("allocs/scan: pooled %.0f, fresh %.0f", pooled, fresh)
	if pooled > 150 {
		t.Errorf("pooled re-scan allocates %.0f/scan, want far below one ~170-alloc clone", pooled)
	}
	if pooled > fresh/3 {
		t.Errorf("pooled re-scan allocates %.0f/scan vs fresh %.0f — pool not amortizing clones", pooled, fresh)
	}
}

// Engine scans must agree with page-table ground truth (the heal pass
// removes noise flips, so the match should be essentially exact).
func TestScanMappedEngineMatchesGroundTruth(t *testing.T) {
	p, _ := engineProber(t, 103, 4)
	const pages = 4096
	mapped, _ := p.ScanMapped(linux.ModuleRegionBase, pages, paging.Page4K)
	errs := 0
	for i := 0; i < pages; i++ {
		va := linux.ModuleRegionBase + paging.VirtAddr(uint64(i)<<12)
		truth := p.M.KernelAS.Translate(va, nil).Mapped
		if mapped[i] != truth {
			errs++
		}
	}
	if rate := float64(errs) / pages; rate > 0.005 {
		t.Fatalf("engine scan error rate %.4f over %d pages", rate, pages)
	}
	if p.Faults() != 0 {
		t.Fatalf("engine scan delivered %d faults", p.Faults())
	}
}

// The engine folds the workers' simulated probing time back into the base
// machine, so RDTSC-based runtime accounting (Table I) keeps working.
func TestScanMappedEngineAdvancesSimulatedTime(t *testing.T) {
	p, _ := engineProber(t, 105, 4)
	t0 := p.M.RDTSC()
	p.ScanMapped(linux.ModuleRegionBase, 1024, paging.Page4K)
	elapsed := p.M.RDTSC() - t0
	// 1024 double-execution probes cost at least ~100 simulated cycles each.
	if elapsed < 1024*100 {
		t.Fatalf("simulated probing time not accounted: %d cycles", elapsed)
	}
}

// A full attack through the engine must still recover the kernel base and
// the loaded modules.
func TestAttacksThroughEngine(t *testing.T) {
	p, k := engineProber(t, 107, 8)
	res, err := KernelBase(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Base != k.Base {
		t.Fatalf("engine kernel base %#x, truth %#x", uint64(res.Base), uint64(k.Base))
	}

	table := SizeTable(k.ProcModules())
	mres := Modules(p, table)
	score := ScoreModules(mres, k.Modules, table)
	if acc := score.DetectionAccuracy(); acc < 0.98 {
		t.Fatalf("engine module detection accuracy %.3f", acc)
	}
}

// CloneTo must inherit calibration without touching the shared address
// space, and replica probes must classify like the parent's.
func TestCloneToInheritsCalibration(t *testing.T) {
	p, k := engineProber(t, 109, 0)
	clone := p.CloneTo(p.M.Clone(1234))
	// (SlowMean is NaN for one-sided calibration, so compare the decision
	// fields rather than the whole structs.)
	if clone.Threshold.Cycles != p.Threshold.Cycles || clone.StoreThreshold.Cycles != p.StoreThreshold.Cycles {
		t.Fatal("thresholds not inherited")
	}
	if !clone.ProbeMapped(k.Base).Fast {
		t.Fatal("replica probe of mapped kernel base read slow")
	}
	if clone.ProbeMapped(k.Base - 8*paging.Page2M).Fast {
		t.Fatal("replica probe of unmapped slot read fast")
	}
	// The clone's probing must not have perturbed the parent's TLB.
	if clone.M.TLB == p.M.TLB {
		t.Fatal("replica shares the parent's TLB")
	}
}
