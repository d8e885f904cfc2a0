// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation. The experiments themselves live in internal/experiments,
// and internal/experiments/testdata/paper.golden records each one's
// paper claim beside the measured value.
//
// Two kinds of numbers come out of each bench:
//
//   - the usual ns/op, which is the *simulator's* host cost (meaningless
//     for the paper comparison), and
//   - custom metrics (sim_ms, accuracy_pct, ...) carrying the *simulated*
//     runtimes and accuracies that correspond to the paper's reported
//     values.
//
// Run: go test -bench=. -benchmem
package repro

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/avx"
	"repro/internal/baseline"
	"repro/internal/behavior"
	"repro/internal/core"
	"repro/internal/defense"
	"repro/internal/experiments"
	"repro/internal/linux"
	"repro/internal/machine"
	"repro/internal/paging"
	"repro/internal/phys"
	"repro/internal/uarch"
	"repro/internal/userspace"
)

// benchScale keeps the full bench sweep within a few minutes while
// preserving every experiment's structure (experiments.Scale documents
// each scaled parameter against the paper's value).
func benchScale() experiments.Scale {
	sc := experiments.DefaultScale()
	sc.TrialsBase = 300
	sc.TrialsModules = 12
	sc.UserEntropyBits = 15
	sc.AzureMaxSlot = 20000
	sc.KVASMaxSlot = 2048
	return sc
}

func reportShape(b *testing.B, rep experiments.Report) {
	b.Helper()
	if !rep.OK {
		b.Fatalf("%s shape mismatch: %s", rep.ID, rep.Measured)
	}
	b.Logf("%s — paper: %s — measured: %s", rep.ID, rep.PaperClaim, rep.Measured)
}

// BenchmarkFig1FaultSuppression regenerates Figure 1's fault/suppression
// matrix.
func BenchmarkFig1FaultSuppression(b *testing.B) {
	sc := benchScale()
	var rep experiments.Report
	for i := 0; i < b.N; i++ {
		sc.Seed = 0x5eed + uint64(i)
		rep = experiments.Fig1FaultSuppression(sc)
	}
	reportShape(b, rep)
}

// BenchmarkFig2PageTypeTiming regenerates Figure 2 (per-page-class timing
// and PMCs on the i7-1065G7).
func BenchmarkFig2PageTypeTiming(b *testing.B) {
	sc := benchScale()
	var rep experiments.Report
	for i := 0; i < b.N; i++ {
		sc.Seed = 0x5eed + uint64(i)
		rep = experiments.Fig2PageTypes(sc)
	}
	reportShape(b, rep)
}

// BenchmarkFig2bPageTableLevels regenerates the §III-B walk-termination-
// level experiment (PD < PDPT < PML4 < PT on the i9-9900).
func BenchmarkFig2bPageTableLevels(b *testing.B) {
	sc := benchScale()
	var rep experiments.Report
	for i := 0; i < b.N; i++ {
		sc.Seed = 0x5eed + uint64(i)
		rep = experiments.Fig2bPageTableLevels(sc)
	}
	reportShape(b, rep)
}

// BenchmarkFig2cTLBState regenerates the §III-B TLB-state experiment
// (381 vs 147 cycles).
func BenchmarkFig2cTLBState(b *testing.B) {
	sc := benchScale()
	var rep experiments.Report
	for i := 0; i < b.N; i++ {
		sc.Seed = 0x5eed + uint64(i)
		rep = experiments.Fig2cTLBState(sc)
	}
	reportShape(b, rep)
}

// BenchmarkFig3Permissions regenerates Figure 3 (load/store timing by page
// permission).
func BenchmarkFig3Permissions(b *testing.B) {
	sc := benchScale()
	var rep experiments.Report
	for i := 0; i < b.N; i++ {
		sc.Seed = 0x5eed + uint64(i)
		rep = experiments.Fig3Permissions(sc)
	}
	reportShape(b, rep)
}

// BenchmarkFig3bLoadVsStore regenerates the §III-B property-6 comparison.
func BenchmarkFig3bLoadVsStore(b *testing.B) {
	sc := benchScale()
	var rep experiments.Report
	for i := 0; i < b.N; i++ {
		sc.Seed = 0x5eed + uint64(i)
		rep = experiments.Fig3bLoadVsStore(sc)
	}
	reportShape(b, rep)
}

// BenchmarkFig4KernelBaseScan regenerates Figure 4 (the 512-offset Alder
// Lake scan) and reports the simulated probing/total runtimes next to the
// paper's 67 µs / 0.28 ms.
func BenchmarkFig4KernelBaseScan(b *testing.B) {
	preset := uarch.AlderLake12400F()
	var probeUS, totalMS float64
	ok := 0
	for i := 0; i < b.N; i++ {
		seed := uint64(i) + 1
		m := machine.New(preset, seed)
		k, err := linux.Boot(m, linux.Config{Seed: seed})
		if err != nil {
			b.Fatal(err)
		}
		p, err := core.NewProber(m, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		res, err := core.KernelBase(p)
		if err != nil {
			b.Fatal(err)
		}
		if res.Base == k.Base {
			ok++
		}
		probeUS += res.ProbeSeconds(preset) * 1e6
		totalMS += res.TotalSeconds(preset) * 1e3
	}
	b.ReportMetric(probeUS/float64(b.N), "sim_probe_us")
	b.ReportMetric(totalMS/float64(b.N), "sim_total_ms")
	b.ReportMetric(100*float64(ok)/float64(b.N), "accuracy_pct")
}

// BenchmarkTable1DerandomizeKASLR regenerates Table I (runtime + accuracy
// for base and modules on the three CPUs).
func BenchmarkTable1DerandomizeKASLR(b *testing.B) {
	sc := benchScale()
	var rep experiments.Report
	for i := 0; i < b.N; i++ {
		sc.Seed = 0x5eed + uint64(i)
		rep = experiments.Table1(sc)
	}
	reportShape(b, rep)
	b.Logf("\n%s", rep.Text)
}

// BenchmarkFig5ModuleIdent regenerates Figure 5 (module detection and
// size classification on the i7-1065G7).
func BenchmarkFig5ModuleIdent(b *testing.B) {
	preset := uarch.IceLake1065G7()
	var probeMS, acc float64
	for i := 0; i < b.N; i++ {
		seed := uint64(i) + 5
		m := machine.New(preset, seed)
		k, err := linux.Boot(m, linux.Config{Seed: seed})
		if err != nil {
			b.Fatal(err)
		}
		p, err := core.NewProber(m, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		table := core.SizeTable(k.ProcModules())
		res := core.Modules(p, table)
		score := core.ScoreModules(res, k.Modules, table)
		probeMS += preset.CyclesToSeconds(res.ProbeCycles) * 1e3
		acc += score.DetectionAccuracy()
	}
	b.ReportMetric(probeMS/float64(b.N), "sim_probe_ms")
	b.ReportMetric(100*acc/float64(b.N), "accuracy_pct")
}

// BenchmarkSec4dKPTI regenerates the §IV-D KPTI trampoline break.
func BenchmarkSec4dKPTI(b *testing.B) {
	sc := benchScale()
	var rep experiments.Report
	for i := 0; i < b.N; i++ {
		sc.Seed = 0x5eed + uint64(i)
		rep = experiments.Sec4dKPTI(sc)
	}
	reportShape(b, rep)
}

// BenchmarkFig6BehaviorSpy regenerates Figure 6 (Bluetooth/mouse
// inference over 100 s at 1 Hz).
func BenchmarkFig6BehaviorSpy(b *testing.B) {
	sc := benchScale()
	var rep experiments.Report
	for i := 0; i < b.N; i++ {
		sc.Seed = 0x5eed + uint64(i)
		rep = experiments.Fig6BehaviorSpy(sc)
	}
	reportShape(b, rep)
}

// BenchmarkFig7SGXFineGrained regenerates the §IV-F in-enclave scan at the
// bench entropy (extrapolation in the report text).
func BenchmarkFig7SGXFineGrained(b *testing.B) {
	sc := benchScale()
	var rep experiments.Report
	for i := 0; i < b.N; i++ {
		sc.Seed = 0x5eed + uint64(i)
		rep = experiments.Fig7SGXFineGrained(sc)
	}
	reportShape(b, rep)
}

// BenchmarkSec4gWindows regenerates §IV-G (the full 2^18-slot Windows scan
// plus the windowed KVAS scan).
func BenchmarkSec4gWindows(b *testing.B) {
	sc := benchScale()
	var rep experiments.Report
	for i := 0; i < b.N; i++ {
		sc.Seed = 0x5eed + uint64(i)
		rep = experiments.Sec4gWindows(sc)
	}
	reportShape(b, rep)
}

// BenchmarkSec4hCloud regenerates §IV-H (EC2, GCE, Azure).
func BenchmarkSec4hCloud(b *testing.B) {
	sc := benchScale()
	var rep experiments.Report
	for i := 0; i < b.N; i++ {
		sc.Seed = 0x5eed + uint64(i)
		rep = experiments.Sec4hCloud(sc)
	}
	reportShape(b, rep)
}

// BenchmarkSec5Defenses regenerates the §V countermeasure evaluation.
func BenchmarkSec5Defenses(b *testing.B) {
	sc := benchScale()
	var rep experiments.Report
	for i := 0; i < b.N; i++ {
		sc.Seed = 0x5eed + uint64(i)
		rep = experiments.Sec5Defenses(sc)
	}
	reportShape(b, rep)
}

// BenchmarkBaselineComparison contrasts the AVX attack with the prefetch
// and TSX baselines on the same machines.
func BenchmarkBaselineComparison(b *testing.B) {
	sc := benchScale()
	var rep experiments.Report
	for i := 0; i < b.N; i++ {
		sc.Seed = 0x5eed + uint64(i)
		rep = experiments.BaselineComparison(sc)
	}
	reportShape(b, rep)
}

// --- Micro-benchmarks of the simulator itself (host cost per probe) and
// --- ablations of the attack's design choices.

// BenchmarkScan measures the sharded scan engine on the full module-region
// sweep (16384 pages — the heaviest recurring scan in Table I) across
// worker counts. The workers=1 case is the sequential baseline; the
// speedup at 8 workers is the engine's headline number (wall-clock scaling
// is bounded by host cores, so expect ~1× in a single-core container and
// ~Nx on an N-core host — output is bit-identical either way).
func BenchmarkScan(b *testing.B) {
	pages := int(linux.ModuleRegionSize / paging.Page4K)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			m := machine.New(uarch.AlderLake12400F(), 1)
			if _, err := linux.Boot(m, linux.Config{Seed: 1}); err != nil {
				b.Fatal(err)
			}
			p, err := core.NewProber(m, core.Options{Workers: workers, Pool: core.NewScanPool()})
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(pages)) // pages probed per op, for MB/s-style throughput
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.ScanMapped(linux.ModuleRegionBase, pages, paging.Page4K)
			}
			b.ReportMetric(float64(pages)*float64(b.N)/b.Elapsed().Seconds(), "probes/s")
		})
	}
}

// benchUserScan drives the fused §IV-F user scan over a libc-sized window,
// with a session pool so steady-state scans reuse their worker replicas.
// sim_ms is the simulated attacker runtime per scan (the paper's 51 s +
// 44 s passes are over 2^28 pages; this window is ~0.5 k pages).
func benchUserScan(b *testing.B, workers int) {
	m := machine.New(uarch.IceLake1065G7(), 900)
	if _, err := linux.Boot(m, linux.Config{Seed: 900}); err != nil {
		b.Fatal(err)
	}
	proc, err := userspace.Build(m, userspace.Config{Seed: 900, EntropyBits: 10, HideLastRWPage: true})
	if err != nil {
		b.Fatal(err)
	}
	p, err := core.NewProber(m, core.Options{Workers: workers, Pool: core.NewScanPool()})
	if err != nil {
		b.Fatal(err)
	}
	libc := proc.Libs[0]
	lo, hi := libc.Base-4*paging.Page4K, libc.End()+8*paging.Page4K
	pages := int(uint64(hi-lo) >> 12)
	b.SetBytes(int64(pages))
	b.ResetTimer()
	var simCycles uint64
	for i := 0; i < b.N; i++ {
		simCycles += core.UserScan(p, lo, hi).TotalCycles
	}
	b.ReportMetric(m.Preset.CyclesToSeconds(simCycles/uint64(b.N))*1e3, "sim_ms")
	b.ReportMetric(float64(pages)*float64(b.N)/b.Elapsed().Seconds(), "probes/s")
}

// BenchmarkUserScanFused measures the fused §IV-F user scan (the UserScan
// default): one engine sweep whose chunks run the load and store probes
// together. Compare host ms/op and sim_ms against internal/core's
// BenchmarkUserScanTwoPass — fusion halves the sweep setup and lets store
// warm-ups reuse the load probes' translations.
func BenchmarkUserScanFused(b *testing.B) {
	for _, workers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			benchUserScan(b, workers)
		})
	}
}

// BenchmarkBehaviorSpy measures the engine-based §IV-E behavior spy: a
// 100-tick (1 Hz, Figure 6 shape) window against the bluetooth+psmouse
// victim, time-sharded across workers with a session pool. ticks/s is the
// spy-tick throughput (each tick = driver replay + 2×10 page probes +
// eviction); sim_ms is the simulated attacker time per window.
func BenchmarkBehaviorSpy(b *testing.B) {
	for _, workers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			m := machine.New(uarch.IceLake1065G7(), 901)
			k, err := linux.Boot(m, linux.Config{Seed: 901})
			if err != nil {
				b.Fatal(err)
			}
			p, err := core.NewProber(m, core.Options{Workers: workers, Pool: core.NewScanPool()})
			if err != nil {
				b.Fatal(err)
			}
			targets, err := core.LocateTargets(core.Modules(p, core.SizeTable(k.ProcModules())), "bluetooth", "psmouse")
			if err != nil {
				b.Fatal(err)
			}
			bt := behavior.FixedTimeline(behavior.BluetoothAudio(), behavior.Interval{Start: 10, End: 40})
			ms := behavior.FixedTimeline(behavior.MouseMovement(), behavior.Interval{Start: 50, End: 70})
			drv, err := behavior.NewDriver(k, bt, ms)
			if err != nil {
				b.Fatal(err)
			}
			spy := &core.BehaviorSpy{P: p, Targets: targets, PagesPerModule: 10, TickSec: 1}
			const ticks = 100
			b.ResetTimer()
			t0 := m.RDTSC()
			for i := 0; i < b.N; i++ {
				if _, err := spy.RunWindow(drv, 0, ticks); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(m.Preset.CyclesToSeconds((m.RDTSC()-t0)/uint64(b.N))*1e3, "sim_ms")
			b.ReportMetric(float64(ticks)*float64(b.N)/b.Elapsed().Seconds(), "ticks/s")
		})
	}
}

// BenchmarkTermSweep measures the AMD walk-termination-level sweep (P3)
// over the 512 kernel text slots — the sweep behind Table I's Zen 3 rows —
// on the sharded engine with a session pool.
func BenchmarkTermSweep(b *testing.B) {
	for _, workers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			m := machine.New(uarch.Zen3_5600X(), 300)
			if _, err := linux.Boot(m, linux.Config{Seed: 300}); err != nil {
				b.Fatal(err)
			}
			p, err := core.NewProber(m, core.Options{Workers: workers, Pool: core.NewScanPool()})
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(linux.TextSlots))
			b.ResetTimer()
			t0 := m.RDTSC()
			for i := 0; i < b.N; i++ {
				p.ScanTermLevel(linux.TextRegionBase, linux.TextSlots, paging.Page2M,
					core.AMDTermSamples, p.PTTermThreshold())
			}
			b.ReportMetric(m.Preset.CyclesToSeconds((m.RDTSC()-t0)/uint64(b.N))*1e3, "sim_ms")
			b.ReportMetric(float64(linux.TextSlots)*float64(b.N)/b.Elapsed().Seconds(), "probes/s")
		})
	}
}

// BenchmarkProbeMapped measures the host cost of one double-execution
// probe (the simulator's hot path).
func BenchmarkProbeMapped(b *testing.B) {
	m := machine.New(uarch.AlderLake12400F(), 1)
	if _, err := linux.Boot(m, linux.Config{Seed: 1}); err != nil {
		b.Fatal(err)
	}
	p, err := core.NewProber(m, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.ProbeMapped(linux.TextRegionBase + paging.VirtAddr(uint64(i%512)<<21))
	}
}

// BenchmarkExecMasked measures one simulated masked load.
func BenchmarkExecMasked(b *testing.B) {
	m := machine.New(uarch.IceLake1065G7(), 1)
	if _, err := linux.Boot(m, linux.Config{Seed: 1}); err != nil {
		b.Fatal(err)
	}
	op := avx.MaskedLoad(linux.TextRegionBase, avx.ZeroMask)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ExecMasked(op)
	}
}

// BenchmarkResetTranslationState measures the translation-state reset the
// scan engine pays per VA chunk (and the behavior spy per tick, every
// session restore and every Rebind), on empty and on full caches.
// reset_ns times the reset alone: each "full" iteration first refills every
// TLB, PSC and PTE-line way, which ns/op includes. A reset that visited
// every entry would cost ~10k slot writes more on "full"; with per-set
// validity bitmaps the two differ only because the refill pushed the
// bitmaps out of the CPU's L1 cache.
func BenchmarkResetTranslationState(b *testing.B) {
	for _, full := range []bool{false, true} {
		name := "empty"
		if full {
			name = "full"
		}
		b.Run(name, func(b *testing.B) {
			m := machine.New(uarch.AlderLake12400F(), 1)
			var reset time.Duration
			for i := 0; i < b.N; i++ {
				if full {
					fillTranslationState(m)
				}
				t0 := time.Now()
				m.ResetTranslationState()
				reset += time.Since(t0)
			}
			b.ReportMetric(float64(reset.Nanoseconds())/float64(b.N), "reset_ns")
		})
	}
}

// fillTranslationState fills every way of m's TLB levels, paging-structure
// caches and PTE-line cache.
func fillTranslationState(m *machine.Machine) {
	for i := 0; i < 2048; i++ { // consecutive pages cover every TLB set
		va := paging.VirtAddr(0x7e0000000000 + uint64(i)*paging.Page4K)
		m.TLB.Fill(va, paging.Walk{VA: va, Mapped: true, Flags: paging.Present | paging.User,
			Size: paging.Page4K, PFN: phys.PFN(i), TermLevel: paging.LevelPT}, 1)
	}
	for i := uint64(0); i < 64; i++ { // distinct tags in every PSC set
		m.PSC.Fill(paging.VirtAddr(i<<39|i<<30|i<<21), paging.LevelPT, true, 1)
	}
	lines := m.PTELines.Sets() * m.PTELines.Ways()
	for line := 0; line < lines; line++ { // eight PTEs per 64-byte line
		m.PTELines.Touch(phys.PFN(line/64), line%64*8)
	}
}

// BenchmarkAblationSingleVsDoubleExec quantifies why the attack measures
// the *second* execution: single-shot probes of mapped kernel pages pay
// the walk and lose the TLB-hit separation.
func BenchmarkAblationSingleVsDoubleExec(b *testing.B) {
	preset := uarch.AlderLake12400F()
	sep := func(double bool) float64 {
		m := machine.New(preset, 7)
		k, err := linux.Boot(m, linux.Config{Seed: 7})
		if err != nil {
			b.Fatal(err)
		}
		var mapped, unmapped float64
		for i := 0; i < 200; i++ {
			m.EvictTLB()
			if double {
				m.ExecMasked(avx.MaskedLoad(k.Base, avx.ZeroMask))
			}
			t1, _ := m.Measure(avx.MaskedLoad(k.Base, avx.ZeroMask))
			mapped += t1
			t2, _ := m.Measure(avx.MaskedLoad(k.Base-8*paging.Page2M, avx.ZeroMask))
			unmapped += t2
		}
		return (unmapped - mapped) / 200
	}
	var s1, s2 float64
	for i := 0; i < b.N; i++ {
		s1 = sep(false)
		s2 = sep(true)
	}
	b.ReportMetric(s1, "sep_single_cyc")
	b.ReportMetric(s2, "sep_double_cyc")
	if s2 <= s1 {
		b.Fatal("double-execution probing should separate classes better")
	}
}

// BenchmarkAblationMinOfK quantifies the min-of-k estimator's effect on
// base-attack accuracy under the same noise.
func BenchmarkAblationMinOfK(b *testing.B) {
	preset := uarch.AlderLake12400F()
	run := func(samples, trials int) float64 {
		ok := 0
		for t := 0; t < trials; t++ {
			seed := uint64(t)*13 + 5
			m := machine.New(preset, seed)
			k, err := linux.Boot(m, linux.Config{Seed: seed})
			if err != nil {
				b.Fatal(err)
			}
			p, err := core.NewProber(m, core.Options{ProbeSamples: samples})
			if err != nil {
				b.Fatal(err)
			}
			res, err := core.KernelBase(p)
			if err == nil && res.Base == k.Base {
				ok++
			}
		}
		return 100 * float64(ok) / float64(trials)
	}
	var acc1, acc3 float64
	for i := 0; i < b.N; i++ {
		acc1 = run(1, 60)
		acc3 = run(3, 60)
	}
	b.ReportMetric(acc1, "acc_k1_pct")
	b.ReportMetric(acc3, "acc_k3_pct")
}

// BenchmarkAblationPSC contrasts probe cost with and without the paging-
// structure caches (a simulator design choice, modelled by tlb.PSC).
func BenchmarkAblationPSC(b *testing.B) {
	preset := uarch.Zen3_5600X()
	cost := func(psc bool) float64 {
		m := machine.New(preset, 3)
		k, err := linux.Boot(m, linux.Config{Seed: 3})
		if err != nil {
			b.Fatal(err)
		}
		m.PSC.Enabled = psc
		var sum float64
		for i := 0; i < 500; i++ {
			// Flush the TLB and the PTE lines but leave the PSC intact:
			// a real attacker sweep would displace the PSC too, so this
			// isolates the PSC's contribution (skipped upper-level line
			// fetches) as a simulator ablation, not an attack variant.
			m.TLB.Flush(false)
			m.PTELines.Flush()
			r := m.ExecMasked(avx.MaskedLoad(k.Base, avx.ZeroMask))
			sum += r.Cycles
		}
		return sum / 500
	}
	var with, without float64
	for i := 0; i < b.N; i++ {
		with = cost(true)
		without = cost(false)
	}
	b.ReportMetric(with, "walk_with_psc_cyc")
	b.ReportMetric(without, "walk_no_psc_cyc")
}

// BenchmarkAblationEvictionQuality contrasts full-flush vs targeted
// eviction on the AMD probing cost (Table I's AMD runtime driver).
func BenchmarkAblationEvictionQuality(b *testing.B) {
	preset := uarch.Zen3_5600X()
	m := machine.New(preset, 9)
	k, err := linux.Boot(m, linux.Config{Seed: 9})
	if err != nil {
		b.Fatal(err)
	}
	var fullCost, targetedCost float64
	for i := 0; i < b.N; i++ {
		t0 := m.RDTSC()
		for j := 0; j < 100; j++ {
			m.EvictTLB()
			m.EvictPTELines()
			m.ExecMasked(avx.MaskedLoad(k.Base, avx.ZeroMask))
		}
		fullCost = float64(m.RDTSC()-t0) / 100
		t0 = m.RDTSC()
		for j := 0; j < 100; j++ {
			m.EvictTranslation(k.Base)
			m.ExecMasked(avx.MaskedLoad(k.Base, avx.ZeroMask))
		}
		targetedCost = float64(m.RDTSC()-t0) / 100
	}
	b.ReportMetric(fullCost, "full_evict_cyc")
	b.ReportMetric(targetedCost, "targeted_evict_cyc")
	if targetedCost >= fullCost {
		b.Fatal("targeted eviction should be cheaper than full sweeps")
	}
}

// BenchmarkAblationEstimator contrasts the paper's single-sample min
// estimator with the robust trimmed-mean/two-sided configuration under
// heavy jitter (σ=4 cycles ≈ a third of the class gap): the paper config
// collapses, the robust config holds.
func BenchmarkAblationEstimator(b *testing.B) {
	preset := uarch.AlderLake12400F()
	preset.NoiseSigma = 4.0
	run := func(opt core.Options, trials int) float64 {
		ok := 0
		for t := 0; t < trials; t++ {
			seed := uint64(t)*7 + 31
			m := machine.New(preset, seed)
			k, err := linux.Boot(m, linux.Config{Seed: seed})
			if err != nil {
				b.Fatal(err)
			}
			p, err := core.NewProber(m, opt)
			if err != nil {
				b.Fatal(err)
			}
			res, err := core.KernelBase(p)
			if err == nil && res.Base == k.Base {
				ok++
			}
		}
		return 100 * float64(ok) / float64(trials)
	}
	var paperAcc, robustAcc float64
	for i := 0; i < b.N; i++ {
		paperAcc = run(core.Options{}, 25)
		robustAcc = run(core.Options{ProbeSamples: 16, Estimator: core.EstTrimmedMean, TwoSided: true}, 25)
	}
	b.ReportMetric(paperAcc, "paper_cfg_acc_pct")
	b.ReportMetric(robustAcc, "robust_cfg_acc_pct")
	if robustAcc < paperAcc {
		b.Fatal("robust estimator should win under heavy jitter")
	}
}

// BenchmarkAblationRerandPeriod sweeps the re-randomization period against
// the attack runtime (the §V-A mitigation's cost driver): the exploitation
// window closes only when the period approaches the sub-millisecond attack
// runtime.
func BenchmarkAblationRerandPeriod(b *testing.B) {
	periods := []float64{1, 0.1, 0.01, 0.001, 0.0001}
	var attackSec float64
	var crossover float64
	for i := 0; i < b.N; i++ {
		points, a, err := defense.RerandomizationSweep(uarch.AlderLake12400F(), 5, periods)
		if err != nil {
			b.Fatal(err)
		}
		attackSec = a
		crossover = 0
		for _, pt := range points {
			if pt.Exploitable {
				crossover = pt.PeriodSec
			}
		}
	}
	b.ReportMetric(attackSec*1e6, "attack_us")
	b.ReportMetric(crossover*1e6, "min_exploitable_period_us")
}

// BenchmarkBaselinePrefetch measures the prefetch baseline end to end.
func BenchmarkBaselinePrefetch(b *testing.B) {
	preset := uarch.AlderLake12400F()
	var simMS float64
	for i := 0; i < b.N; i++ {
		seed := uint64(i) + 11
		m := machine.New(preset, seed)
		k, err := linux.Boot(m, linux.Config{Seed: seed})
		if err != nil {
			b.Fatal(err)
		}
		res, err := baseline.PrefetchKASLR(m, 16)
		if err != nil || res.Base != k.Base {
			b.Fatalf("prefetch baseline failed: %v", err)
		}
		simMS += preset.CyclesToSeconds(res.TotalCycles) * 1e3
	}
	b.ReportMetric(simMS/float64(b.N), "sim_total_ms")
}
