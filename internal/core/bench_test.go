package core

import (
	"fmt"
	"testing"

	"repro/internal/behavior"
	"repro/internal/linux"
	"repro/internal/machine"
	"repro/internal/paging"
	"repro/internal/uarch"
)

// BenchmarkProbeMapped measures the host cost of one double-execution
// probe (the simulator's hot path).
func BenchmarkProbeMapped(b *testing.B) {
	m := machine.New(uarch.AlderLake12400F(), 1)
	if _, err := linux.Boot(m, linux.Config{Seed: 1}); err != nil {
		b.Fatal(err)
	}
	p, err := NewProber(m, Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.ProbeMapped(linux.TextRegionBase + paging.VirtAddr(uint64(i%512)<<21))
	}
}

// BenchmarkScan measures the sharded scan engine on the full module-region
// sweep (16384 pages — the heaviest recurring scan in Table I) across
// worker counts. The workers=1 case is the sequential baseline; wall-clock
// scaling is bounded by host cores, and the output is bit-identical at
// every worker count.
func BenchmarkScan(b *testing.B) {
	pages := int(linux.ModuleRegionSize / paging.Page4K)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			m := machine.New(uarch.AlderLake12400F(), 1)
			if _, err := linux.Boot(m, linux.Config{Seed: 1}); err != nil {
				b.Fatal(err)
			}
			p, err := NewProber(m, Options{Workers: workers, Pool: NewScanPool()})
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

// BenchmarkUserScanFused measures the fused §IV-F user scan (the UserScan
// default) over a libc-sized window: one engine sweep whose chunks run the
// load and store probes together. Compare host ms/op and sim_ms against
// BenchmarkUserScanTwoPass — fusion halves the sweep setup and lets store
// warm-ups reuse the load probes' translations. sim_ms is the simulated
// attacker runtime per scan (the paper's 51 s + 44 s passes are over 2^28
// pages; this window is ~0.5 k pages).
func BenchmarkUserScanFused(b *testing.B) {
	for _, workers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			p, lo, hi := userScanVictim(b, 900, Options{Workers: workers, Pool: NewScanPool()})
			pages := int(uint64(hi-lo) >> 12)
			b.SetBytes(int64(pages))
			b.ResetTimer()
			var simCycles uint64
			for i := 0; i < b.N; i++ {
				simCycles += UserScan(p, lo, hi).TotalCycles
			}
			b.ReportMetric(p.M.Preset.CyclesToSeconds(simCycles/uint64(b.N))*1e3, "sim_ms")
			b.ReportMetric(float64(pages)*float64(b.N)/b.Elapsed().Seconds(), "probes/s")
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
			p, err := NewProber(m, Options{Workers: workers, Pool: NewScanPool()})
			if err != nil {
				b.Fatal(err)
			}
			targets, err := LocateTargets(Modules(p, SizeTable(k.ProcModules())), "bluetooth", "psmouse")
			if err != nil {
				b.Fatal(err)
			}
			bt := behavior.FixedTimeline(behavior.BluetoothAudio(), behavior.Interval{Start: 10, End: 40})
			ms := behavior.FixedTimeline(behavior.MouseMovement(), behavior.Interval{Start: 50, End: 70})
			drv, err := behavior.NewDriver(k, bt, ms)
			if err != nil {
				b.Fatal(err)
			}
			spy := &BehaviorSpy{P: p, Targets: targets, PagesPerModule: 10, TickSec: 1}
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
			p, err := NewProber(m, Options{Workers: workers, Pool: NewScanPool()})
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(linux.TextSlots))
			b.ResetTimer()
			t0 := m.RDTSC()
			for i := 0; i < b.N; i++ {
				p.ScanTermLevel(linux.TextRegionBase, linux.TextSlots, paging.Page2M,
					AMDTermSamples, p.PTTermThreshold())
			}
			b.ReportMetric(m.Preset.CyclesToSeconds((m.RDTSC()-t0)/uint64(b.N))*1e3, "sim_ms")
			b.ReportMetric(float64(linux.TextSlots)*float64(b.N)/b.Elapsed().Seconds(), "probes/s")
		})
	}
}
