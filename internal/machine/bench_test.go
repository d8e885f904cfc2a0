package machine_test

import (
	"testing"
	"time"

	"repro/internal/avx"
	"repro/internal/linux"
	"repro/internal/machine"
	"repro/internal/paging"
	"repro/internal/phys"
	"repro/internal/uarch"
)

// BenchmarkExecMasked measures one simulated masked load on each path the
// probes take:
//
//   - hit: the kernel's first text page, re-executed, so after the first
//     call every iteration is an L1 DTLB hit (the Intel preset fills the
//     TLB for supervisor pages);
//   - miss: an unmapped module-region page, a TLB miss and page walk on
//     every iteration;
//   - batch: MeasureBatch over the 16,384-page module region with one
//     warm-up and one sample per page, the §IV-C module sweep's shape,
//     reported per executed op.
func BenchmarkExecMasked(b *testing.B) {
	m := machine.New(uarch.IceLake1065G7(), 1)
	k, err := linux.Boot(m, linux.Config{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("hit", func(b *testing.B) {
		op := avx.MaskedLoad(k.Base, avx.ZeroMask)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m.ExecMasked(op)
		}
	})
	b.Run("miss", func(b *testing.B) {
		va := unmappedModulePage(b, m)
		op := avx.MaskedLoad(va, avx.ZeroMask)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.ExecMasked(op)
		}
	})
	b.Run("batch", func(b *testing.B) {
		pages := int(linux.ModuleRegionSize / paging.Page4K)
		ops := make([]avx.Op, pages)
		for i := range ops {
			ops[i] = avx.MaskedLoad(linux.ModuleRegionBase+paging.VirtAddr(i)*paging.Page4K, avx.ZeroMask)
		}
		out := make([]float64, pages)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.MeasureBatch(ops, 1, 1, out)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(2*pages), "ns/exec")
	})
}

// unmappedModulePage returns a page of the module region that no module
// maps.
func unmappedModulePage(b *testing.B, m *machine.Machine) paging.VirtAddr {
	end := linux.ModuleRegionBase + paging.VirtAddr(linux.ModuleRegionSize)
	for va := linux.ModuleRegionBase; va < end; va += paging.Page4K {
		if w := m.KernelAS.Translate(va, nil); !w.Mapped {
			return va
		}
	}
	b.Fatal("the module region is fully mapped")
	return 0
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
		m.TLB.Fill(va, &paging.Walk{VA: va, Mapped: true, Flags: paging.Present | paging.User,
			Size: paging.Page4K, PFN: phys.PFN(i), TermLevel: paging.LevelPT}, 1)
	}
	for i := uint64(0); i < 64; i++ { // distinct tags in every PSC set
		m.PSC.Fill(paging.VirtAddr(i<<39|i<<30|i<<21), paging.LevelPT, 1)
	}
	lines := m.PTELines.Sets() * m.PTELines.Ways()
	for line := 0; line < lines; line++ { // eight PTEs per 64-byte line
		m.PTELines.Touch(phys.PFN(line/64), line%64*8)
	}
}
