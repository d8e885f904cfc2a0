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
