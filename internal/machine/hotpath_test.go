package machine

import (
	"testing"

	"repro/internal/avx"
	"repro/internal/paging"
	"repro/internal/perf"
	"repro/internal/phys"
	"repro/internal/uarch"
)

// The probing hot path must not allocate: ScanMapped issues millions of
// ExecMasked calls per sweep, and per-call garbage was the dominant host
// cost before the scratch-buffer rewrite.
func TestExecMaskedZeroAlloc(t *testing.T) {
	m := New(uarch.IceLake1065G7(), 1)
	if err := m.MapUser(0x7e0000000000, 4*paging.Page4K, paging.Writable); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		op   avx.Op
	}{
		{"zero-mask load, unmapped kernel", avx.MaskedLoad(0xffffffff81000000, avx.ZeroMask)},
		{"zero-mask load, mapped user", avx.MaskedLoad(0x7e0000000000, avx.ZeroMask)},
		{"zero-mask load, straddling", avx.MaskedLoad(0x7e0000000ff0, avx.ZeroMask)},
		{"zero-mask store", avx.MaskedStore(0x7e0000001000, avx.ZeroMask)},
	}
	for _, tc := range cases {
		op := tc.op
		if n := testing.AllocsPerRun(1000, func() { m.ExecMasked(op) }); n > 0 {
			t.Errorf("%s: %v allocs/op, want 0", tc.name, n)
		}
	}
	// The full measurement bracket (fences + noise) must stay
	// allocation-free too.
	op := avx.MaskedLoad(0xffffffff81000000, avx.ZeroMask)
	if n := testing.AllocsPerRun(1000, func() { m.Measure(op) }); n > 0 {
		t.Errorf("Measure: %v allocs/op, want 0", n)
	}
	// So must the AMD term-level probe step: targeted eviction + measure
	// runs 16× per slot over 512 slots per sweep.
	if n := testing.AllocsPerRun(1000, func() {
		m.EvictTranslation(0x7e0000000000)
		m.Measure(avx.MaskedLoad(0x7e0000000000, avx.ZeroMask))
	}); n > 0 {
		t.Errorf("EvictTranslation+Measure: %v allocs/op, want 0", n)
	}
}

// Clone shares the victim's address spaces copy-on-read but owns all
// attacker-local microarchitectural state.
func TestCloneSharesAddressSpacePrivateState(t *testing.T) {
	m := New(uarch.AlderLake12400F(), 5)
	if err := m.MapUser(0x7e0000000000, 2*paging.Page4K, paging.Writable); err != nil {
		t.Fatal(err)
	}
	c := m.Clone(77)
	if c.UserAS != m.UserAS || c.KernelAS != m.KernelAS {
		t.Fatal("clone does not share the address spaces")
	}
	if c.TLB == m.TLB || c.PSC == m.PSC || c.PTELines == m.PTELines {
		t.Fatal("clone shares mutable microarchitectural state")
	}
	// The clone sees the parent's mappings...
	if !c.UserAS.Translate(0x7e0000000000, nil).Mapped {
		t.Fatal("clone cannot translate the parent's mapping")
	}
	// ...but its TLB fills and counter increments do not leak into the
	// parent. The zero-mask load misses the clone's empty TLB, so it must
	// count a TLB miss there and nowhere else.
	c.ExecMasked(avx.MaskedLoad(0x7e0000000000, avx.ZeroMask))
	if n := m.TLB.EntryCount(); n != 0 {
		t.Fatalf("clone probe installed %d entries in the parent TLB", n)
	}
	if c.Counters.Read(perf.TLBMiss) == 0 {
		t.Fatal("clone probe did not count its TLB miss")
	}
	if m.Counters.Read(perf.TLBMiss) != 0 {
		t.Fatal("clone probe incremented the parent's counters")
	}
}

// Two clones with the same noise seed must produce identical measurement
// streams for the same probe sequence — the property the scan engine's
// per-chunk determinism is built on.
func TestCloneDeterministicMeasurements(t *testing.T) {
	m := New(uarch.AlderLake12400F(), 9)
	if err := m.MapUser(0x7e0000000000, 8*paging.Page4K, paging.Writable); err != nil {
		t.Fatal(err)
	}
	run := func(seed uint64) []float64 {
		c := m.Clone(seed)
		c.ReseedNoise(seed)
		c.ResetTranslationState()
		var out []float64
		for i := 0; i < 32; i++ {
			va := paging.VirtAddr(0x7e0000000000 + uint64(i%8)*paging.Page4K)
			t1, _ := c.Measure(avx.MaskedLoad(va, avx.ZeroMask))
			out = append(out, t1)
		}
		return out
	}
	a, b := run(123), run(123)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("measurement %d differs: %v vs %v", i, a[i], b[i])
		}
	}
	c := run(456)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different noise seeds produced identical measurement streams")
	}
}

// Rebind must reuse the replica's microarchitectural structures instead of
// reallocating them — that reuse is the entire point of the persistent
// scan pool (Clone pays for fresh TLB/PSC/PTE-line sets on every call;
// a pooled rebind must cost roughly nothing).
func TestRebindReusesReplicaAllocations(t *testing.T) {
	m := New(uarch.AlderLake12400F(), 21)
	if err := m.MapUser(0x7e0000000000, 4*paging.Page4K, paging.Writable); err != nil {
		t.Fatal(err)
	}
	c := m.Clone(1)
	cloneAllocs := testing.AllocsPerRun(20, func() { m.Clone(2) })
	rebindAllocs := testing.AllocsPerRun(20, func() { c.Rebind(m) })
	t.Logf("allocs: clone %.0f, rebind %.0f", cloneAllocs, rebindAllocs)
	if rebindAllocs > 2 {
		t.Errorf("Rebind allocates %.0f, want ~0 (clone costs %.0f)", rebindAllocs, cloneAllocs)
	}
	if cloneAllocs < 10 {
		t.Errorf("Clone allocates only %.0f — alloc-guard baseline looks wrong", cloneAllocs)
	}
}

// A rebound replica — even one carrying dirty state from scans against a
// previous victim — must behave exactly like a fresh clone of the current
// parent: same mappings visible, same measurement stream under the same
// noise seed, no counter or write-shadow carry-over.
func TestRebindMatchesFreshClone(t *testing.T) {
	m := New(uarch.AlderLake12400F(), 23)
	if err := m.MapUser(0x7e0000000000, 8*paging.Page4K, paging.Writable); err != nil {
		t.Fatal(err)
	}
	used := m.Clone(1)
	// Dirty the replica: probes warm its TLB, counters and clock.
	for i := 0; i < 16; i++ {
		used.Measure(avx.MaskedLoad(0x7e0000000000+paging.VirtAddr(i%8)*paging.Page4K, avx.ZeroMask))
	}
	// The parent moves on: new mapping, advanced clock.
	if err := m.MapUser(0x7e0000010000, 2*paging.Page4K, paging.Writable); err != nil {
		t.Fatal(err)
	}
	m.AdvanceCycles(12345)

	used.Rebind(m)
	fresh := m.Clone(2)

	if used.RDTSC() != fresh.RDTSC() {
		t.Fatalf("rebound clock %d != fresh clone %d", used.RDTSC(), fresh.RDTSC())
	}
	if used.Counters != fresh.Counters {
		t.Fatal("rebound replica carried counters over")
	}
	if !used.UserAS.Translate(0x7e0000010000, nil).Mapped {
		t.Fatal("rebound replica does not see the parent's new mapping")
	}
	stream := func(c *Machine) []float64 {
		c.ReseedNoise(99)
		c.ResetTranslationState()
		var out []float64
		for i := 0; i < 32; i++ {
			va := paging.VirtAddr(0x7e0000000000 + uint64(i%8)*paging.Page4K)
			v, _ := c.Measure(avx.MaskedLoad(va, avx.ZeroMask))
			out = append(out, v)
		}
		return out
	}
	a, b := stream(used), stream(fresh)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("measurement %d differs after rebind: %v vs %v", i, a[i], b[i])
		}
	}
}

// ResetTranslationState must empty every translation structure.
func TestResetTranslationState(t *testing.T) {
	m := New(uarch.AlderLake12400F(), 11)
	if err := m.MapUser(0x7e0000000000, 4*paging.Page4K, paging.Writable); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		m.ExecMasked(avx.MaskedLoad(0x7e0000000000+paging.VirtAddr(i*paging.Page4K), avx.ZeroMask))
	}
	if m.TLB.EntryCount() == 0 {
		t.Fatal("probes did not warm the TLB")
	}
	m.ResetTranslationState()
	if m.TLB.EntryCount() != 0 || m.PSC.EntryCount() != 0 || m.PTELines.Resident() != 0 {
		t.Fatal("translation state not fully reset")
	}
}

// fillTranslationCaches fills every way of m's TLB levels, paging-structure
// caches and PTE-line cache, and returns how many entries and lines that
// took.
func fillTranslationCaches(m *Machine) (tlbEntries, pscEntries, lines int) {
	for i := 0; i < 2048; i++ { // consecutive pages cover every TLB set
		va := paging.VirtAddr(0x7e0000000000 + uint64(i)*paging.Page4K)
		m.TLB.Fill(va, &paging.Walk{VA: va, Mapped: true, Flags: paging.Present | paging.User,
			Size: paging.Page4K, PFN: phys.PFN(i), TermLevel: paging.LevelPT}, 1)
	}
	for i := uint64(0); i < 64; i++ { // distinct tags in every PSC set
		m.PSC.Fill(paging.VirtAddr(i<<39|i<<30|i<<21), paging.LevelPT, true, 1)
	}
	for line := 0; line < m.PTELines.Sets()*m.PTELines.Ways(); line++ {
		m.PTELines.Touch(phys.PFN(line/64), line%64*8) // eight PTEs per line
	}
	return m.TLB.EntryCount(), m.PSC.EntryCount(), m.PTELines.Resident()
}

// Resetting full caches must leave them empty without allocating. That
// the reset costs the same on full and on empty caches is shown by
// BenchmarkResetTranslationState, not asserted here.
func TestResetTranslationStateOfFullCaches(t *testing.T) {
	m := New(uarch.AlderLake12400F(), 3)
	cfg := m.TLB.Config()
	tlbEntries, pscEntries, lines := fillTranslationCaches(m)
	if want := cfg.L1.Sets*cfg.L1.Ways + cfg.L2.Sets*cfg.L2.Ways; tlbEntries != want {
		t.Fatalf("filled TLB holds %d entries, want %d", tlbEntries, want)
	}
	if pscEntries != 64 {
		t.Fatalf("filled PSC holds %d entries, want 64", pscEntries)
	}
	if want := m.PTELines.Sets() * m.PTELines.Ways(); lines != want {
		t.Fatalf("filled PTE-line cache holds %d lines, want %d", lines, want)
	}
	m.ResetTranslationState()
	if m.TLB.EntryCount() != 0 || m.PSC.EntryCount() != 0 || m.PTELines.Resident() != 0 {
		t.Fatalf("after reset: TLB %d, PSC %d, PTE lines %d, want all 0",
			m.TLB.EntryCount(), m.PSC.EntryCount(), m.PTELines.Resident())
	}
	fillTranslationCaches(m)
	if n := testing.AllocsPerRun(100, m.ResetTranslationState); n > 0 {
		t.Errorf("ResetTranslationState: %v allocs/op, want 0", n)
	}
}
