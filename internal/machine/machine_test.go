package machine

import (
	"testing"
	"testing/quick"

	"repro/internal/avx"
	"repro/internal/paging"
	"repro/internal/perf"
	"repro/internal/uarch"
)

// testMachine returns a machine with a user page at uva and a kernel 2M
// page at kva, plus an unmapped kernel slot at kva+2M (whose PD exists).
func testMachine(t *testing.T) (m *Machine, uva, kva paging.VirtAddr) {
	t.Helper()
	m = New(uarch.IceLake1065G7(), 1)
	uva = 0x7e0000000000
	if err := m.UserAS.Map(uva, paging.Page4K, m.Alloc.Alloc(), paging.User|paging.Writable); err != nil {
		t.Fatal(err)
	}
	kva = 0xffffffff81200000
	if err := m.KernelAS.Map(kva, paging.Page2M, m.Alloc.AllocContig(512), paging.Global); err != nil {
		t.Fatal(err)
	}
	return m, uva, kva
}

func TestUserMappedLoadFastPath(t *testing.T) {
	m, uva, _ := testMachine(t)
	m.ExecMasked(avx.MaskedLoad(uva, avx.ZeroMask)) // fill TLB
	r := m.ExecMasked(avx.MaskedLoad(uva, avx.ZeroMask))
	if !r.TLBHit || r.Assist || r.Faulted {
		t.Fatalf("result %+v", r)
	}
	if r.Cycles != m.Preset.MaskedLoadBase {
		t.Fatalf("cycles %v, want base %v", r.Cycles, m.Preset.MaskedLoadBase)
	}
}

func TestKernelMappedAssistPlusTLBHit(t *testing.T) {
	m, _, kva := testMachine(t)
	r1 := m.ExecMasked(avx.MaskedLoad(kva, avx.ZeroMask))
	if !r1.Walked || !r1.Assist || r1.Faulted {
		t.Fatalf("first exec %+v", r1)
	}
	r2 := m.ExecMasked(avx.MaskedLoad(kva, avx.ZeroMask))
	if !r2.TLBHit {
		t.Fatal("second exec did not hit the TLB (Intel must fill on kernel probes)")
	}
	want := m.Preset.MaskedLoadBase + m.Preset.AssistLoad
	if r2.Cycles != want {
		t.Fatalf("KERNEL-M second exec %v cycles, want %v", r2.Cycles, want)
	}
}

func TestKernelUnmappedWalksEveryTime(t *testing.T) {
	m, _, kva := testMachine(t)
	un := kva + 4*paging.Page2M // same 1G region: PD exists, PDE empty
	before := m.Counters.Snapshot()
	r1 := m.ExecMasked(avx.MaskedLoad(un, avx.ZeroMask))
	r2 := m.ExecMasked(avx.MaskedLoad(un, avx.ZeroMask))
	d := m.Counters.Delta(before)
	if !r1.Walked || !r2.Walked {
		t.Fatal("unmapped page did not walk on both executions")
	}
	if d[perf.WalkCompletedLoad] != 2 {
		t.Fatalf("walks %d, want 2 (Fig. 2 right panel)", d[perf.WalkCompletedLoad])
	}
	if r1.TermLevel != paging.LevelPD {
		t.Fatalf("termination %v, want PD", r1.TermLevel)
	}
}

func TestAMDNoKernelTLBFill(t *testing.T) {
	m := New(uarch.Zen3_5600X(), 2)
	kva := paging.VirtAddr(0xffffffff81200000)
	if err := m.KernelAS.Map(kva, paging.Page2M, m.Alloc.AllocContig(512), paging.Global); err != nil {
		t.Fatal(err)
	}
	m.ExecMasked(avx.MaskedLoad(kva, avx.ZeroMask))
	r := m.ExecMasked(avx.MaskedLoad(kva, avx.ZeroMask))
	if r.TLBHit {
		t.Fatal("Zen 3 filled the TLB from a user-mode kernel probe (§IV-B says it must not)")
	}
	if !r.Walked {
		t.Fatal("second kernel probe did not walk on AMD")
	}
}

func TestFaultDelivery(t *testing.T) {
	m, _, kva := testMachine(t)
	before := m.Counters.Snapshot()
	r := m.ExecMasked(avx.MaskedLoad(kva, avx.AllMask(8)))
	if !r.Faulted {
		t.Fatal("set-mask kernel load did not fault")
	}
	d := m.Counters.Delta(before)
	if d[perf.PageFault] != 1 {
		t.Fatalf("fault counter %d", d[perf.PageFault])
	}
	if r.Cycles < m.Preset.FaultCost {
		t.Fatal("fault cost not charged")
	}
}

func TestDirtyAssistSequence(t *testing.T) {
	m, uva, _ := testMachine(t)
	m.ExecMasked(avx.MaskedLoad(uva, avx.ZeroMask)) // TLB warm
	before := m.Counters.Snapshot()
	r1 := m.ExecMasked(avx.MaskedStore(uva, avx.AllMask(8)))
	if !r1.Assist {
		t.Fatal("first store to clean page did not assist")
	}
	want := m.Preset.MaskedStoreBase + m.Preset.AssistDirty
	if r1.Cycles != want {
		t.Fatalf("dirty-store cycles %v, want %v (the §IV-B threshold trick)", r1.Cycles, want)
	}
	r2 := m.ExecMasked(avx.MaskedStore(uva, avx.AllMask(8)))
	if r2.Assist {
		t.Fatal("second store assisted again (dirty bit not cached)")
	}
	d := m.Counters.Delta(before)
	if d[perf.DirtyAssist] != 1 {
		t.Fatalf("dirty assists %d, want 1", d[perf.DirtyAssist])
	}
}

func TestStoreAssistCheaperThanLoad(t *testing.T) {
	m, _, kva := testMachine(t)
	m.ExecMasked(avx.MaskedLoad(kva, avx.ZeroMask)) // TLB warm
	rl := m.ExecMasked(avx.MaskedLoad(kva, avx.ZeroMask))
	rs := m.ExecMasked(avx.MaskedStore(kva, avx.ZeroMask))
	diff := rl.Cycles - rs.Cycles
	if diff < 14 || diff > 20 {
		t.Fatalf("P6 difference %v, want 16-18", diff)
	}
}

func TestDataMovementRoundTrip(t *testing.T) {
	m, uva, _ := testMachine(t)
	m.SetVector([8]uint32{10, 20, 30, 40, 50, 60, 70, 80})
	m.ExecMasked(avx.MaskedStore(uva, 0b00001111))
	r := m.ExecMasked(avx.MaskedLoad(uva, avx.AllMask(8)))
	want := [8]uint32{10, 20, 30, 40, 0, 0, 0, 0}
	if r.Data != want {
		t.Fatalf("loaded %v, want %v (masked-out stores must not write)", r.Data, want)
	}
	// Masked-out loads read zero even over nonzero memory.
	r = m.ExecMasked(avx.MaskedLoad(uva, 0b00000011))
	if r.Data[2] != 0 || r.Data[0] != 10 {
		t.Fatalf("zeroing semantics violated: %v", r.Data)
	}
}

func TestReadWriteUser(t *testing.T) {
	m, uva, _ := testMachine(t)
	if err := m.WriteUser(uva+5, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	got, err := m.ReadUser(uva+5, 5)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "hello" {
		t.Fatalf("read %q", got)
	}
	if _, err := m.ReadUser(0x1234000, 1); err == nil {
		t.Fatal("read of unmapped address succeeded")
	}
}

func TestMeasureAdvancesTSC(t *testing.T) {
	m, uva, _ := testMachine(t)
	t0 := m.RDTSC()
	m.Measure(avx.MaskedLoad(uva, avx.ZeroMask))
	if m.RDTSC() <= t0 {
		t.Fatal("TSC did not advance")
	}
}

func TestMeasureIncludesFence(t *testing.T) {
	m, uva, _ := testMachine(t)
	m.ExecMasked(avx.MaskedLoad(uva, avx.ZeroMask))
	var sum float64
	const n = 200
	for i := 0; i < n; i++ {
		meas, _ := m.Measure(avx.MaskedLoad(uva, avx.ZeroMask))
		sum += meas
	}
	mean := sum / n
	want := m.Preset.MaskedLoadBase + m.Preset.FenceOverhead
	if mean < want-4 || mean > want+15 {
		t.Fatalf("measured mean %v, want ~%v", mean, want)
	}
}

func TestEvictTLB(t *testing.T) {
	m, _, kva := testMachine(t)
	m.ExecMasked(avx.MaskedLoad(kva, avx.ZeroMask))
	r := m.ExecMasked(avx.MaskedLoad(kva, avx.ZeroMask))
	if !r.TLBHit {
		t.Fatal("setup failed")
	}
	m.EvictTLB()
	r = m.ExecMasked(avx.MaskedLoad(kva, avx.ZeroMask))
	if r.TLBHit {
		t.Fatal("TLB entry survived eviction")
	}
}

func TestEvictTranslationIsTargeted(t *testing.T) {
	m, uva, kva := testMachine(t)
	m.ExecMasked(avx.MaskedLoad(uva, avx.ZeroMask))
	m.ExecMasked(avx.MaskedLoad(kva, avx.ZeroMask))
	m.EvictTranslation(kva)
	if r := m.ExecMasked(avx.MaskedLoad(kva, avx.ZeroMask)); r.TLBHit {
		t.Fatal("target survived eviction")
	}
	if r := m.ExecMasked(avx.MaskedLoad(uva, avx.ZeroMask)); !r.TLBHit {
		t.Fatal("unrelated TLB entry was evicted")
	}
}

func TestKernelTouchFillsTLB(t *testing.T) {
	m, _, kva := testMachine(t)
	m.KernelTouch(kva)
	r := m.ExecMasked(avx.MaskedLoad(kva, avx.ZeroMask))
	if !r.TLBHit {
		t.Fatal("kernel touch did not leave a TLB entry visible to the prober")
	}
}

func TestSyscallCharges(t *testing.T) {
	m, _, _ := testMachine(t)
	t0 := m.RDTSC()
	m.Syscall()
	if delta := m.RDTSC() - t0; delta != uint64(m.Preset.SyscallCost) {
		t.Fatalf("syscall charged %d, want %v", delta, m.Preset.SyscallCost)
	}
}

func TestMapUnmapProtectUser(t *testing.T) {
	m := New(uarch.IceLake1065G7(), 3)
	va := paging.VirtAddr(0x7e0000100000)
	if err := m.MapUser(va, 4*paging.Page4K, paging.Writable); err != nil {
		t.Fatal(err)
	}
	r := m.ExecMasked(avx.MaskedLoad(va+0x3000, avx.AllMask(8)))
	if r.Faulted {
		t.Fatal("fresh mapping faulted")
	}
	if err := m.ProtectUser(va, paging.Page4K, 0); err != nil {
		t.Fatal(err)
	}
	r = m.ExecMasked(avx.MaskedStore(va, avx.AllMask(8)))
	if !r.Faulted {
		t.Fatal("store to read-only page did not fault")
	}
	if err := m.UnmapUser(va, 4*paging.Page4K); err != nil {
		t.Fatal(err)
	}
	r = m.ExecMasked(avx.MaskedLoad(va, avx.ZeroMask))
	if r.TLBHit {
		t.Fatal("TLB not shot down on munmap")
	}
	if !r.Assist {
		t.Fatal("unmapped probe did not assist")
	}
}

func TestSTLBHitCostsExtra(t *testing.T) {
	m, _, _ := testMachine(t)
	// Fill many pages so early entries fall out of L1 into the STLB.
	base := paging.VirtAddr(0x7e0000400000)
	if err := m.MapUser(base, 256*paging.Page4K, paging.Writable); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 256; i++ {
		m.ExecMasked(avx.MaskedLoad(base+paging.VirtAddr(i*paging.Page4K), avx.ZeroMask))
	}
	// The first page is long gone from L1 (64 entries) but may be in the
	// STLB (1536 entries): its re-access costs base+STLBHitExtra.
	r := m.ExecMasked(avx.MaskedLoad(base, avx.ZeroMask))
	if r.TLBHit && r.Cycles != m.Preset.MaskedLoadBase+m.Preset.STLBHitExtra {
		t.Fatalf("STLB-hit cycles %v", r.Cycles)
	}
}

func TestEnclaveOverhead(t *testing.T) {
	m, uva, _ := testMachine(t)
	m.ExecMasked(avx.MaskedLoad(uva, avx.ZeroMask))
	r1 := m.ExecMasked(avx.MaskedLoad(uva, avx.ZeroMask))
	m.InEnclave = true
	r2 := m.ExecMasked(avx.MaskedLoad(uva, avx.ZeroMask))
	if r2.Cycles-r1.Cycles != m.Preset.SGXProbeOverhead {
		t.Fatalf("enclave overhead %v, want %v", r2.Cycles-r1.Cycles, m.Preset.SGXProbeOverhead)
	}
}

func TestPrefetchNeverFaults(t *testing.T) {
	m, _, kva := testMachine(t)
	r := m.ExecPrefetch(kva + 64*paging.Page2M) // unmapped kernel
	if r.Faulted {
		t.Fatal("prefetch faulted")
	}
}

func TestTSXProbeSeparatesMappedUnmapped(t *testing.T) {
	m := New(uarch.CoffeeLake9900(), 4)
	kva := paging.VirtAddr(0xffffffff81200000)
	if err := m.KernelAS.Map(kva, paging.Page2M, m.Alloc.AllocContig(512), paging.Global); err != nil {
		t.Fatal(err)
	}
	m.ExecTSXProbe(kva) // warm
	var mapped, unmapped float64
	for i := 0; i < 50; i++ {
		mapped += m.ExecTSXProbe(kva)
		unmapped += m.ExecTSXProbe(kva + 8*paging.Page2M)
	}
	if mapped/50 >= unmapped/50 {
		t.Fatalf("TSX abort timing does not separate classes: %v vs %v", mapped/50, unmapped/50)
	}
}

func TestKPTIViewsIsolated(t *testing.T) {
	m := New(uarch.AlderLake12400F(), 5)
	kernel := paging.NewAddressSpace(m.Alloc)
	user := paging.NewAddressSpace(m.Alloc)
	kva := paging.VirtAddr(0xffffffff81200000)
	if err := kernel.Map(kva, paging.Page2M, m.Alloc.AllocContig(512), 0); err != nil {
		t.Fatal(err)
	}
	m.InstallAddressSpaces(kernel, user)
	if m.KernelAS == m.UserAS {
		t.Fatal("KPTI not reported")
	}
	// A user probe must see the kernel page as unmapped (it probes the
	// user root).
	r := m.ExecMasked(avx.MaskedLoad(kva, avx.ZeroMask))
	if r.TLBHit {
		t.Fatal("hit on first probe")
	}
	r = m.ExecMasked(avx.MaskedLoad(kva, avx.ZeroMask))
	if r.TLBHit {
		t.Fatal("KPTI-hidden page produced a TLB hit for the user")
	}
}

// Property: zero-mask probes never fault, whatever the address.
func TestZeroMaskProbeNeverFaultsProperty(t *testing.T) {
	m, _, _ := testMachine(t)
	err := quick.Check(func(addr uint64) bool {
		r := m.ExecMasked(avx.MaskedLoad(paging.VirtAddr(addr), avx.ZeroMask))
		return !r.Faulted
	}, &quick.Config{MaxCount: 500})
	if err != nil {
		t.Fatal(err)
	}
}

// Property: architectural cycles are deterministic given machine state —
// two fresh machines with the same seed produce identical Exec sequences.
func TestDeterminism(t *testing.T) {
	run := func() []float64 {
		m := New(uarch.IceLake1065G7(), 7)
		kva := paging.VirtAddr(0xffffffff81200000)
		if err := m.KernelAS.Map(kva, paging.Page2M, m.Alloc.AllocContig(512), paging.Global); err != nil {
			t.Fatal(err)
		}
		var out []float64
		for i := 0; i < 100; i++ {
			meas, _ := m.Measure(avx.MaskedLoad(kva+paging.VirtAddr(i%3)*paging.Page2M, avx.ZeroMask))
			out = append(out, meas)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("divergence at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// A known modelling quirk, pinned so that any change to it is deliberate:
// after a store sets D on a page, refreshTLBFlags updates only the L1 DTLB
// copy of the translation; the STLB copy keeps D=0. Once the L1 copy is
// evicted, the next store hits the stale STLB entry and pays the dirty
// assist again, although the page-table entry is already dirty.
func TestStaleSTLBDirtyAssist(t *testing.T) {
	m := New(uarch.AlderLake12400F(), 1)
	const page = paging.VirtAddr(0x7e0000000000)
	// The page plus four pages that share its L1 DTLB set (16 sets).
	if err := m.MapUser(page, 65*paging.Page4K, paging.Writable); err != nil {
		t.Fatal(err)
	}
	store := avx.MaskedStore(page, avx.AllMask(8))
	p := m.Preset

	before := m.Counters.Snapshot()
	r1 := m.ExecMasked(store)
	if !r1.Assist || r1.TLBHit || m.Counters.Delta(before)[perf.DirtyAssist] != 1 {
		t.Fatalf("store to a fresh page: %+v, want a walk and a dirty assist", r1)
	}
	if r1.Cycles != 355 { // a cold walk plus the dirty assist
		t.Fatalf("store to a fresh page: %v cycles, want 355", r1.Cycles)
	}
	r2 := m.ExecMasked(store)
	if r2.Assist || !r2.TLBHit || r2.Cycles != p.MaskedStoreBase {
		t.Fatalf("second store: %+v, want an L1 hit with no assist (%v cycles)", r2, p.MaskedStoreBase)
	}
	for k := 1; k <= 4; k++ {
		m.ExecMasked(avx.MaskedLoad(page+paging.VirtAddr(16*k*paging.Page4K), avx.ZeroMask))
	}
	before = m.Counters.Snapshot()
	r3 := m.ExecMasked(store)
	want := p.MaskedStoreBase + p.STLBHitExtra + p.AssistDirty // 13 + 6 + 80 = 99
	if !r3.Assist || !r3.TLBHit || r3.Cycles != want || m.Counters.Delta(before)[perf.DirtyAssist] != 1 {
		t.Fatalf("third store: %+v, want an STLB hit that pays the dirty assist again (%v cycles)", r3, want)
	}
}
