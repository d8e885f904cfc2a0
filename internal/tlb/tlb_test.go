package tlb

import (
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/paging"
	"repro/internal/phys"
)

func walk4K(va paging.VirtAddr, pfn phys.PFN, flags paging.Flags) *paging.Walk {
	return &paging.Walk{VA: va, Mapped: true, Flags: flags | paging.Present,
		Size: paging.Page4K, PFN: pfn, TermLevel: paging.LevelPT}
}

func TestFillLookupHit(t *testing.T) {
	tlb := NewTLB(DefaultTLBConfig())
	va := paging.VirtAddr(0x12345000)
	tlb.Fill(va, walk4K(va, 99, paging.User), 1)
	res, e := tlb.Lookup(va, 1)
	if res != HitL1 {
		t.Fatalf("lookup %v, want HitL1", res)
	}
	if e.PFN() != 99 || e.Size() != paging.Page4K {
		t.Fatalf("entry %+v", e)
	}
}

func TestLookupMissDifferentPage(t *testing.T) {
	tlb := NewTLB(DefaultTLBConfig())
	tlb.Fill(0x1000, walk4K(0x1000, 1, paging.User), 1)
	if res, _ := tlb.Lookup(0x2000, 1); res != Miss {
		t.Fatalf("adjacent page hit: %v", res)
	}
}

func TestASIDIsolation(t *testing.T) {
	tlb := NewTLB(DefaultTLBConfig())
	va := paging.VirtAddr(0x5000)
	tlb.Fill(va, walk4K(va, 7, paging.User), 1)
	if res, _ := tlb.Lookup(va, 2); res != Miss {
		t.Fatal("non-global entry visible across ASIDs")
	}
}

func TestGlobalEntryCrossesASID(t *testing.T) {
	tlb := NewTLB(DefaultTLBConfig())
	va := paging.VirtAddr(0x6000)
	tlb.Fill(va, walk4K(va, 7, paging.Global), 1)
	if res, _ := tlb.Lookup(va, 2); res == Miss {
		t.Fatal("global entry not visible across ASIDs")
	}
}

func TestHugePagesLookupByContainedAddress(t *testing.T) {
	tlb := NewTLB(DefaultTLBConfig())
	base := paging.VirtAddr(0xffffffff81200000)
	w := paging.Walk{VA: base, Mapped: true, Flags: paging.Present | paging.Global,
		Size: paging.Page2M, PFN: 512, TermLevel: paging.LevelPD}
	tlb.Fill(base, &w, 1)
	// Any address inside the 2 MiB page must hit.
	if res, _ := tlb.Lookup(base+0x5000, 1); res == Miss {
		t.Fatal("2M entry missed for contained address")
	}
	if res, _ := tlb.Lookup(base+paging.Page2M, 1); res != Miss {
		t.Fatal("2M entry hit outside its page")
	}
}

func TestInvalidate(t *testing.T) {
	tlb := NewTLB(DefaultTLBConfig())
	va := paging.VirtAddr(0x7000)
	tlb.Fill(va, walk4K(va, 7, paging.User), 1)
	tlb.Invalidate(va)
	if res, _ := tlb.Lookup(va, 1); res != Miss {
		t.Fatal("entry survived INVLPG")
	}
}

func TestFlushKeepGlobal(t *testing.T) {
	tlb := NewTLB(DefaultTLBConfig())
	tlb.Fill(0x1000, walk4K(0x1000, 1, paging.User), 1)
	tlb.Fill(0x2000, walk4K(0x2000, 2, paging.Global), 1)
	tlb.Flush(true)
	if res, _ := tlb.Lookup(0x1000, 1); res != Miss {
		t.Fatal("non-global survived CR3 write")
	}
	if res, _ := tlb.Lookup(0x2000, 1); res == Miss {
		t.Fatal("global did not survive CR3 write")
	}
	tlb.Flush(false)
	if res, _ := tlb.Lookup(0x2000, 1); res != Miss {
		t.Fatal("global survived full flush")
	}
}

func TestFlushASID(t *testing.T) {
	tlb := NewTLB(DefaultTLBConfig())
	tlb.Fill(0x1000, walk4K(0x1000, 1, paging.User), 1)
	tlb.Fill(0x2000, walk4K(0x2000, 2, paging.User), 2)
	tlb.flushASID(1)
	if res, _ := tlb.Lookup(0x1000, 1); res != Miss {
		t.Fatal("ASID 1 entry survived")
	}
	if res, _ := tlb.Lookup(0x2000, 2); res == Miss {
		t.Fatal("ASID 2 entry was dropped")
	}
}

func TestL1EvictionDemotesToSTLB(t *testing.T) {
	// Tiny L1 (1 set × 2 ways) forces eviction; victims must remain
	// findable via the STLB (HitL2).
	tlb := NewTLB(TLBConfig{L1: Config{Sets: 1, Ways: 2}, L2: Config{Sets: 64, Ways: 8}})
	for i := 0; i < 6; i++ {
		va := paging.VirtAddr(0x10000 + i*0x1000)
		tlb.Fill(va, walk4K(va, phys.PFN(i+1), paging.User), 1)
	}
	res, _ := tlb.Lookup(0x10000, 1)
	if res != HitL2 {
		t.Fatalf("oldest entry: %v, want HitL2 (demoted)", res)
	}
	// And the L2 hit promotes back into L1.
	res, _ = tlb.Lookup(0x10000, 1)
	if res != HitL1 {
		t.Fatalf("after promotion: %v, want HitL1", res)
	}
}

func TestLRUReplacement(t *testing.T) {
	tlb := NewTLB(TLBConfig{L1: Config{Sets: 1, Ways: 2}, L2: Config{Sets: 1, Ways: 2}})
	a, b, c := paging.VirtAddr(0x1000), paging.VirtAddr(0x2000), paging.VirtAddr(0x3000)
	tlb.Fill(a, walk4K(a, 1, paging.User), 1)
	tlb.Fill(b, walk4K(b, 2, paging.User), 1)
	tlb.Lookup(a, 1) // touch a so b is LRU
	tlb.Fill(c, walk4K(c, 3, paging.User), 1)
	if res, _ := tlb.Lookup(a, 1); res == Miss {
		t.Fatal("MRU entry evicted")
	}
}

func TestEntryCount(t *testing.T) {
	tlb := NewTLB(DefaultTLBConfig())
	if tlb.EntryCount() != 0 {
		t.Fatal("fresh TLB not empty")
	}
	tlb.Fill(0x1000, walk4K(0x1000, 1, paging.User), 1)
	if tlb.EntryCount() != 2 { // L1 + L2 copy
		t.Fatalf("count %d, want 2", tlb.EntryCount())
	}
}

// Property: fill→lookup always hits for arbitrary 4K pages and ASIDs.
func TestFillLookupProperty(t *testing.T) {
	err := quick.Check(func(page uint32, asid uint8) bool {
		tlb := NewTLB(DefaultTLBConfig())
		va := paging.VirtAddr(uint64(page) << 12)
		tlb.Fill(va, walk4K(va, 5, paging.User), uint16(asid))
		res, _ := tlb.Lookup(va, uint16(asid))
		return res != Miss
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Fatal(err)
	}
}

// Property: after Invalidate, Lookup misses regardless of history.
func TestInvalidateProperty(t *testing.T) {
	err := quick.Check(func(pages []uint32, victim uint8) bool {
		tlb := NewTLB(DefaultTLBConfig())
		if len(pages) == 0 {
			return true
		}
		for _, pg := range pages {
			va := paging.VirtAddr(uint64(pg) << 12)
			tlb.Fill(va, walk4K(va, 5, paging.User), 1)
		}
		v := paging.VirtAddr(uint64(pages[int(victim)%len(pages)]) << 12)
		tlb.Invalidate(v)
		res, _ := tlb.Lookup(v, 1)
		return res == Miss
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPSCFillAndLookup(t *testing.T) {
	psc := NewPSC()
	va := paging.VirtAddr(0xffffffff81200000)
	// A mapped 2M walk (term PD) caches PML4E and PDPTE.
	psc.Fill(va, paging.LevelPD, 1)
	lvl, ok := psc.Lookup(va, 1)
	if !ok || lvl != paging.LevelPDPT {
		t.Fatalf("lookup %v %v, want PDPT hit", lvl, ok)
	}
	// A 4K walk (term PT) caches down to the PDE.
	psc.Fill(va, paging.LevelPT, 1)
	lvl, ok = psc.Lookup(va, 1)
	if !ok || lvl != paging.LevelPD {
		t.Fatalf("lookup %v %v, want PD hit", lvl, ok)
	}
}

func TestPSCNeverCachesPT(t *testing.T) {
	psc := NewPSC()
	va := paging.VirtAddr(0x1000)
	psc.Fill(va, paging.LevelPT, 1)
	lvl, ok := psc.Lookup(va, 1)
	// Deepest possible hit is PD — PT entries are never cached (Intel).
	if ok && lvl == paging.LevelPT {
		t.Fatal("PSC cached a PT entry")
	}
}

func TestPSCNonPresentTopLevelNotCached(t *testing.T) {
	psc := NewPSC()
	va := paging.VirtAddr(0xffff800000000000)
	// Unmapped at PML4: nothing present was traversed, nothing cached.
	psc.Fill(va, paging.LevelPML4, 1)
	if _, ok := psc.Lookup(va, 1); ok {
		t.Fatal("PSC cached a non-present PML4E")
	}
}

func TestPSCDisabled(t *testing.T) {
	psc := NewPSC()
	psc.Enabled = false
	va := paging.VirtAddr(0x2000)
	psc.Fill(va, paging.LevelPT, 1)
	if _, ok := psc.Lookup(va, 1); ok {
		t.Fatal("disabled PSC returned a hit")
	}
}

func TestPSCFlush(t *testing.T) {
	psc := NewPSC()
	va := paging.VirtAddr(0xffffffff81200000)
	psc.Fill(va, paging.LevelPD, 1)
	if psc.EntryCount() == 0 {
		t.Fatal("nothing cached")
	}
	psc.Flush()
	if psc.EntryCount() != 0 {
		t.Fatal("flush left entries")
	}
}

func TestPSCRegionTagging(t *testing.T) {
	psc := NewPSC()
	va := paging.VirtAddr(0xffffffff81200000)
	psc.Fill(va, paging.LevelPD, 1)
	// A different 2M region in the same 1G region still hits the PDPTE
	// cache (shared prefix) but not a PDE-level hit.
	other := va + 8*paging.Page2M
	lvl, ok := psc.Lookup(other, 1)
	if !ok || lvl != paging.LevelPDPT {
		t.Fatalf("neighbour region: %v %v, want PDPT", lvl, ok)
	}
	// A different 1G region in the same 512G (PML4) region hits only the
	// PML4E cache.
	same512G := paging.VirtAddr(0xffffff8000000000)
	lvl, ok = psc.Lookup(same512G, 1)
	if !ok || lvl != paging.LevelPML4 {
		t.Fatalf("same-PML4-slot region: %v %v, want PML4", lvl, ok)
	}
	// A different PML4 slot misses entirely.
	far := paging.VirtAddr(0xffff800000000000)
	if _, ok := psc.Lookup(far, 1); ok {
		t.Fatal("unrelated PML4 slot hit the PSC")
	}
}

// Every lookup and fill writes a cache's header and bitmaps, so both fill
// whole 64-byte lines (see the package comment): the header is a multiple
// of 64 bytes and each level's bitmaps take at least one line.
func TestCacheStateFillsWholeLines(t *testing.T) {
	if n := unsafe.Sizeof(setAssoc{}); n%64 != 0 {
		t.Errorf("setAssoc header is %d bytes, not a multiple of 64", n)
	}
	tl, psc := NewTLB(DefaultTLBConfig()), NewPSC()
	levels := map[string]*setAssoc{"L1": tl.l1, "STLB": tl.l2, "PML4E": psc.pml4e, "PDPTE": psc.pdpte, "PDE": psc.pde}
	for name, s := range levels {
		if n := uintptr(cap(s.live)) * unsafe.Sizeof(s.live[0]); n < 64 {
			t.Errorf("%s bitmaps take %d bytes, less than a line", name, n)
		}
	}
}
