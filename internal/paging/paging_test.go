package paging

import (
	"fmt"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/phys"
)

func newAS(t *testing.T) *AddressSpace {
	t.Helper()
	return NewAddressSpace(phys.NewAllocator(4 << 30))
}

func TestMapTranslateRoundTrip4K(t *testing.T) {
	as := newAS(t)
	va := VirtAddr(0x7f0000123000)
	frame := phys.PFN(777)
	if err := as.Map(va, Page4K, frame, User|Writable); err != nil {
		t.Fatal(err)
	}
	w := as.Translate(va, nil)
	if !w.Mapped || w.PFN != frame || w.Size != Page4K || w.TermLevel != LevelPT {
		t.Fatalf("walk %+v", w)
	}
	if !w.Flags.Has(User | Writable | Present) {
		t.Fatalf("flags %v", w.Flags)
	}
	if len(w.Visited) != 4 {
		t.Fatalf("4K walk visited %d structures, want 4", len(w.Visited))
	}
}

func TestMapTranslate2M(t *testing.T) {
	as := newAS(t)
	va := VirtAddr(0xffffffff81200000)
	if err := as.Map(va, Page2M, 512, Global); err != nil {
		t.Fatal(err)
	}
	// An offset inside the huge page resolves to the offset frame.
	w := as.Translate(va+0x5000, nil)
	if !w.Mapped || w.Size != Page2M || w.TermLevel != LevelPD {
		t.Fatalf("walk %+v", w)
	}
	if w.PFN != 512+5 {
		t.Fatalf("pfn %d, want 517", w.PFN)
	}
	if len(w.Visited) != 3 {
		t.Fatalf("2M walk visited %d structures, want 3", len(w.Visited))
	}
}

func TestMapTranslate1G(t *testing.T) {
	as := newAS(t)
	va := VirtAddr(0xffffff8000000000)
	if err := as.Map(va, Page1G, 1<<18, 0); err != nil {
		t.Fatal(err)
	}
	w := as.Translate(va+Page2M+0x3000, nil)
	if !w.Mapped || w.Size != Page1G || w.TermLevel != LevelPDPT {
		t.Fatalf("walk %+v", w)
	}
	if len(w.Visited) != 2 {
		t.Fatalf("1G walk visited %d, want 2", len(w.Visited))
	}
}

func TestUnmappedTerminationLevels(t *testing.T) {
	as := newAS(t)
	// Populate one 4K mapping so intermediate tables exist around it.
	base := VirtAddr(0xffffffff80000000)
	if err := as.Map(base, Page4K, 9, 0); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		va   VirtAddr
		term Level
	}{
		{base + 0x1000, LevelPT},                  // PT exists, PTE empty
		{base + 4*Page2M, LevelPD},                // PD exists, PDE empty
		{base - Page1G, LevelPDPT},                // PDPT exists (same PML4 slot), PDPTE empty
		{VirtAddr(0xffff800000000000), LevelPML4}, // untouched PML4 slot
	}
	for _, c := range cases {
		w := as.Translate(c.va, nil)
		if w.Mapped {
			t.Fatalf("%#x unexpectedly mapped", uint64(c.va))
		}
		if w.TermLevel != c.term {
			t.Errorf("%#x terminates at %v, want %v", uint64(c.va), w.TermLevel, c.term)
		}
	}
}

func TestNonCanonicalAddress(t *testing.T) {
	as := newAS(t)
	w := as.Translate(0x8000_00000000, nil) // bit 47 set, upper bits clear
	if w.Mapped {
		t.Fatal("non-canonical address translated")
	}
	if err := as.Map(0x800000000000, Page4K, 1, 0); err == nil {
		t.Fatal("mapping non-canonical address succeeded")
	}
}

func TestDoubleMapFails(t *testing.T) {
	as := newAS(t)
	va := VirtAddr(0x1000)
	if err := as.Map(va, Page4K, 1, 0); err != nil {
		t.Fatal(err)
	}
	if err := as.Map(va, Page4K, 2, 0); err == nil {
		t.Fatal("double map succeeded")
	}
}

func TestUnalignedMapFails(t *testing.T) {
	as := newAS(t)
	if err := as.Map(0x1800, Page4K, 1, 0); err == nil {
		t.Fatal("unaligned 4K map succeeded")
	}
	if err := as.Map(Page2M/2, Page2M, 1, 0); err == nil {
		t.Fatal("unaligned 2M map succeeded")
	}
}

func TestUnmap(t *testing.T) {
	as := newAS(t)
	va := VirtAddr(0x2000)
	if err := as.Map(va, Page4K, 3, User); err != nil {
		t.Fatal(err)
	}
	if err := as.Unmap(va); err != nil {
		t.Fatal(err)
	}
	if w := as.Translate(va, nil); w.Mapped {
		t.Fatal("still mapped after unmap")
	}
	// Termination is now PT: the table survives the unmap, as in Linux.
	if w := as.Translate(va, nil); w.TermLevel != LevelPT {
		t.Fatalf("term %v, want PT", w.TermLevel)
	}
	if err := as.Unmap(va); err == nil {
		t.Fatal("double unmap succeeded")
	}
}

func TestProtectPreservesADBits(t *testing.T) {
	as := newAS(t)
	va := VirtAddr(0x3000)
	if err := as.Map(va, Page4K, 4, User|Writable); err != nil {
		t.Fatal(err)
	}
	as.MarkAccess(va, true) // sets A and D
	if err := as.Protect(va, User); err != nil {
		t.Fatal(err)
	}
	w := as.Translate(va, nil)
	if !w.Flags.Has(Accessed | Dirty) {
		t.Fatalf("A/D lost on protect: %v", w.Flags)
	}
	if w.Flags.Has(Writable) {
		t.Fatal("writable not removed")
	}
}

func TestMarkAccessDirtyTransition(t *testing.T) {
	as := newAS(t)
	va := VirtAddr(0x4000)
	if err := as.Map(va, Page4K, 5, User|Writable); err != nil {
		t.Fatal(err)
	}
	if dirtied := as.MarkAccess(va, false); dirtied {
		t.Fatal("read access set dirty")
	}
	if dirtied := as.MarkAccess(va, true); !dirtied {
		t.Fatal("first write did not report dirty transition")
	}
	if dirtied := as.MarkAccess(va, true); dirtied {
		t.Fatal("second write reported dirty transition again")
	}
}

func TestSetDirty(t *testing.T) {
	as := newAS(t)
	va := VirtAddr(0x5000)
	if err := as.Map(va, Page4K, 6, User|Writable); err != nil {
		t.Fatal(err)
	}
	if err := as.setDirty(va, true); err != nil {
		t.Fatal(err)
	}
	if w := as.Translate(va, nil); !w.Dirty {
		t.Fatal("dirty not set")
	}
	if err := as.setDirty(va, false); err != nil {
		t.Fatal(err)
	}
	if w := as.Translate(va, nil); w.Dirty {
		t.Fatal("dirty not cleared")
	}
}

func TestMapRangeContiguity(t *testing.T) {
	as := newAS(t)
	va := VirtAddr(0x10000000)
	first, err := as.MapRange(va, 8*Page4K, Page4K, User)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		w := as.Translate(va+VirtAddr(i*Page4K), nil)
		if !w.Mapped || w.PFN != first+phys.PFN(i) {
			t.Fatalf("page %d: %+v", i, w)
		}
	}
	if _, err := as.MapRange(va+0x100000, Page4K+1, Page4K, 0); err == nil {
		t.Fatal("non-multiple length accepted")
	}
}

// Property: map → translate returns the same flags/frame for arbitrary
// canonical page-aligned addresses.
func TestMapTranslateProperty(t *testing.T) {
	err := quick.Check(func(pageIdx uint32, frame uint16, wr, us bool) bool {
		as := NewAddressSpace(phys.NewAllocator(1 << 30))
		va := VirtAddr(uint64(pageIdx) << 12) // low canonical half
		var fl Flags
		if wr {
			fl |= Writable
		}
		if us {
			fl |= User
		}
		f := phys.PFN(frame) + 1
		if err := as.Map(va, Page4K, f, fl); err != nil {
			return false
		}
		w := as.Translate(va, nil)
		return w.Mapped && w.PFN == f && w.Flags.Has(fl|Present)
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Fatal(err)
	}
}

// Property: an address is never reported mapped unless something was
// mapped over it; unmapping restores unmapped.
func TestUnmapProperty(t *testing.T) {
	err := quick.Check(func(pageIdx uint32) bool {
		as := NewAddressSpace(phys.NewAllocator(1 << 30))
		va := VirtAddr(uint64(pageIdx) << 12)
		if as.Translate(va, nil).Mapped {
			return false
		}
		if err := as.Map(va, Page4K, 42, User); err != nil {
			return false
		}
		if !as.Translate(va, nil).Mapped {
			return false
		}
		if err := as.Unmap(va); err != nil {
			return false
		}
		return !as.Translate(va, nil).Mapped
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPageBase(t *testing.T) {
	if PageBase(0x12345678, Page4K) != 0x12345000 {
		t.Error("4K base")
	}
	if PageBase(0x12345678, Page2M) != 0x12200000 {
		t.Error("2M base")
	}
	if PageBase(0x7fffffff, Page1G) != 0x40000000 {
		t.Error("1G base")
	}
}

func TestFlagsString(t *testing.T) {
	f := Present | Writable | User
	if s := f.String(); s != "prwxu" {
		t.Errorf("flags string %q", s)
	}
	if s := (Present | NoExec).String(); s != "pr--k" {
		t.Errorf("flags string %q", s)
	}
}

func TestLevelString(t *testing.T) {
	for l, want := range map[Level]string{
		LevelNone: "none", LevelPML4: "PML4", LevelPDPT: "PDPT", LevelPD: "PD", LevelPT: "PT",
	} {
		if l.String() != want {
			t.Errorf("%d -> %q", l, l.String())
		}
	}
}

func TestCanonical(t *testing.T) {
	for va, want := range map[VirtAddr]bool{
		0x00007fffffffffff: true,
		0xffff800000000000: true,
		0x0000800000000000: false,
		0xfffe800000000000: false,
	} {
		if Canonical(va) != want {
			t.Errorf("Canonical(%#x) = %v", uint64(va), !want)
		}
	}
}

func TestPageSizeLeafLevel(t *testing.T) {
	if PageSize(Page4K).LeafLevel() != LevelPT ||
		PageSize(Page2M).LeafLevel() != LevelPD ||
		PageSize(Page1G).LeafLevel() != LevelPDPT {
		t.Fatal("leaf levels wrong")
	}
}

func TestVisitedBufferReuse(t *testing.T) {
	as := newAS(t)
	if err := as.Map(0x1000, Page4K, 7, 0); err != nil {
		t.Fatal(err)
	}
	buf := make([]phys.PFN, 0, 4)
	w := as.Translate(0x1000, buf)
	if len(w.Visited) != 4 {
		t.Fatalf("visited %d", len(w.Visited))
	}
	if cap(w.Visited) != cap(buf) {
		t.Log("buffer grew — acceptable but unexpected for 4-level walk")
	}
}

// A paging structure fills one 12 KiB allocation size class exactly: a
// field added to entry, or reordered, would cost every boot a third more
// page-table memory.
func TestTableSize(t *testing.T) {
	if got := unsafe.Sizeof(table{}); got != 12<<10 {
		t.Fatalf("a paging structure takes %d bytes, want %d", got, 12<<10)
	}
}

// setDirty sets (or clears) the Dirty bit of the leaf mapping covering va,
// as a kernel clearing D after writeback would.
func (as *AddressSpace) setDirty(va VirtAddr, dirty bool) error {
	e, _ := as.lookupLeaf(va)
	if e == nil {
		return fmt.Errorf("paging: setDirty of unmapped address %#x", uint64(va))
	}
	old := e.flags
	if dirty {
		e.flags |= Dirty
	} else {
		e.flags &^= Dirty
	}
	if e.flags != old {
		as.version++
	}
	return nil
}
