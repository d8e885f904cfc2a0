package paging

import (
	"testing"

	"repro/internal/phys"
)

// Edge cases around mixed page sizes and structural conflicts.

func TestMap4KUnderExisting2MLeafFails(t *testing.T) {
	as := newAS(t)
	huge := VirtAddr(0xffffffff81200000)
	if err := as.Map(huge, Page2M, 512, 0); err != nil {
		t.Fatal(err)
	}
	// Any 4K mapping inside the huge page's slot must be rejected, not
	// silently replace the leaf with a page table.
	if err := as.Map(huge+0x3000, Page4K, 99, 0); err == nil {
		t.Fatal("4K map under a 2M leaf succeeded")
	}
	// The huge mapping must be intact afterwards.
	w := as.Translate(huge+0x3000, nil)
	if !w.Mapped || w.Size != Page2M || w.PFN != 512+3 {
		t.Fatalf("2M leaf corrupted: %+v", w)
	}
}

func TestMap2MUnderExisting1GLeafFails(t *testing.T) {
	as := newAS(t)
	giant := VirtAddr(0xffffff8000000000)
	if err := as.Map(giant, Page1G, 1<<18, 0); err != nil {
		t.Fatal(err)
	}
	if err := as.Map(giant+Page2M, Page2M, 7, 0); err == nil {
		t.Fatal("2M map under a 1G leaf succeeded")
	}
}

func TestMixed4KAnd2MInSame1GRegion(t *testing.T) {
	// The Linux kernel text region mixes 2M slots and 4K-structured slots
	// under one PD; the tables must support that.
	as := newAS(t)
	base := VirtAddr(0xffffffff80000000)
	if err := as.Map(base, Page2M, 512, 0); err != nil {
		t.Fatal(err)
	}
	if err := as.Map(base+Page2M, Page4K, 9, 0); err != nil {
		t.Fatal(err)
	}
	w1 := as.Translate(base, nil)
	w2 := as.Translate(base+Page2M, nil)
	if w1.Size != Page2M || w2.Size != Page4K {
		t.Fatalf("sizes %v / %v", w1.Size, w2.Size)
	}
	if w1.TermLevel != LevelPD || w2.TermLevel != LevelPT {
		t.Fatalf("terminations %v / %v", w1.TermLevel, w2.TermLevel)
	}
}

func TestInteriorFlagsAccumulate(t *testing.T) {
	// Interior entries carry the union of leaf permissions below them (a
	// real OS keeps intermediate entries maximally permissive).
	as := newAS(t)
	if err := as.Map(0x1000, Page4K, 1, User); err != nil {
		t.Fatal(err)
	}
	if err := as.Map(0x2000, Page4K, 2, User|Writable); err != nil {
		t.Fatal(err)
	}
	// Both leaves visible with their own flags.
	w1 := as.Translate(0x1000, nil)
	w2 := as.Translate(0x2000, nil)
	if w1.Flags.Has(Writable) {
		t.Fatal("read-only leaf gained Writable")
	}
	if !w2.Flags.Has(Writable) {
		t.Fatal("writable leaf lost Writable")
	}
}

func TestUnmapKeepsSiblings(t *testing.T) {
	as := newAS(t)
	for i := 0; i < 8; i++ {
		if err := as.Map(VirtAddr(0x10000+i*Page4K), Page4K, phys.PFN(i+1), User); err != nil {
			t.Fatal(err)
		}
	}
	if err := as.Unmap(0x12000); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		w := as.Translate(VirtAddr(0x10000+i*Page4K), nil)
		wantMapped := i != 2
		if w.Mapped != wantMapped {
			t.Fatalf("page %d mapped=%v", i, w.Mapped)
		}
	}
}

func TestTranslateZeroAndMaxCanonical(t *testing.T) {
	as := newAS(t)
	// Address 0 is canonical and unmapped.
	if w := as.Translate(0, nil); w.Mapped {
		t.Fatal("null page mapped")
	}
	// The top canonical page is mappable.
	top := VirtAddr(0xfffffffffffff000)
	if err := as.Map(top, Page4K, 5, 0); err != nil {
		t.Fatal(err)
	}
	if w := as.Translate(top+0xfff, nil); !w.Mapped {
		t.Fatal("top page not translatable")
	}
}

func TestDistinctAddressSpacesIsolated(t *testing.T) {
	alloc := phys.NewAllocator(1 << 30)
	a := NewAddressSpace(alloc)
	b := NewAddressSpace(alloc)
	if a.ASID == b.ASID {
		t.Fatal("address spaces share an ASID")
	}
	if err := a.Map(0x1000, Page4K, 1, User); err != nil {
		t.Fatal(err)
	}
	if w := b.Translate(0x1000, nil); w.Mapped {
		t.Fatal("mapping leaked across address spaces")
	}
}

func TestRootPFNStable(t *testing.T) {
	as := newAS(t)
	r := as.rootFrame
	if err := as.Map(0x1000, Page4K, 1, 0); err != nil {
		t.Fatal(err)
	}
	if as.rootFrame != r {
		t.Fatal("CR3 changed on map")
	}
}
