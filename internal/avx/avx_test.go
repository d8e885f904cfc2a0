package avx

import (
	"testing"
	"testing/quick"

	"repro/internal/paging"
)

// uniform returns a pageState func mapping every page to one state.
func uniform(st PageState) func(paging.VirtAddr) PageState {
	return func(paging.VirtAddr) PageState { return st }
}

var (
	rwPage   = PageState{Mapped: true, Writable: true, UserOK: true}
	roPage   = PageState{Mapped: true, Writable: false, UserOK: true}
	kernPage = PageState{Mapped: true, Writable: true, UserOK: false}
	noPage   = PageState{}
)

func TestMaskHelpers(t *testing.T) {
	if AllMask(8) != 0xff || AllMask(4) != 0x0f {
		t.Fatal("AllMask wrong")
	}
	m := Mask(0b1010)
	if m.Bit(0) || !m.Bit(1) || m.Bit(2) || !m.Bit(3) {
		t.Fatal("Bit wrong")
	}
	if m.PopCount() != 2 {
		t.Fatal("PopCount wrong")
	}
	if ZeroMask.PopCount() != 0 {
		t.Fatal("ZeroMask not empty")
	}
}

func TestOpGeometry(t *testing.T) {
	op := MaskedLoad(0x1000, AllMask(8))
	if op.NumElems() != 8 {
		t.Fatalf("elems %d", op.NumElems())
	}
	if op.ElemAddr(3) != 0x100c {
		t.Fatalf("elem addr %#x", uint64(op.ElemAddr(3)))
	}
	if pages := op.Pages(); len(pages) != 1 || pages[0] != 0x1000 {
		t.Fatalf("pages %v", pages)
	}
}

func TestOpStraddlesBoundary(t *testing.T) {
	op := MaskedLoad(0x1ff0, AllMask(8)) // 16 bytes below the boundary
	pages := op.Pages()
	if len(pages) != 2 || pages[0] != 0x1000 || pages[1] != 0x2000 {
		t.Fatalf("pages %v", pages)
	}
	lo := op.ElemsOnPage(0x1000)
	hi := op.ElemsOnPage(0x2000)
	if len(lo) != 4 || len(hi) != 4 {
		t.Fatalf("element split %v / %v", lo, hi)
	}
	for _, i := range lo {
		if i > 3 {
			t.Fatalf("element %d on low page", i)
		}
	}
}

func TestFig1CaseA_PartialMaskLoadFaults(t *testing.T) {
	// Upper page mapped, lower page unmapped; one unmapped-page element
	// has its mask bit set → #PF.
	op := MaskedLoad(0x1ff0, 0b11101111&0xff|0b00010000) // bit 4 set (on page 2)
	st := func(p paging.VirtAddr) PageState {
		if p == 0x1000 {
			return rwPage
		}
		return noPage
	}
	out := Evaluate(op, st, nil, nil)
	if !out.Fault {
		t.Fatal("no fault for set mask bit on unmapped page")
	}
	if out.FaultAddr != 0x2000 {
		t.Fatalf("fault addr %#x", uint64(out.FaultAddr))
	}
	if !out.Assist {
		t.Fatal("fault path must go through the assist")
	}
}

func TestFig1CaseC_MaskedOutSuppresses(t *testing.T) {
	op := MaskedLoad(0x1ff0, 0b00001111) // all unmapped-page elements clear
	st := func(p paging.VirtAddr) PageState {
		if p == 0x1000 {
			return rwPage
		}
		return noPage
	}
	out := Evaluate(op, st, nil, nil)
	if out.Fault {
		t.Fatal("suppressed elements faulted")
	}
	if !out.Assist {
		t.Fatal("bad page must still trigger the assist (the timing leak)")
	}
	if out.Suppressed != 4 {
		t.Fatalf("suppressed %d, want 4", out.Suppressed)
	}
	if len(out.MovedElems) != 4 {
		t.Fatalf("moved %v, want the 4 mapped-page elements", out.MovedElems)
	}
}

func TestZeroMaskNeverFaults(t *testing.T) {
	err := quick.Check(func(mappedBits uint8, addr uint32) bool {
		op := MaskedLoad(paging.VirtAddr(addr)<<2, ZeroMask)
		st := func(p paging.VirtAddr) PageState {
			if mappedBits&1 == 0 {
				return noPage
			}
			return kernPage
		}
		out := Evaluate(op, st, nil, nil)
		return !out.Fault
	}, &quick.Config{MaxCount: 500})
	if err != nil {
		t.Fatal(err)
	}
}

func TestZeroMaskOnBadPageAssists(t *testing.T) {
	for _, st := range []PageState{noPage, kernPage} {
		out := Evaluate(MaskedLoad(0x1000, ZeroMask), uniform(st), nil, nil)
		if out.Fault {
			t.Fatal("zero mask faulted")
		}
		if !out.Assist {
			t.Fatalf("no assist for %+v", st)
		}
		if out.Suppressed != 8 {
			t.Fatalf("suppressed %d", out.Suppressed)
		}
	}
}

func TestZeroMaskOnGoodPageFast(t *testing.T) {
	out := Evaluate(MaskedLoad(0x1000, ZeroMask), uniform(rwPage), nil, nil)
	if out.Assist || out.Fault || len(out.MovedElems) != 0 {
		t.Fatalf("good-page zero-mask outcome %+v", out)
	}
}

func TestStoreToReadOnlyAssists(t *testing.T) {
	out := Evaluate(MaskedStore(0x1000, ZeroMask), uniform(roPage), nil, nil)
	if !out.Assist {
		t.Fatal("read-only store destination must assist (P5)")
	}
	if out.Fault {
		t.Fatal("zero-mask store faulted")
	}
	// Loads to the same page are fine.
	out = Evaluate(MaskedLoad(0x1000, ZeroMask), uniform(roPage), nil, nil)
	if out.Assist {
		t.Fatal("read-only load assisted")
	}
}

func TestStoreWithSetMaskToReadOnlyFaults(t *testing.T) {
	out := Evaluate(MaskedStore(0x1000, AllMask(8)), uniform(roPage), nil, nil)
	if !out.Fault {
		t.Fatal("real store to read-only page did not fault")
	}
}

func TestDirtyAssistOnlyForRealWrites(t *testing.T) {
	dirtyPending := func(paging.VirtAddr) bool { return true }
	// Zero-mask store: no element writes, no dirty assist.
	out := Evaluate(MaskedStore(0x1000, ZeroMask), uniform(rwPage), dirtyPending, nil)
	if out.Assist {
		t.Fatal("zero-mask store triggered the dirty assist")
	}
	// Real store to a clean page: dirty assist fires.
	out = Evaluate(MaskedStore(0x1000, AllMask(8)), uniform(rwPage), dirtyPending, nil)
	if !out.Assist {
		t.Fatal("first real store to clean page did not assist")
	}
	if out.Fault {
		t.Fatal("dirty assist must not fault")
	}
	// Already-dirty page: no assist.
	clean := func(paging.VirtAddr) bool { return false }
	out = Evaluate(MaskedStore(0x1000, AllMask(8)), uniform(rwPage), clean, nil)
	if out.Assist {
		t.Fatal("store to dirty page assisted")
	}
}

func TestLoadIgnoresDirtyPending(t *testing.T) {
	dirtyPending := func(paging.VirtAddr) bool { return true }
	out := Evaluate(MaskedLoad(0x1000, AllMask(8)), uniform(rwPage), dirtyPending, nil)
	if out.Assist {
		t.Fatal("load triggered a dirty assist")
	}
}

func TestMovedElemsRespectMask(t *testing.T) {
	err := quick.Check(func(mask uint8) bool {
		op := MaskedLoad(0x1000, Mask(mask))
		out := Evaluate(op, uniform(rwPage), nil, nil)
		if out.Fault || out.Assist {
			return false
		}
		if len(out.MovedElems) != Mask(mask).PopCount() {
			return false
		}
		for _, i := range out.MovedElems {
			if !Mask(mask).Bit(i) {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 256})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAccessible(t *testing.T) {
	if !rwPage.Accessible(true) || !rwPage.Accessible(false) {
		t.Error("rw page should be fully accessible")
	}
	if roPage.Accessible(true) || !roPage.Accessible(false) {
		t.Error("ro page store/load accessibility wrong")
	}
	if kernPage.Accessible(false) {
		t.Error("kernel page accessible from user")
	}
	if noPage.Accessible(false) {
		t.Error("unmapped page accessible")
	}
}

func TestOpString(t *testing.T) {
	s := MaskedLoad(0x1234, 0b101).String()
	if len(s) == 0 {
		t.Fatal("empty op string")
	}
}
