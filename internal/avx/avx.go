// Package avx defines the architectural semantics of the AVX/AVX2 masked
// load and store instructions (VMASKMOVPS/PD, VPMASKMOVD/Q) that the
// side channel exploits.
//
// Two properties matter to the attacks (paper §III):
//
//  1. Fault suppression (P1): an element whose mask bit is clear never
//     faults, even if its address is unmapped or kernel-only. A probe with
//     an all-zero mask therefore touches arbitrary addresses silently.
//  2. Assist triggering: when the instruction's address range intersects an
//     invalid or inaccessible page, the CPU takes a microcode assist to
//     work out element-by-element whether a fault is required — and the
//     assist's latency leaks the page state.
//
// This package is pure instruction semantics: given a mask and the page
// states the address range covers, it decides which elements move, whether
// a fault is delivered and whether an assist fires. Timing lives in
// internal/machine.
package avx

import (
	"fmt"
	"math/bits"

	"repro/internal/paging"
)

// ElemSize is a masked element width in bytes.
type ElemSize int

// Element widths supported by the masked move family.
const (
	Elem32 ElemSize = 4 // VMASKMOVPS / VPMASKMOVD
	Elem64 ElemSize = 8 // VMASKMOVPD / VPMASKMOVQ
)

// VecWidth is a vector register width in bytes.
type VecWidth int

// Vector widths: XMM (AVX) and YMM (AVX2).
const (
	XMM VecWidth = 16
	YMM VecWidth = 32
)

// Mask is a per-element condition mask. Bit i (LSB-first) governs element
// i; set means "move", clear means "suppress". On hardware the mask is the
// sign bit of each element of a vector register — the bitmask here is the
// same information.
type Mask uint8

// ZeroMask is the all-suppressed mask the attack probes use.
const ZeroMask Mask = 0

// AllMask returns the mask with the low n bits set.
func AllMask(n int) Mask {
	return Mask(1<<n) - 1
}

// Bit reports whether element i's mask bit is set.
func (m Mask) Bit(i int) bool { return m&(1<<i) != 0 }

// PopCount returns the number of set mask bits.
func (m Mask) PopCount() int {
	n := 0
	for v := m; v != 0; v &= v - 1 {
		n++
	}
	return n
}

// Op is a masked-move instruction instance.
type Op struct {
	Store bool     // false: masked load; true: masked store
	Width VecWidth // XMM or YMM
	Elem  ElemSize // 4- or 8-byte elements
	Addr  paging.VirtAddr
	Mask  Mask
}

// MaskedLoad builds a masked-load op (VPMASKMOVD ymm, ymm, m256 shape).
func MaskedLoad(addr paging.VirtAddr, mask Mask) Op {
	return Op{Store: false, Width: YMM, Elem: Elem32, Addr: addr, Mask: mask}
}

// MaskedStore builds a masked-store op (VPMASKMOVD m256, ymm, ymm shape).
func MaskedStore(addr paging.VirtAddr, mask Mask) Op {
	return Op{Store: true, Width: YMM, Elem: Elem32, Addr: addr, Mask: mask}
}

// NumElems returns the number of vector elements the op carries. Element
// widths are powers of two, so a shift does the division (a divide by a
// variable is a noticeable share of a zero-mask probe's host cost).
func (o Op) NumElems() int { return int(o.Width) >> bits.TrailingZeros(uint(o.Elem)) }

// ElemAddr returns the address of element i.
func (o Op) ElemAddr(i int) paging.VirtAddr {
	return o.Addr + paging.VirtAddr(i*int(o.Elem))
}

// Pages returns the distinct 4 KiB page base addresses the op's byte range
// [Addr, Addr+Width) covers: one page, or two when it straddles a boundary.
func (o Op) Pages() []paging.VirtAddr {
	first, last := o.PageSpan()
	if first == last {
		return []paging.VirtAddr{first}
	}
	return []paging.VirtAddr{first, last}
}

// PageSpan returns the first and last 4 KiB page base the op's byte range
// covers; they are equal when the op does not straddle a page boundary.
// Allocation-free variant of Pages for hot paths.
func (o Op) PageSpan() (first, last paging.VirtAddr) {
	first = paging.PageBase(o.Addr, paging.Page4K)
	last = paging.PageBase(o.Addr+paging.VirtAddr(int(o.Width)-1), paging.Page4K)
	return first, last
}

// ElemsOnPage returns the element indices whose bytes intersect the 4 KiB
// page starting at pageBase.
func (o Op) ElemsOnPage(pageBase paging.VirtAddr) []int {
	var idx []int
	for i := 0; i < o.NumElems(); i++ {
		if o.elemOnPage(i, pageBase) {
			idx = append(idx, i)
		}
	}
	return idx
}

// PageState is what the memory system reports about one page for the
// purposes of masked-op semantics.
type PageState struct {
	Mapped   bool
	Writable bool
	UserOK   bool // user-mode accessible (U/S bit)
}

// Accessible reports whether the given access kind is architecturally
// permitted from user mode.
func (s PageState) Accessible(store bool) bool {
	if !s.Mapped || !s.UserOK {
		return false
	}
	if store && !s.Writable {
		return false
	}
	return true
}

// Outcome is the architectural result of executing a masked op.
type Outcome struct {
	// Fault is true when a #PF must be delivered: some element with a set
	// mask bit touches an inaccessible or unmapped page.
	Fault bool
	// FaultAddr is the first faulting element's address when Fault.
	FaultAddr paging.VirtAddr
	// Assist is true when the instruction takes a microcode assist: its
	// range intersects a page that is not plainly accessible (including
	// the all-zero-mask suppressed case), or a store must set a Dirty bit.
	Assist bool
	// Suppressed counts elements whose faults were suppressed by clear
	// mask bits on bad pages.
	Suppressed int
	// MovedElems lists the element indices that actually transfer data.
	MovedElems []int
}

// Evaluate applies the masked-op fault/assist rules. pageState must return
// the state of each page returned by o.Pages(); dirtyPending reports, for
// stores only, whether the op would be the first write to a clean page
// (triggering the Dirty-bit assist). movedBuf backs Outcome.MovedElems
// (may be nil), so hot probing loops can evaluate a masked op without
// allocating. An op has at most NumElems moved elements.
func Evaluate(o Op, pageState func(pageBase paging.VirtAddr) PageState, dirtyPending func(pageBase paging.VirtAddr) bool, movedBuf []int) Outcome {
	var out Outcome
	moved := movedBuf[:0]
	// seen de-duplicates boundary-straddling elements that intersect both
	// pages (NumElems ≤ 8, so a bitmask suffices).
	var seen uint16
	first, last := o.PageSpan()
	npages := 1
	if last != first {
		npages = 2
	}
	for pi := 0; pi < npages; pi++ {
		page := first
		if pi == 1 {
			page = last
		}
		st := pageState(page)
		if st.Accessible(o.Store) {
			anySet := false
			for i := 0; i < o.NumElems(); i++ {
				if !o.elemOnPage(i, page) || !o.Mask.Bit(i) {
					continue
				}
				anySet = true
				if seen&(1<<i) == 0 {
					seen |= 1 << i
					moved = append(moved, i)
				}
			}
			if o.Store && dirtyPending != nil && dirtyPending(page) && anySet {
				// First real write to a clean page: hardware sets the
				// Dirty bit via a microcode assist.
				out.Assist = true
			}
			continue
		}
		// Page is invalid or inaccessible: the instruction microcode must
		// inspect the mask — this is the assist the side channel times.
		out.Assist = true
		for i := 0; i < o.NumElems(); i++ {
			if !o.elemOnPage(i, page) {
				continue
			}
			if o.Mask.Bit(i) {
				if !out.Fault {
					out.Fault = true
					out.FaultAddr = o.ElemAddr(i)
				}
			} else {
				out.Suppressed++
			}
		}
	}
	if len(moved) > 0 {
		out.MovedElems = moved
	}
	return out
}

// elemOnPage reports whether element i's bytes intersect the 4 KiB page at
// pageBase (allocation-free form of ElemsOnPage).
func (o Op) elemOnPage(i int, pageBase paging.VirtAddr) bool {
	lo := o.ElemAddr(i)
	hi := lo + paging.VirtAddr(int(o.Elem)-1)
	return paging.PageBase(lo, paging.Page4K) == pageBase || paging.PageBase(hi, paging.Page4K) == pageBase
}

// String renders the op in assembler-ish syntax for diagnostics.
func (o Op) String() string {
	mnemonic := "vpmaskmovd"
	dir := "ymm, ymm, [mem]"
	if o.Store {
		dir = "[mem], ymm, ymm"
	}
	return fmt.Sprintf("%s %s addr=%#x mask=%08b", mnemonic, dir, uint64(o.Addr), uint8(o.Mask))
}
