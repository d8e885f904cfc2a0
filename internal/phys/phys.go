// Package phys models physical memory as a frame allocator.
//
// The simulator never stores page *contents* for kernel memory (the attacks
// only observe translation timing), but page-table construction and the
// data-movement semantics of the AVX masked operations need real, distinct
// physical frame numbers: TLB entries, paging-structure-cache tags and the
// PTE-line cache are all keyed by physical addresses of page-table pages.
package phys

import "fmt"

// FrameSize is the size of one physical frame in bytes (4 KiB).
const FrameSize = 1 << 12

// PFN is a physical frame number; physical address = PFN * FrameSize.
type PFN uint64

// PhysAddr returns the base physical address of the frame.
func (p PFN) PhysAddr() uint64 { return uint64(p) * FrameSize }

// Allocator hands out physical frames. Frames are never freed individually
// in the simulations (a machine's lifetime is one experiment), but Reset
// reclaims everything at once.
type Allocator struct {
	next  PFN
	limit PFN
	// asid is the last address-space identifier handed out (see NewASID).
	asid uint16
}

// NewAllocator creates an allocator spanning sizeBytes of physical memory.
func NewAllocator(sizeBytes uint64) *Allocator {
	if sizeBytes%FrameSize != 0 {
		panic("phys: size must be frame-aligned")
	}
	return &Allocator{
		// Leave frame 0 unused so that PFN 0 can mean "not present".
		next:  1,
		limit: PFN(sizeBytes / FrameSize),
	}
}

// Alloc returns one fresh frame.
func (a *Allocator) Alloc() PFN {
	return a.AllocContig(1)
}

// AllocContig returns the first frame of n physically contiguous frames.
// Huge-page mappings (2 MiB = 512 frames, 1 GiB = 512*512 frames) need
// contiguous, alignment-matched physical backing, exactly like a real OS.
func (a *Allocator) AllocContig(n uint64) PFN {
	if n == 0 {
		panic("phys: AllocContig(0)")
	}
	// Align the start so that huge mappings are naturally aligned.
	start := a.next
	if n > 1 {
		if rem := uint64(start) % n; rem != 0 {
			start += PFN(n - rem)
		}
	}
	end := start + PFN(n)
	if end > a.limit {
		panic(fmt.Sprintf("phys: out of physical memory (want %d frames, %d left)", n, a.limit-a.next))
	}
	a.next = end
	return start
}

// Allocated returns the number of frames handed out so far (including
// alignment holes).
func (a *Allocator) Allocated() uint64 { return uint64(a.next) - 1 }

// Capacity returns the total number of frames the allocator manages.
func (a *Allocator) Capacity() uint64 { return uint64(a.limit) }

// NewASID returns the next address-space identifier of this physical
// memory: 1, 2, 3, ... in the order the address spaces are built. The
// allocator stands for one machine's memory, so two machines that build
// the same address spaces in the same order number them alike, and a
// snapshot's TLB entries, tagged with those numbers, apply on either. It
// panics once the 16-bit identifier space is used up rather than reuse
// an identifier.
func (a *Allocator) NewASID() uint16 {
	if a.asid == ^uint16(0) {
		panic("phys: out of address-space identifiers")
	}
	a.asid++
	return a.asid
}
