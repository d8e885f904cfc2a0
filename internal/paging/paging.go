// Package paging implements the x86-64 4-level radix page tables the
// simulator translates through: PML4 → PDPT → PD → PT, with 4 KiB, 2 MiB
// and 1 GiB mappings and the architectural PTE flag set.
//
// The structures are real radix tables (512-entry nodes indexed by the
// virtual-address bit fields), not an address→flags map: the attacks in the
// paper leak the *level* at which a hardware page-table walk terminates
// (primitive P3), so the walker must traverse genuine intermediate entries
// and report exactly which structures it touched.
package paging

import (
	"fmt"

	"repro/internal/phys"
)

// VirtAddr is a 64-bit virtual address. Only canonical addresses (bits
// 63:48 equal to bit 47) are translatable.
type VirtAddr uint64

// Level identifies a paging structure. Numbering follows walk depth:
// PML4 is consulted first, PT last.
type Level int

// Paging-structure levels. LevelNone marks "no walk happened" (TLB hit).
const (
	LevelNone Level = iota
	LevelPML4       // page map level 4 (bits 47:39)
	LevelPDPT       // page directory pointer table (bits 38:30); 1 GiB leaf
	LevelPD         // page directory (bits 29:21); 2 MiB leaf
	LevelPT         // page table (bits 20:12); 4 KiB leaf
)

// String returns the conventional name of the structure.
func (l Level) String() string {
	switch l {
	case LevelNone:
		return "none"
	case LevelPML4:
		return "PML4"
	case LevelPDPT:
		return "PDPT"
	case LevelPD:
		return "PD"
	case LevelPT:
		return "PT"
	}
	return fmt.Sprintf("Level(%d)", int(l))
}

// Page sizes supported by the three leaf levels.
const (
	Page4K = 1 << 12
	Page2M = 1 << 21
	Page1G = 1 << 30
)

// PageSize is a mapping granularity.
type PageSize uint64

// Bytes returns the size in bytes.
func (s PageSize) Bytes() uint64 { return uint64(s) }

// LeafLevel returns the paging level whose entries map pages of this size.
func (s PageSize) LeafLevel() Level {
	switch s {
	case Page4K:
		return LevelPT
	case Page2M:
		return LevelPD
	case Page1G:
		return LevelPDPT
	}
	panic(fmt.Sprintf("paging: invalid page size %#x", uint64(s)))
}

// Flags is the architectural PTE flag set (subset relevant to the attacks).
type Flags uint16

// PTE flag bits.
const (
	Present  Flags = 1 << 0 // P: translation valid
	Writable Flags = 1 << 1 // R/W: writes allowed
	User     Flags = 1 << 2 // U/S: user-mode accessible
	Accessed Flags = 1 << 3 // A: set by hardware on first access
	Dirty    Flags = 1 << 4 // D: set by hardware on first write (assist!)
	Global   Flags = 1 << 5 // G: survives CR3 switches without PCID
	NoExec   Flags = 1 << 6 // NX: instruction fetch forbidden
)

// Has reports whether all bits in f2 are set.
func (f Flags) Has(f2 Flags) bool { return f&f2 == f2 }

// String renders the flags in /proc/PID/maps style (rwx plus u/k and P).
func (f Flags) String() string {
	b := []byte("----")
	if f.Has(Present) {
		b[0] = 'p'
	}
	b[1] = 'r' // present pages are always readable on x86
	if !f.Has(Present) {
		b[1] = '-'
	}
	if f.Has(Writable) {
		b[2] = 'w'
	}
	if !f.Has(NoExec) && f.Has(Present) {
		b[3] = 'x'
	}
	s := string(b)
	if f.Has(User) {
		return s + "u"
	}
	return s + "k"
}

// entry is one slot of a paging structure. Its fields are ordered so an
// entry packs into 24 bytes and a table into 12 KiB, one allocation size
// class with nothing wasted: every boot allocates thousands of tables.
type entry struct {
	next  *table   // interior only
	pfn   phys.PFN // leaf: mapped frame; interior: frame of the next table
	flags Flags
	leaf  bool // true if this entry maps a page (PS bit or PT level)
}

// table is one 512-entry paging structure. Its physical frame is recorded
// where the table is referenced: in the interior entry pointing at it, or
// in AddressSpace.rootFrame for the PML4.
type table struct {
	entries [512]entry
}

// index extraction per level.
func pml4Index(va VirtAddr) int { return int(va>>39) & 0x1ff }
func pdptIndex(va VirtAddr) int { return int(va>>30) & 0x1ff }
func pdIndex(va VirtAddr) int   { return int(va>>21) & 0x1ff }
func ptIndex(va VirtAddr) int   { return int(va>>12) & 0x1ff }

// Canonical reports whether va is a canonical 48-bit address.
func Canonical(va VirtAddr) bool {
	top := uint64(va) >> 47
	return top == 0 || top == 0x1ffff
}

// AddressSpace is one set of page tables rooted at a PML4 (one CR3 value).
// KPTI is modelled as two AddressSpaces per process sharing leaf frames.
type AddressSpace struct {
	alloc     *phys.Allocator
	root      *table
	rootFrame phys.PFN
	// ASID tags TLB entries; distinct address spaces of one machine get
	// distinct ASIDs so the TLB can model PCID-tagged entries. They are
	// numbered per allocator (phys.Allocator.NewASID), so a machine's
	// ASIDs, like the rest of its state, follow from its build sequence.
	ASID uint16
	// version counts structural and flag mutations (Map/Unmap/Protect,
	// A/D-bit updates). machine.Snapshot records it so Restore can verify
	// the replay-purity contract: a snapshot only applies while the page
	// tables are bit-identical to snapshot time.
	version uint64
}

// Version returns the mutation counter. Two equal readings bracket a span
// with no page-table mutation of any kind.
func (as *AddressSpace) Version() uint64 { return as.version }

// NewAddressSpace creates an empty address space drawing page-table frames
// from alloc.
func NewAddressSpace(alloc *phys.Allocator) *AddressSpace {
	return &AddressSpace{
		alloc:     alloc,
		root:      new(table),
		rootFrame: alloc.Alloc(),
		ASID:      alloc.NewASID(),
	}
}

func (as *AddressSpace) childOf(t *table, idx int, flags Flags) (*table, error) {
	e := &t.entries[idx]
	if e.leaf {
		// A huge-page leaf already maps this slot; descending would
		// silently destroy the existing mapping.
		return nil, fmt.Errorf("paging: slot already mapped by a huge page")
	}
	if e.next == nil {
		e.next = new(table)
		e.pfn = as.alloc.Alloc()
		e.flags = Present
	}
	// Interior entries accumulate the union of permissions beneath them,
	// as a real OS sets maximally-permissive intermediate entries.
	e.flags |= Present | (flags & (Writable | User))
	return e.next, nil
}

// Map establishes a mapping of size bytes at va → frame with the given
// flags. va must be size-aligned and canonical; the target slots must not
// already map a page. Present is implied.
func (as *AddressSpace) Map(va VirtAddr, size PageSize, frame phys.PFN, flags Flags) error {
	if !Canonical(va) {
		return fmt.Errorf("paging: map of non-canonical address %#x", uint64(va))
	}
	if uint64(va)%size.Bytes() != 0 {
		return fmt.Errorf("paging: map of unaligned address %#x (size %#x)", uint64(va), size.Bytes())
	}
	flags |= Present
	switch size {
	case Page1G:
		pdpt, err := as.childOf(as.root, pml4Index(va), flags)
		if err != nil {
			return err
		}
		e := &pdpt.entries[pdptIndex(va)]
		if e.flags.Has(Present) {
			return fmt.Errorf("paging: %#x already mapped at PDPT", uint64(va))
		}
		*e = entry{flags: flags, pfn: frame, leaf: true}
	case Page2M:
		pdpt, err := as.childOf(as.root, pml4Index(va), flags)
		if err != nil {
			return err
		}
		pd, err := as.childOf(pdpt, pdptIndex(va), flags)
		if err != nil {
			return err
		}
		e := &pd.entries[pdIndex(va)]
		if e.flags.Has(Present) {
			return fmt.Errorf("paging: %#x already mapped at PD", uint64(va))
		}
		*e = entry{flags: flags, pfn: frame, leaf: true}
	case Page4K:
		pdpt, err := as.childOf(as.root, pml4Index(va), flags)
		if err != nil {
			return err
		}
		pd, err := as.childOf(pdpt, pdptIndex(va), flags)
		if err != nil {
			return err
		}
		pt, err := as.childOf(pd, pdIndex(va), flags)
		if err != nil {
			return err
		}
		e := &pt.entries[ptIndex(va)]
		if e.flags.Has(Present) {
			return fmt.Errorf("paging: %#x already mapped at PT", uint64(va))
		}
		*e = entry{flags: flags, pfn: frame, leaf: true}
	default:
		return fmt.Errorf("paging: invalid page size %#x", size.Bytes())
	}
	as.version++
	return nil
}

// MapRange maps length bytes starting at va using pages of the given size,
// allocating fresh contiguous physical frames. It returns the first frame.
func (as *AddressSpace) MapRange(va VirtAddr, length uint64, size PageSize, flags Flags) (phys.PFN, error) {
	if length == 0 || length%size.Bytes() != 0 {
		return 0, fmt.Errorf("paging: range length %#x not a multiple of page size %#x", length, size.Bytes())
	}
	first := as.alloc.AllocContig(length / phys.FrameSize)
	for off := uint64(0); off < length; off += size.Bytes() {
		frame := first + phys.PFN(off/phys.FrameSize)
		if err := as.Map(va+VirtAddr(off), size, frame, flags); err != nil {
			return 0, err
		}
	}
	return first, nil
}

// lookupLeaf returns the leaf entry mapping va, or nil if unmapped, along
// with the leaf's level.
func (as *AddressSpace) lookupLeaf(va VirtAddr) (*entry, Level) {
	e := &as.root.entries[pml4Index(va)]
	if !e.flags.Has(Present) {
		return nil, LevelPML4
	}
	e2 := &e.next.entries[pdptIndex(va)]
	if !e2.flags.Has(Present) {
		return nil, LevelPDPT
	}
	if e2.leaf {
		return e2, LevelPDPT
	}
	e3 := &e2.next.entries[pdIndex(va)]
	if !e3.flags.Has(Present) {
		return nil, LevelPD
	}
	if e3.leaf {
		return e3, LevelPD
	}
	e4 := &e3.next.entries[ptIndex(va)]
	if !e4.flags.Has(Present) {
		return nil, LevelPT
	}
	return e4, LevelPT
}

// Unmap removes the leaf mapping covering va. Intermediate tables are kept
// (as Linux does); unmapping an unmapped address is an error.
func (as *AddressSpace) Unmap(va VirtAddr) error {
	e, _ := as.lookupLeaf(va)
	if e == nil {
		return fmt.Errorf("paging: unmap of unmapped address %#x", uint64(va))
	}
	*e = entry{}
	as.version++
	return nil
}

// Protect replaces the permission flags of the leaf mapping covering va,
// preserving Present/Accessed/Dirty state. Used to model mprotect.
func (as *AddressSpace) Protect(va VirtAddr, flags Flags) error {
	e, _ := as.lookupLeaf(va)
	if e == nil {
		return fmt.Errorf("paging: protect of unmapped address %#x", uint64(va))
	}
	keep := e.flags & (Present | Accessed | Dirty)
	e.flags = keep | (flags &^ (Present | Accessed | Dirty))
	as.version++
	return nil
}

// Walk is the architectural page-table walk result for one address.
type Walk struct {
	VA VirtAddr
	// Mapped is true if a leaf translation exists.
	Mapped bool
	// Flags are the leaf flags when Mapped (zero otherwise).
	Flags Flags
	// PFN is the 4 KiB-granular frame that va falls in when Mapped.
	PFN phys.PFN
	// Size is the leaf page size when Mapped.
	Size PageSize
	// TermLevel is the level at which the walk terminated: the leaf level
	// for a mapped address, or the level holding the first non-present
	// entry for an unmapped one.
	TermLevel Level
	// Visited lists the physical frames of every paging structure the walk
	// read, in order. The timing model charges a memory access per element
	// and the PTE-line cache is keyed by these frames.
	Visited []phys.PFN
	// Dirty reports whether the leaf already had its Dirty bit set.
	Dirty bool
}

// Translate performs an architectural walk for va. It never mutates
// Accessed/Dirty — the machine layer does that, because A/D updates are
// what trigger microcode assists.
//
// The visited buffer, if non-nil, is reused for the Visited slice to avoid
// per-probe allocations on hot probing loops.
func (as *AddressSpace) Translate(va VirtAddr, visited []phys.PFN) Walk {
	w := Walk{Visited: visited}
	as.TranslateTo(va, &w)
	return w
}

// TranslateTo is Translate writing its result into w, whose Visited
// backing array it reuses: the probing hot path walks into scratch it owns
// and copies no Walk.
func (as *AddressSpace) TranslateTo(va VirtAddr, w *Walk) {
	*w = Walk{VA: va, Visited: w.Visited[:0]}
	if !Canonical(va) {
		w.TermLevel = LevelPML4
		return
	}
	w.Visited = append(w.Visited, as.rootFrame)
	e := &as.root.entries[pml4Index(va)]
	if !e.flags.Has(Present) {
		w.TermLevel = LevelPML4
		return
	}
	w.Visited = append(w.Visited, e.pfn)
	e = &e.next.entries[pdptIndex(va)]
	if !e.flags.Has(Present) {
		w.TermLevel = LevelPDPT
		return
	}
	if e.leaf {
		w.finish(va, e, LevelPDPT, Page1G)
		return
	}
	w.Visited = append(w.Visited, e.pfn)
	e = &e.next.entries[pdIndex(va)]
	if !e.flags.Has(Present) {
		w.TermLevel = LevelPD
		return
	}
	if e.leaf {
		w.finish(va, e, LevelPD, Page2M)
		return
	}
	w.Visited = append(w.Visited, e.pfn)
	e = &e.next.entries[ptIndex(va)]
	if !e.flags.Has(Present) {
		w.TermLevel = LevelPT
		return
	}
	w.finish(va, e, LevelPT, Page4K)
}

// finish records the leaf e of a mapped walk.
func (w *Walk) finish(va VirtAddr, e *entry, lvl Level, size PageSize) {
	w.Mapped = true
	w.Flags = e.flags
	w.Size = size
	w.TermLevel = lvl
	w.Dirty = e.flags.Has(Dirty)
	offFrames := (uint64(va) % size.Bytes()) / phys.FrameSize
	w.PFN = e.pfn + phys.PFN(offFrames)
}

// markAccess sets Accessed (and Dirty for writes) on the leaf covering va.
// Returns true if the Dirty bit transitioned 0→1, which on real hardware is
// performed by a microcode assist.
func (as *AddressSpace) MarkAccess(va VirtAddr, write bool) (dirtied bool) {
	e, _ := as.lookupLeaf(va)
	if e == nil {
		return false
	}
	old := e.flags
	e.flags |= Accessed
	if write && !e.flags.Has(Dirty) {
		e.flags |= Dirty
		dirtied = true
	}
	if e.flags != old {
		as.version++
	}
	return dirtied
}

// PageBase returns the base address of the page of the given size
// containing va.
func PageBase(va VirtAddr, size PageSize) VirtAddr {
	return va &^ VirtAddr(size.Bytes()-1)
}
