// Package winkernel builds the Windows 10 kernel address-space layout of
// §IV-G: kernel and drivers randomized within
// 0xfffff80000000000..0xfffff88000000000 at 2 MiB granularity (2^18 slots,
// 18 bits of entropy), the kernel image occupying five consecutive 2 MiB
// pages, the entry point on an arbitrary 4 KiB boundary inside it, and —
// on KVAS-enabled builds — the KiSystemCall64Shadow region (three
// consecutive 4 KiB pages) at the build-constant offset +0x298000 from the
// kernel base.
package winkernel

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/paging"
	"repro/internal/phys"
	"repro/internal/rng"
)

// Address-space constants (Windows 10 x64).
const (
	// RegionBase is the start of the kernel/driver randomization range.
	RegionBase paging.VirtAddr = 0xfffff80000000000
	// RegionSize is the 512 GiB randomization range.
	RegionSize uint64 = 1 << 39
	// Slots is the number of 2 MiB-aligned kernel positions (18-bit
	// entropy).
	Slots = RegionSize / paging.Page2M // 262144
	// ImageSlots is the number of consecutive 2 MiB pages holding the
	// kernel image ("five consecutive 2-MiB pages", §IV-G).
	ImageSlots = 5
	// KVASOffset is the constant offset of the KVAS transition code
	// (KiSystemCall64Shadow) from the kernel base on Windows 10 1709.
	KVASOffset uint64 = 0x298000
	// KVASPages is the number of consecutive 4 KiB KVAS pages.
	KVASPages = 3
)

// Config selects the victim's Windows configuration.
type Config struct {
	// Seed drives boot randomization.
	Seed uint64
	// KVAS enables kernel virtual-address shadowing (the Windows KPTI):
	// the user-visible table contains only the shadow transition pages.
	KVAS bool
	// Drivers is the number of additional driver images scattered through
	// the region (each 1–8 slots), modelling the loaded-driver population.
	Drivers int
	// MaxSlot, when positive, restricts randomization to the first MaxSlot
	// slots. The full region's 4 KiB-granular KVAS scan is hostile to unit
	// tests; scaled experiments restrict the slide and extrapolate
	// (see experiments.Scale).
	MaxSlot int
}

// Kernel is a booted Windows image.
type Kernel struct {
	Cfg  Config
	Base paging.VirtAddr // kernel image base (2 MiB aligned)
	Slot int
	// EntryVA is the randomized entry point (4 KiB boundary inside the
	// image; the remaining 9 bits of entropy §IV-G mentions).
	EntryVA paging.VirtAddr
	// KVASVA is the shadow transition region base (0 when KVAS is off).
	KVASVA paging.VirtAddr
	// DriverBases lists additional driver image bases.
	DriverBases []paging.VirtAddr

	m        *machine.Machine
	kernelAS *paging.AddressSpace
	userAS   *paging.AddressSpace
}

// Boot constructs the Windows layout on m.
func Boot(m *machine.Machine, cfg Config) (*Kernel, error) {
	r := rng.New(cfg.Seed ^ 0x77696e646f777331)
	k := &Kernel{Cfg: cfg, m: m}
	k.kernelAS = paging.NewAddressSpace(m.Alloc)

	// Keep the image away from the region tail so drivers fit after it.
	maxSlot := int(Slots) - 64
	if cfg.MaxSlot > 0 && cfg.MaxSlot < maxSlot {
		maxSlot = cfg.MaxSlot
	}
	k.Slot = r.Intn(maxSlot)
	k.Base = RegionBase + paging.VirtAddr(uint64(k.Slot)<<21)
	// The entry point is randomized to a 4 KiB boundary inside the first
	// image slot (the residual 9 bits of entropy §IV-G mentions); that
	// slot is backed by 4 KiB PTEs — kernel text around the entry thunks
	// is not large-page mapped on Windows — which is what lets the TLB
	// attack resolve the entry page (EntryPointBreak).
	k.EntryVA = k.Base + paging.VirtAddr(uint64(r.Intn(paging.Page2M/paging.Page4K))<<12)
	for s := 0; s < ImageSlots; s++ {
		slotVA := k.Base + paging.VirtAddr(uint64(s)<<21)
		flags := paging.Flags(paging.Global)
		if s >= 3 {
			flags |= paging.Writable // data slots
		}
		if s == 0 {
			for pg := 0; pg < paging.Page2M/paging.Page4K; pg++ {
				if err := k.kernelAS.Map(slotVA+paging.VirtAddr(uint64(pg)<<12),
					paging.Page4K, m.Alloc.Alloc(), flags); err != nil {
					return nil, err
				}
			}
			continue
		}
		frame := m.Alloc.AllocContig(imageSlotFrames)
		if err := k.kernelAS.Map(slotVA, paging.Page2M, frame, flags); err != nil {
			return nil, err
		}
	}

	// Scatter driver images after the kernel. Driver images are small
	// (1–3 slots): only the kernel image spans five consecutive 2 MiB
	// pages, which is why the run length identifies it (§IV-G).
	cur := k.Slot + ImageSlots + 1 + r.Intn(8)
	for d := 0; d < cfg.Drivers && cur < int(Slots)-16; d++ {
		span := 1 + r.Intn(3)
		base := RegionBase + paging.VirtAddr(uint64(cur)<<21)
		for s := 0; s < span; s++ {
			frame, err := allocImageSlot(m.Alloc)
			if err != nil {
				return nil, fmt.Errorf("winkernel: driver %d of %d: %w", d+1, cfg.Drivers, err)
			}
			if err := k.kernelAS.Map(base+paging.VirtAddr(uint64(s)<<21), paging.Page2M, frame, paging.Global); err != nil {
				return nil, err
			}
		}
		k.DriverBases = append(k.DriverBases, base)
		cur += span + 1 + r.Intn(12)
	}

	if cfg.KVAS {
		k.userAS = paging.NewAddressSpace(m.Alloc)
		k.KVASVA = k.Base + paging.VirtAddr(KVASOffset)
		for i := 0; i < KVASPages; i++ {
			va := k.KVASVA + paging.VirtAddr(uint64(i)<<12)
			if err := k.userAS.Map(va, paging.Page4K, m.Alloc.Alloc(), 0); err != nil {
				return nil, err
			}
		}
		m.InstallAddressSpaces(k.kernelAS, k.userAS)
	} else {
		k.userAS = k.kernelAS
		m.InstallAddressSpaces(k.kernelAS, k.kernelAS)
	}
	return k, nil
}

// imageSlotFrames is the frame count of one 2 MiB image slot.
const imageSlotFrames = paging.Page2M / phys.FrameSize

// allocImageSlot allocates the contiguous frames backing one 2 MiB image
// slot, or fails when physical memory cannot hold it: the run may lose up
// to imageSlotFrames-1 frames to alignment, and boot keeps imageSlotFrames
// more in reserve for page tables, the KVAS pages and the attacker's own
// pages (calibration maps 256 of them).
func allocImageSlot(a *phys.Allocator) (phys.PFN, error) {
	if free := a.Capacity() - a.Allocated() - 1; free < 3*imageSlotFrames {
		return 0, fmt.Errorf("out of physical memory for a 2 MiB image slot (%d frames free)", free)
	}
	return a.AllocContig(imageSlotFrames), nil
}

// ImageEnd returns one past the kernel image's last mapped byte.
func (k *Kernel) ImageEnd() paging.VirtAddr {
	return k.Base + paging.VirtAddr(uint64(ImageSlots)<<21)
}

// Syscall performs one victim system call: the entry page (and its
// neighbour, the dispatch continuation) become TLB-resident. This is the
// victim activity the entry-point TLB attack observes.
func (k *Kernel) Syscall() {
	k.m.Syscall(k.EntryVA, k.EntryVA+paging.Page4K)
}
