package core

import (
	"sync/atomic"

	"repro/internal/paging"
	"repro/internal/userspace"
)

// UserRegion is one recovered same-class run of user pages (a Figure 7
// output row).
type UserRegion struct {
	Start, End paging.VirtAddr
	Class      PermClass
}

// Pages returns the region's span in pages.
func (r UserRegion) Pages() int { return int(uint64(r.End-r.Start) >> 12) }

// UserScanResult is the outcome of the fine-grained user-space scan
// (§IV-F).
type UserScanResult struct {
	Regions []UserRegion
	// LoadCycles and StoreCycles split the runtime between the masked-load
	// and masked-store probing (the paper reports 51 s for the load pass
	// and 44 s for the store pass). The fused scan attributes each
	// sub-probe to its side; the two-pass scan splits at the pass boundary.
	LoadCycles  uint64
	StoreCycles uint64
	TotalCycles uint64
}

// UserScan probes [start, end) at 4 KiB steps with the §IV-F methodology —
// masked loads filter out the unmapped/--- pages, masked stores classify
// the mapped pages into writable vs read-only — as one fused sweep:
// every chunk runs the load probes and then the store probes of its own
// pages, so the range is walked once, chunk setup is paid once, and the
// store warm-ups reuse translations the load probes just installed (see
// fusedWorker). Adjacent same-class pages merge into regions. Output is
// bit-identical at any Options.Workers setting and pool history, and the
// regions match the serialized two-sweep scan the parity suite keeps as
// its yardstick.
func UserScan(p *Prober, start, end paging.VirtAddr) UserScanResult {
	t0 := p.M.RDTSC()
	var res UserScanResult
	var loadSim, storeSim atomic.Uint64

	pages := int(uint64(end-start) >> 12)
	classes, _ := runSweep(p, start, pages, paging.Page4K, chunkPages,
		func(rp *Prober) *fusedWorker { return newFusedWorker(rp, &loadSim, &storeSim) },
		(*fusedWorker).HealProbe)

	res.LoadCycles = loadSim.Load()
	res.StoreCycles = storeSim.Load()
	res.TotalCycles = p.M.RDTSC() - t0
	res.Regions = mergeRegions(start, classes)
	return res
}

// mergeRegions merges the per-page permission classes into maximal
// same-class regions, dropping unmapped spans (the Figure 7 output rows).
// Every produced region is class-homogeneous, non-empty, non-overlapping,
// in ascending order, and maximal: two adjacent regions either differ in
// class or are separated by at least one unmapped page.
func mergeRegions(start paging.VirtAddr, classes []PermClass) []UserRegion {
	var regions []UserRegion
	i, pages := 0, len(classes)
	for i < pages {
		if classes[i] == PermUnmapped {
			i++
			continue
		}
		j := i
		for j < pages && classes[j] == classes[i] {
			j++
		}
		regions = append(regions, UserRegion{
			Start: start + paging.VirtAddr(uint64(i)<<12),
			End:   start + paging.VirtAddr(uint64(j)<<12),
			Class: classes[i],
		})
		i = j
	}
	return regions
}

// scanUntilWindow is the engine-sweep window of ScanUntilMapped: large
// enough to amortize a sweep's setup and let workers shard it, small enough
// that a hit near the region base does not drag a huge overshoot behind it.
const scanUntilWindow = 2048

// ScanUntilMapped probes forward from start at 4 KiB steps until the first
// mapped page (the §IV-F base-address search: "linearly probe the entire
// virtual address range"), up to limit pages. Returns the found address and
// the 1-based position of the hit in probe order.
//
// The search runs on the sharded engine in windows of scanUntilWindow
// pages — the last non-engine sweep moved onto the one scan path — so it
// parallelizes under Options.Workers and inherits the engine's healing;
// within a window the probing (and simulated cost) covers the whole
// window, as a sharded attacker's would.
func ScanUntilMapped(p *Prober, start paging.VirtAddr, limit int) (paging.VirtAddr, int, bool) {
	for probed := 0; probed < limit; {
		n := limit - probed
		if n > scanUntilWindow {
			n = scanUntilWindow
		}
		mapped, _ := p.ScanMapped(start+paging.VirtAddr(uint64(probed)<<12), n, paging.Page4K)
		for i, ok := range mapped {
			if ok {
				return start + paging.VirtAddr(uint64(probed+i)<<12), probed + i + 1, true
			}
		}
		probed += n
	}
	return 0, limit, false
}

// LibrarySignatureMatch scores a recovered region sequence against a known
// library's section signature. The observable signature of an image is its
// run list with r--/r-x collapsed to Readable and --- omitted; the final
// writable run may exceed the on-disk signature (loader bss
// over-allocation — the Figure 7 pages missing from the maps file), so it
// matches with >=.
func LibrarySignatureMatch(regions []UserRegion, im userspace.Image) bool {
	want := expectedRuns(im)
	if len(regions) != len(want) {
		return false
	}
	for i, w := range want {
		got := regions[i]
		if got.Class != w.class {
			return false
		}
		last := i == len(want)-1
		if last && w.class == PermWritable {
			if got.Pages() < w.pages {
				return false
			}
			continue
		}
		if got.Pages() != w.pages {
			return false
		}
	}
	return true
}

type classRun struct {
	class PermClass
	pages int
}

// expectedRuns derives the attack-observable run list from an image:
// --- sections vanish (no PTEs), and *directly adjacent* same-class
// sections fuse into one observed region — but sections separated by a ---
// gap stay distinct regions.
func expectedRuns(im userspace.Image) []classRun {
	var runs []classRun
	gapped := true // treat the image start as a boundary
	for _, sec := range im.Sections {
		var c PermClass
		switch sec.Perm {
		case userspace.PermNone:
			gapped = true // the gap splits the observed regions
			continue
		case userspace.PermR, userspace.PermRX:
			c = PermReadable
		case userspace.PermRW:
			c = PermWritable
		}
		if n := len(runs); n > 0 && runs[n-1].class == c && !gapped {
			runs[n-1].pages += sec.Pages
		} else {
			runs = append(runs, classRun{class: c, pages: sec.Pages})
		}
		gapped = false
	}
	return runs
}

// FingerprintLibraries assigns library names to the recovered regions:
// for every known image, every position in the region list is tested for a
// signature match. Returns image name → base address of the match.
func FingerprintLibraries(regions []UserRegion, known []userspace.Image) map[string]paging.VirtAddr {
	out := make(map[string]paging.VirtAddr)
	for _, im := range known {
		want := expectedRuns(im)
		for i := 0; i+len(want) <= len(regions); i++ {
			if LibrarySignatureMatch(regions[i:i+len(want)], im) {
				out[im.Name] = regions[i].Start
				break
			}
		}
	}
	return out
}
