package experiments

import (
	"fmt"
	"strings"

	"repro/internal/behavior"
	"repro/internal/core"
	"repro/internal/linux"
	"repro/internal/machine"
	"repro/internal/paging"
	"repro/internal/rng"
	"repro/internal/sgx"
	"repro/internal/trace"
	"repro/internal/uarch"
	"repro/internal/userspace"
	"repro/internal/winkernel"
)

// Fig6BehaviorSpy reproduces Figure 6: a spy samples the TLB state of the
// bluetooth and psmouse modules once per second for 100 s while the victim
// streams Bluetooth audio and moves the mouse in bursts.
func Fig6BehaviorSpy(sc Scale) Report {
	m := machine.New(uarch.IceLake1065G7(), sc.Seed)
	k, err := linux.Boot(m, linux.Config{Seed: sc.Seed + 8})
	if err != nil {
		return Report{ID: "Fig. 6", Measured: err.Error()}
	}
	p, err := core.NewProber(m, sc.proberOptions())
	if err != nil {
		return Report{ID: "Fig. 6", Measured: err.Error()}
	}

	// Phase 1: locate the target modules with the module attack (the
	// bluetooth and psmouse sizes are unique, so they classify exactly).
	mres := core.Modules(p, core.SizeTable(k.ProcModules()))
	targets, err := core.LocateTargets(mres, "bluetooth", "psmouse")
	if err != nil {
		return Report{ID: "Fig. 6", Measured: err.Error()}
	}

	// Phase 2: victim timelines — audio bursts and mouse bursts.
	r := rng.New(sc.Seed + 9)
	btTL := behavior.RandomTimeline(behavior.BluetoothAudio(), sc.BehaviorSeconds, 12, 18, r)
	mouseTL := behavior.RandomTimeline(behavior.MouseMovement(), sc.BehaviorSeconds, 8, 6, r)
	drv, err := behavior.NewDriver(k, btTL, mouseTL)
	if err != nil {
		return Report{ID: "Fig. 6", Measured: err.Error()}
	}

	spy := &core.BehaviorSpy{P: p, Targets: targets, PagesPerModule: 10, TickSec: 1}
	traces, err := spy.RunWindow(drv, 0, sc.BehaviorSeconds)
	if err != nil {
		return Report{ID: "Fig. 6", Measured: err.Error()}
	}

	accBT := traces[0].Accuracy(btTL)
	accMouse := traces[1].Accuracy(mouseTL)
	ok := accBT >= 0.9 && accMouse >= 0.9

	var text strings.Builder
	for i, tr := range traces {
		series := &trace.Series{Name: tr.Module}
		for _, s := range tr.Samples {
			series.Add(s.TimeSec, s.MinCycles)
		}
		plot := trace.NewPlot(fmt.Sprintf("Fig. 6 — %s TLB probe (fast = active)", tr.Module),
			"elapsed time (s)", "access time (cycles)")
		plot.AddSeries(series, 'o')
		text.WriteString(plot.Render())
		_ = i
	}
	return Report{
		ID:         "Fig. 6",
		Title:      "User-behavior inference via module TLB state (i7-1065G7)",
		PaperClaim: "execution times drop while the module is in use; Bluetooth and mouse activity windows are visible",
		Measured:   fmt.Sprintf("activity-detection accuracy: bluetooth %.1f%%, psmouse %.1f%%", 100*accBT, 100*accMouse),
		OK:         ok,
		Text:       text.String(),
	}
}

// Fig7SGXFineGrained reproduces §IV-F and Figure 7: from inside an SGX
// enclave, find the process code base by linear probing, then recover the
// section map with the fused load+store scan and fingerprint libc by its
// section-size signature, including pages absent from /proc/PID/maps.
func Fig7SGXFineGrained(sc Scale) Report {
	m := machine.New(uarch.IceLake1065G7(), sc.Seed)
	if _, err := linux.Boot(m, linux.Config{Seed: sc.Seed + 10}); err != nil {
		return Report{ID: "Fig. 7 / §IV-F", Measured: err.Error()}
	}
	proc, err := userspace.Build(m, userspace.Config{
		Seed:           sc.Seed + 11,
		HideLastRWPage: true,
		EntropyBits:    sc.UserEntropyBits,
	})
	if err != nil {
		return Report{ID: "Fig. 7 / §IV-F", Measured: err.Error()}
	}
	enc, err := sgx.Enter(m, sgx.RDTSC)
	if err != nil {
		return Report{ID: "Fig. 7 / §IV-F", Measured: err.Error()}
	}
	defer enc.Exit()
	p, err := core.NewProber(m, sc.proberOptions())
	if err != nil {
		return Report{ID: "Fig. 7 / §IV-F", Measured: err.Error()}
	}

	// Base search: linear probe from the region base (§IV-F).
	limit := 1 << sc.UserEntropyBits
	t0 := m.RDTSC()
	exeFound, probes, ok1 := core.ScanUntilMapped(p, userspace.ExeRegionBase, limit+1024)
	searchCycles := m.RDTSC() - t0
	baseOK := ok1 && exeFound == proc.Exe.Base

	// Section map: fused load+store scan over the exe and the library area.
	exeScan := core.UserScan(p, proc.Exe.Base-16*paging.Page4K, proc.Exe.End()+8*paging.Page4K)
	libStart := proc.Libs[0].Base - 16*paging.Page4K
	libEnd := proc.Libs[len(proc.Libs)-1].End() + 8*paging.Page4K
	libScan := core.UserScan(p, libStart, libEnd)

	// Fingerprint the libraries by signature.
	found := core.FingerprintLibraries(libScan.Regions, userspace.StandardLibraries())
	libcOK := false
	for _, lib := range proc.Libs {
		if lib.Image.Name == "libc.so" && found["libc.so"] == lib.Base {
			libcOK = true
		}
	}

	// Hidden-page check: the scan must see the page /proc misses.
	hiddenOK := true
	for _, hp := range proc.Exe.HiddenPages {
		covered := false
		for _, rg := range exeScan.Regions {
			if hp >= rg.Start && hp < rg.End && rg.Class == core.PermWritable {
				covered = true
			}
		}
		if !covered {
			hiddenOK = false
		}
	}

	// Permission ground truth (the custom-LKM page-table check of §IV-F).
	permOK := true
	for _, rg := range exeScan.Regions {
		for va := rg.Start; va < rg.End; va += paging.Page4K {
			gt, mapped := proc.GroundTruthPerm(va)
			switch rg.Class {
			case core.PermWritable:
				if !mapped || gt != userspace.PermRW {
					permOK = false
				}
			case core.PermReadable:
				if !mapped || gt == userspace.PermRW {
					permOK = false
				}
			}
		}
	}

	// Full-scale runtime model: the paper probes the entire 28-bit range
	// twice — once with masked loads (51 s), once with masked stores
	// (44 s). Measure this machine's per-address probe cost on unmapped
	// space (the overwhelming majority of the range) and extrapolate.
	probeVA := paging.VirtAddr(0x600000000000)
	tp := m.RDTSC()
	for i := 0; i < 2048; i++ {
		p.ProbeMapped(probeVA + paging.VirtAddr(i*paging.Page4K))
	}
	loadPer := float64(m.RDTSC()-tp) / 2048
	tp = m.RDTSC()
	for i := 0; i < 2048; i++ {
		p.ProbeMappedStore(probeVA + paging.VirtAddr(i*paging.Page4K))
	}
	storePer := float64(m.RDTSC()-tp) / 2048
	const fullProbes = 1 << 28
	extLoadSec := m.Preset.CyclesToSeconds(uint64(loadPer * fullProbes))
	extStoreSec := m.Preset.CyclesToSeconds(uint64(storePer * fullProbes))

	loadSec := m.Preset.CyclesToSeconds(libScan.LoadCycles + searchCycles)
	storeSec := m.Preset.CyclesToSeconds(libScan.StoreCycles)

	tab := &trace.Table{Header: []string{"region", "class", "pages"}}
	for _, rg := range exeScan.Regions {
		tab.AddRow(fmt.Sprintf("%#x-%#x", uint64(rg.Start), uint64(rg.End)), rg.Class.String(),
			fmt.Sprintf("%d", rg.Pages()))
	}
	for _, rg := range libScan.Regions {
		tab.AddRow(fmt.Sprintf("%#x-%#x", uint64(rg.Start), uint64(rg.End)), rg.Class.String(),
			fmt.Sprintf("%d", rg.Pages()))
	}

	// Shape: store pass faster than load pass (P6), both tens of seconds
	// at full scale.
	ok := baseOK && libcOK && hiddenOK && permOK &&
		extStoreSec < extLoadSec && extLoadSec > 10 && extLoadSec < 500
	return Report{
		ID:         "Fig. 7 / §IV-F",
		Title:      fmt.Sprintf("Fine-grained ASLR break inside SGX (entropy scaled to %d bits)", sc.UserEntropyBits),
		PaperClaim: "code base found (51 s load / 44 s store at 28-bit entropy); libc identified by section signature; pages missing from /proc/PID/maps detected; all recovered permissions correct",
		Measured: fmt.Sprintf("base %s after %d probes; libc %s; hidden pages %s; perms %s; window load %.3gs/store %.3gs; full 28-bit extrapolation %.0fs load / %.0fs store",
			verdict(baseOK), probes, verdict(libcOK), verdict(hiddenOK), verdict(permOK),
			loadSec, storeSec, extLoadSec, extStoreSec),
		OK:   ok,
		Text: tab.Render(),
	}
}

// Sec4gWindows reproduces §IV-G: the 2^18-slot Windows kernel-region scan
// on Alder Lake and the KVAS scan on Skylake.
func Sec4gWindows(sc Scale) Report {
	// Part 1: kernel region (five consecutive 2 MiB pages).
	m := machine.New(uarch.AlderLake12400F(), sc.Seed)
	wk, err := winkernel.Boot(m, winkernel.Config{Seed: sc.Seed + 12, Drivers: 24})
	if err != nil {
		return Report{ID: "§IV-G", Measured: err.Error()}
	}
	p, err := core.NewProber(m, sc.proberOptions())
	if err != nil {
		return Report{ID: "§IV-G", Measured: err.Error()}
	}
	wres, err := core.WindowsKernel(p, winkernel.ImageSlots)
	regionOK := err == nil && wres.RegionBase == wk.Base
	regionSec := m.Preset.CyclesToSeconds(wres.TotalCycles)

	// Part 2: KVAS on Skylake (scan window scaled).
	m2 := machine.New(uarch.Skylake6600U(), sc.Seed)
	wk2, err := winkernel.Boot(m2, winkernel.Config{Seed: sc.Seed + 13, KVAS: true, MaxSlot: sc.KVASMaxSlot - 8})
	if err != nil {
		return Report{ID: "§IV-G", Measured: err.Error()}
	}
	p2, err := core.NewProber(m2, sc.proberOptions())
	if err != nil {
		return Report{ID: "§IV-G", Measured: err.Error()}
	}
	kres, err := core.KVASBreak(p2, sc.KVASMaxSlot)
	kvasOK := err == nil && kres.Base == wk2.Base
	kvasSec := m2.Preset.CyclesToSeconds(kres.TotalCycles)
	kvasScale := float64(winkernel.Slots) / float64(sc.KVASMaxSlot)

	ok := regionOK && kvasOK
	return Report{
		ID:         "§IV-G",
		Title:      "Windows 10: kernel region and KVAS derandomization",
		PaperClaim: "5×2MiB kernel region in ~60 ms (18 bits); KVAS 3×4KiB found, base recovered, ~8 s on i7-6600U",
		Measured: fmt.Sprintf("region %s in %s; KVAS %s in %s over %d slots (×%.0f window extrapolates to ~%s)",
			verdict(regionOK), fmtSec(regionSec), verdict(kvasOK), fmtSec(kvasSec),
			sc.KVASMaxSlot, kvasScale, fmtSec(kvasSec*kvasScale)),
		OK: ok,
	}
}

// Sec4hCloud reproduces §IV-H: KASLR breaks on the three cloud scenarios.
func Sec4hCloud(sc Scale) Report {
	tab := &trace.Table{Header: []string{"provider", "CPU", "base runtime", "modules", "path", "paper"}}
	paper := map[core.CloudProvider]string{
		core.AmazonEC2:      "base 0.03ms, modules 1.14ms (KPTI trampoline +0xe00000)",
		core.GoogleGCE:      "base 0.08ms, modules 2.7ms",
		core.MicrosoftAzure: "18 bits in 2.06s (Windows)",
	}
	ok := true
	var measured []string
	for _, prov := range []core.CloudProvider{core.AmazonEC2, core.GoogleGCE, core.MicrosoftAzure} {
		res, err := core.CloudBreak(prov, sc.Seed+uint64(prov)*31, core.CloudBreakOptions{AzureMaxSlot: sc.AzureMaxSlot})
		if err != nil {
			ok = false
			tab.AddRow(prov.String(), "-", "FAILED: "+err.Error(), "-", "-", paper[prov])
			continue
		}
		scen := core.Scenario(prov)
		path := "page-table scan"
		if res.ViaTrampoline {
			path = "KPTI trampoline"
		}
		baseSec := scen.Preset.CyclesToSeconds(res.BaseCycles)
		modSec := scen.Preset.CyclesToSeconds(res.ModuleCycles)
		modCell := "-"
		if res.ModuleCycles > 0 {
			modCell = fmt.Sprintf("%s (%d regions)", fmtSec(modSec), res.ModulesFound)
		}
		tab.AddRow(prov.String(), scen.Preset.Name, fmtSec(baseSec), modCell, path, paper[prov])
		measured = append(measured, fmt.Sprintf("%s base %s", prov, fmtSec(baseSec)))
	}
	return Report{
		ID:         "§IV-H",
		Title:      "KASLR breaks in cloud computing systems",
		PaperClaim: "kernel base and modules recovered on EC2, GCE and Azure",
		Measured:   strings.Join(measured, "; "),
		OK:         ok,
		Text:       tab.Render(),
	}
}
