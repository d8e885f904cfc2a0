package core

import (
	"testing"

	"repro/internal/behavior"
	"repro/internal/linux"
	"repro/internal/machine"
	"repro/internal/paging"
	"repro/internal/rng"
	"repro/internal/uarch"
	"repro/internal/userspace"
	"repro/internal/winkernel"
)

func TestKernelBaseIntelAcrossBoots(t *testing.T) {
	for seed := uint64(0); seed < 12; seed++ {
		p, k := bootedProber(t, uarch.AlderLake12400F(), 100+seed, linux.Config{})
		res, err := KernelBase(p)
		if err != nil {
			t.Fatal(err)
		}
		if res.Base != k.Base {
			t.Fatalf("seed %d: found %#x, want %#x", seed, uint64(res.Base), uint64(k.Base))
		}
		if res.Slide != uint64(k.Base)-uint64(linux.TextRegionBase) {
			t.Fatalf("slide %#x", res.Slide)
		}
		if len(res.Samples) != linux.TextSlots {
			t.Fatalf("samples %d", len(res.Samples))
		}
		if res.ProbeCycles == 0 || res.TotalCycles <= res.ProbeCycles {
			t.Fatalf("runtime accounting broken: probe %d total %d", res.ProbeCycles, res.TotalCycles)
		}
	}
}

func TestKernelBaseAMDAcrossBoots(t *testing.T) {
	for seed := uint64(0); seed < 8; seed++ {
		p, k := bootedProber(t, uarch.Zen3_5600X(), 200+seed, linux.Config{})
		res, err := KernelBase(p)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Base != k.Base {
			t.Fatalf("seed %d: found %#x, want %#x", seed, uint64(res.Base), uint64(k.Base))
		}
		if p.Faults() != 0 {
			t.Fatal("AMD attack faulted")
		}
	}
}

func TestKernelBaseAMDUsesLevelAttack(t *testing.T) {
	// On AMD the P2 (mapped/unmapped) signal must be absent: the naive
	// Intel scan cannot find the base. This is the structural reason the
	// AMD path exists.
	p, k := bootedProber(t, uarch.Zen3_5600X(), 300, linux.Config{})
	intelRes := kernelBaseIntel(p)
	if intelRes.Base == k.Base {
		t.Skip("Intel-style scan accidentally matched — very unlikely; check KernelTLBFill")
	}
}

func TestModulesDetection(t *testing.T) {
	p, k := bootedProber(t, uarch.IceLake1065G7(), 400, linux.Config{})
	table := SizeTable(k.ProcModules())
	res := Modules(p, table)
	score := ScoreModules(res, k.Modules, table)
	if score.Total != 125 || score.UniqueSize != 19 {
		t.Fatalf("score %+v", score)
	}
	if score.DetectionAccuracy() < 0.99 {
		t.Fatalf("detection accuracy %.3f", score.DetectionAccuracy())
	}
	if score.Identified < score.UniqueSize-1 {
		t.Fatalf("identified %d of %d unique", score.Identified, score.UniqueSize)
	}
	// The size-collision pair must classify ambiguously.
	for _, name := range []string{"autofs4", "x_tables"} {
		lm, _ := k.Module(name)
		for _, r := range res.Regions {
			if r.Base == lm.Base {
				if r.Unique() {
					t.Fatalf("%s classified uniquely despite the size collision", name)
				}
				if len(r.Names) < 2 {
					t.Fatalf("%s candidates %v", name, r.Names)
				}
			}
		}
	}
}

func TestModulesRegionsSorted(t *testing.T) {
	p, k := bootedProber(t, uarch.AlderLake12400F(), 402, linux.Config{})
	res := Modules(p, SizeTable(k.ProcModules()))
	for i := 1; i < len(res.Regions); i++ {
		if res.Regions[i].Base <= res.Regions[i-1].Base {
			t.Fatal("regions not in address order")
		}
	}
}

func TestSizeTable(t *testing.T) {
	table := SizeTable([]linux.ModuleSpec{
		{Name: "a", Size: 0x1000}, {Name: "b", Size: 0x1000}, {Name: "c", Size: 0x2000},
	})
	if len(table[0x1000]) != 2 || len(table[0x2000]) != 1 {
		t.Fatalf("table %v", table)
	}
}

func TestKPTIBreakFindsTrampoline(t *testing.T) {
	for seed := uint64(0); seed < 6; seed++ {
		p, k := bootedProber(t, uarch.AlderLake12400F(), 500+seed, linux.Config{KPTI: true})
		res, err := KPTIBreak(p, linux.DefaultTrampolineOffset)
		if err != nil {
			t.Fatal(err)
		}
		if res.TrampolineVA != k.TrampolineVA {
			t.Fatalf("trampoline %#x, want %#x", uint64(res.TrampolineVA), uint64(k.TrampolineVA))
		}
		if res.Base != k.Base {
			t.Fatalf("base %#x, want %#x", uint64(res.Base), uint64(k.Base))
		}
	}
}

func TestKPTIHidesDirectScan(t *testing.T) {
	// Under KPTI the plain scan must NOT find the true base — only the
	// trampoline slot is visible. This is the defense working as designed.
	p, k := bootedProber(t, uarch.AlderLake12400F(), 510, linux.Config{KPTI: true})
	res := kernelBaseIntel(p)
	if res.Base == k.Base && k.TrampolineVA != k.Base {
		t.Fatal("direct scan found the KPTI-hidden base")
	}
	if res.Base != k.TrampolineVA {
		t.Fatalf("direct scan found %#x, expected only the trampoline %#x",
			uint64(res.Base), uint64(k.TrampolineVA))
	}
}

func TestWindowsKernelScan(t *testing.T) {
	for seed := uint64(0); seed < 4; seed++ {
		m := machine.New(uarch.AlderLake12400F(), 600+seed)
		wk, err := winkernel.Boot(m, winkernel.Config{Seed: 600 + seed, Drivers: 24})
		if err != nil {
			t.Fatal(err)
		}
		p, err := NewProber(m, Options{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := WindowsKernel(p, winkernel.ImageSlots)
		if err != nil {
			t.Fatal(err)
		}
		if res.RegionBase != wk.Base {
			t.Fatalf("seed %d: region %#x, want %#x", seed, uint64(res.RegionBase), uint64(wk.Base))
		}
		if res.RunSlots != winkernel.ImageSlots {
			t.Fatalf("run %d slots", res.RunSlots)
		}
	}
}

func TestKVASBreak(t *testing.T) {
	m := machine.New(uarch.Skylake6600U(), 700)
	wk, err := winkernel.Boot(m, winkernel.Config{Seed: 700, KVAS: true, MaxSlot: 500})
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProber(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := KVASBreak(p, 512)
	if err != nil {
		t.Fatal(err)
	}
	if res.KVASVA != wk.KVASVA {
		t.Fatalf("KVAS %#x, want %#x", uint64(res.KVASVA), uint64(wk.KVASVA))
	}
	if res.Base != wk.Base {
		t.Fatalf("base %#x, want %#x", uint64(res.Base), uint64(wk.Base))
	}
}

func TestBehaviorSpyTracksActivity(t *testing.T) {
	p, k := bootedProber(t, uarch.IceLake1065G7(), 800, linux.Config{})
	targets, err := LocateTargets(Modules(p, SizeTable(k.ProcModules())), "bluetooth", "psmouse")
	if err != nil {
		t.Fatal(err)
	}
	bt := behavior.FixedTimeline(behavior.BluetoothAudio(), behavior.Interval{Start: 10, End: 40})
	ms := behavior.FixedTimeline(behavior.MouseMovement(), behavior.Interval{Start: 50, End: 70})
	drv, err := behavior.NewDriver(k, bt, ms)
	if err != nil {
		t.Fatal(err)
	}
	spy := &BehaviorSpy{P: p, Targets: targets}
	traces, err := spy.RunWindow(drv, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) != 2 || len(traces[0].Samples) != 100 {
		t.Fatalf("traces %d / %d samples", len(traces), len(traces[0].Samples))
	}
	if acc := traces[0].Accuracy(bt); acc < 0.95 {
		t.Fatalf("bluetooth accuracy %.2f", acc)
	}
	if acc := traces[1].Accuracy(ms); acc < 0.95 {
		t.Fatalf("psmouse accuracy %.2f", acc)
	}
	// Cross-talk check: the bluetooth trace must not read active during
	// the mouse-only window.
	for _, s := range traces[0].Samples {
		if s.TimeSec > 52 && s.TimeSec < 68 && s.Active {
			t.Fatalf("bluetooth trace active at %.0fs (mouse window)", s.TimeSec)
		}
	}
}

func TestLocateTargetsRejectsAmbiguous(t *testing.T) {
	p, k := bootedProber(t, uarch.IceLake1065G7(), 810, linux.Config{})
	res := Modules(p, SizeTable(k.ProcModules()))
	if _, err := LocateTargets(res, "autofs4"); err == nil {
		t.Fatal("ambiguous module located")
	}
}

func TestUserScanRecoversLayout(t *testing.T) {
	m := machine.New(uarch.IceLake1065G7(), 900)
	if _, err := linux.Boot(m, linux.Config{Seed: 900}); err != nil {
		t.Fatal(err)
	}
	proc, err := userspace.Build(m, userspace.Config{Seed: 900, EntropyBits: 10, HideLastRWPage: true})
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProber(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	libc := proc.Libs[0]
	scan := UserScan(p, libc.Base-4*paging.Page4K, libc.End()+8*paging.Page4K)
	found := FingerprintLibraries(scan.Regions, []userspace.Image{userspace.Libc()})
	if found["libc.so"] != libc.Base {
		t.Fatalf("libc at %#x, want %#x", uint64(found["libc.so"]), uint64(libc.Base))
	}
	if p.Faults() != 0 {
		t.Fatal("user scan faulted")
	}
}

func TestScanUntilMapped(t *testing.T) {
	m := machine.New(uarch.IceLake1065G7(), 910)
	if _, err := linux.Boot(m, linux.Config{Seed: 910}); err != nil {
		t.Fatal(err)
	}
	proc, err := userspace.Build(m, userspace.Config{Seed: 910, EntropyBits: 10})
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProber(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	va, probes, ok := ScanUntilMapped(p, userspace.ExeRegionBase, 1<<11)
	if !ok || va != proc.Exe.Base {
		t.Fatalf("found %#x after %d probes, want %#x", uint64(va), probes, uint64(proc.Exe.Base))
	}
	// Not found within limit.
	_, _, ok = ScanUntilMapped(p, 0x440000000000, 32)
	if ok {
		t.Fatal("found a mapping in empty space")
	}
}

func TestLibrarySignatureMatching(t *testing.T) {
	libc := userspace.Libc()
	good := []UserRegion{
		{Start: 0x1000, End: 0x1000 + 0x1e7*0x1000, Class: PermReadable},
		{Start: 0x400000, End: 0x404000, Class: PermReadable},
		{Start: 0x404000, End: 0x407000, Class: PermWritable}, // 3 ≥ 2: bss over-allocation
	}
	if !LibrarySignatureMatch(good, libc) {
		t.Fatal("valid signature rejected")
	}
	bad := append([]UserRegion(nil), good...)
	bad[0].End = bad[0].Start + 0x1e6*0x1000 // r-x one page short
	if LibrarySignatureMatch(bad, libc) {
		t.Fatal("wrong r-x size accepted")
	}
	short := append([]UserRegion(nil), good...)
	short[2].End = short[2].Start + 0x1000 // rw- below minimum
	if LibrarySignatureMatch(short, libc) {
		t.Fatal("undersized rw- accepted")
	}
	if LibrarySignatureMatch(good[:2], libc) {
		t.Fatal("truncated region list accepted")
	}
}

func TestCloudBreakAllProviders(t *testing.T) {
	for _, prov := range []CloudProvider{AmazonEC2, GoogleGCE, MicrosoftAzure} {
		res, err := CloudBreak(prov, 42, CloudBreakOptions{AzureMaxSlot: 3000})
		if err != nil {
			t.Fatalf("%v: %v", prov, err)
		}
		if res.KernelBase == 0 {
			t.Fatalf("%v: no base", prov)
		}
		if prov == AmazonEC2 && !res.ViaTrampoline {
			t.Fatal("EC2 must use the KPTI trampoline path")
		}
		if prov != MicrosoftAzure && res.ModulesFound < 100 {
			t.Fatalf("%v: only %d module regions", prov, res.ModulesFound)
		}
	}
}

func TestScenarioMetadata(t *testing.T) {
	if s := Scenario(AmazonEC2); !s.KPTI || s.Trampoline != 0xe00000 {
		t.Fatalf("EC2 scenario %+v", s)
	}
	if s := Scenario(GoogleGCE); s.KPTI || s.Windows {
		t.Fatalf("GCE scenario %+v", s)
	}
	if s := Scenario(MicrosoftAzure); !s.Windows {
		t.Fatalf("Azure scenario %+v", s)
	}
}

func TestEvaluateKernelBaseHarness(t *testing.T) {
	rep, err := EvaluateKernelBase(uarch.AlderLake12400F(), 20, rng.New(1).Uint64(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Trials != 20 || rep.Accuracy() < 0.9 {
		t.Fatalf("report %+v", rep)
	}
	if rep.ProbeSec <= 0 || rep.TotalSec < rep.ProbeSec {
		t.Fatalf("runtimes %v / %v", rep.ProbeSec, rep.TotalSec)
	}
	if rep.String() == "" {
		t.Fatal("empty row")
	}
}

func TestEvaluateModulesHarness(t *testing.T) {
	rep, err := EvaluateModules(uarch.AlderLake12400F(), 3, 7, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Accuracy() < 0.98 {
		t.Fatalf("module accuracy %.3f", rep.Accuracy())
	}
}

func TestPermClassString(t *testing.T) {
	if PermUnmapped.String() != "(---|unmap)" || PermReadable.String() != "(r--|r-x)" ||
		PermWritable.String() != "rw-" {
		t.Fatal("Figure 7 notation wrong")
	}
}

// TestWindowsEntryPoint exercises the §IV-G follow-on the paper proposes:
// after the region scan recovers 18 bits, the TLB attack against the
// 4 KiB-mapped entry slot recovers the remaining 9 bits.
func TestWindowsEntryPoint(t *testing.T) {
	for seed := uint64(0); seed < 4; seed++ {
		m := machine.New(uarch.AlderLake12400F(), 1200+seed)
		wk, err := winkernel.Boot(m, winkernel.Config{Seed: 1200 + seed, Drivers: 12})
		if err != nil {
			t.Fatal(err)
		}
		p, err := NewProber(m, Options{})
		if err != nil {
			t.Fatal(err)
		}
		region, err := WindowsKernel(p, winkernel.ImageSlots)
		if err != nil {
			t.Fatal(err)
		}
		res, err := WindowsEntryPoint(p, region.RegionBase, wk.Syscall)
		if err != nil {
			t.Fatal(err)
		}
		if res.EntryVA != wk.EntryVA {
			t.Fatalf("seed %d: entry %#x, want %#x", seed, uint64(res.EntryVA), uint64(wk.EntryVA))
		}
		// 18 + 9 bits: the full randomization is gone.
		if p.Faults() != 0 {
			t.Fatal("entry-point attack faulted")
		}
	}
}
