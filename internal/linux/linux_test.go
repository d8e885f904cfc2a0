package linux

import (
	"testing"
	"testing/quick"

	"repro/internal/machine"
	"repro/internal/paging"
	"repro/internal/uarch"
)

func boot(t *testing.T, cfg Config) (*machine.Machine, *Kernel) {
	t.Helper()
	m := machine.New(uarch.AlderLake12400F(), cfg.Seed+1000)
	k, err := Boot(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m, k
}

func TestBaseAlignmentAndRange(t *testing.T) {
	for seed := uint64(0); seed < 20; seed++ {
		_, k := boot(t, Config{Seed: seed})
		if uint64(k.Base)%paging.Page2M != 0 {
			t.Fatalf("base %#x not 2MiB aligned", uint64(k.Base))
		}
		if k.Base < TextRegionBase ||
			uint64(k.Base)+uint64(ImageSlots)<<21 > uint64(TextRegionBase)+TextRegionSize {
			t.Fatalf("image out of region: %#x", uint64(k.Base))
		}
	}
}

func TestKASLREntropy(t *testing.T) {
	slots := make(map[int]bool)
	for seed := uint64(0); seed < 64; seed++ {
		_, k := boot(t, Config{Seed: seed})
		slots[k.Slot] = true
	}
	if len(slots) < 32 {
		t.Fatalf("only %d distinct slots over 64 boots — KASLR broken", len(slots))
	}
}

func TestNoKASLR(t *testing.T) {
	_, k := boot(t, Config{Seed: 5, NoKASLR: true})
	if k.Base != NoKASLRBase {
		t.Fatalf("nokaslr base %#x", uint64(k.Base))
	}
}

func TestImageMappedAtExpectedLevels(t *testing.T) {
	m, k := boot(t, Config{Seed: 7})
	// Slot 0 is a 2 MiB text page.
	w := m.KernelAS.Translate(k.Base, nil)
	if !w.Mapped || w.Size != paging.Page2M {
		t.Fatalf("slot 0: %+v", w)
	}
	if w.Flags.Has(paging.User) {
		t.Fatal("kernel text user-accessible")
	}
	// The five 4 KiB pages exist at their constant offsets.
	offs := FourKOffsets()
	if len(offs) != 5 || len(k.FourKPages) != 5 {
		t.Fatalf("want 5 4K pages, got %d/%d", len(offs), len(k.FourKPages))
	}
	for i, off := range offs {
		va := k.Base + paging.VirtAddr(off)
		if k.FourKPages[i] != va {
			t.Fatalf("4K page %d at %#x, want %#x", i, uint64(k.FourKPages[i]), uint64(va))
		}
		w := m.KernelAS.Translate(va, nil)
		if !w.Mapped || w.Size != paging.Page4K {
			t.Fatalf("4K page %d: %+v", i, w)
		}
	}
	// Unmapped slot inside the text region terminates at the PD (the
	// whole 1 GiB region shares one PD — the structure the attacks rely
	// on).
	hole := TextRegionBase
	if hole == k.Base { // kernel at slot 0: probe after image instead
		hole = k.Base + paging.VirtAddr(uint64(ImageSlots+1)<<21)
	}
	w = m.KernelAS.Translate(hole, nil)
	if w.Mapped || w.TermLevel != paging.LevelPD {
		t.Fatalf("hole: %+v", w)
	}
}

func TestModuleDBShape(t *testing.T) {
	db := DefaultModuleDB()
	if len(db) != 125 {
		t.Fatalf("module count %d, want 125 (§IV-C)", len(db))
	}
	bySize := make(map[uint64]int)
	for _, s := range db {
		bySize[s.Size]++
		if s.Size == 0 || s.Size%paging.Page4K != 0 {
			t.Errorf("%s: bad size %#x", s.Name, s.Size)
		}
	}
	unique := 0
	for _, n := range bySize {
		if n == 1 {
			unique++
		}
	}
	if unique != 19 {
		t.Fatalf("unique sizes %d, want 19 (§IV-C)", unique)
	}
	// Figure 5's named modules with the paper's sizes.
	want := map[string]uint64{
		"autofs4": 0xB000, "x_tables": 0xB000, "video": 0xC000,
		"mac_hid": 0x4000, "pinctrl_icelake": 0x6000,
	}
	found := map[string]uint64{}
	names := make(map[string]bool)
	for _, s := range db {
		if names[s.Name] {
			t.Errorf("duplicate module name %q", s.Name)
		}
		names[s.Name] = true
		if _, ok := want[s.Name]; ok {
			found[s.Name] = s.Size
		}
	}
	for n, sz := range want {
		if found[n] != sz {
			t.Errorf("%s size %#x, want %#x", n, found[n], sz)
		}
	}
	if bySize[0xB000] < 2 {
		t.Error("autofs4/x_tables collision size not shared")
	}
}

func TestModulesPlacement(t *testing.T) {
	m, k := boot(t, Config{Seed: 9})
	if len(k.Modules) != 125 {
		t.Fatalf("loaded %d modules", len(k.Modules))
	}
	for i, lm := range k.Modules {
		if uint64(lm.Base)%paging.Page4K != 0 {
			t.Fatalf("%s base unaligned", lm.Name)
		}
		if lm.Base < ModuleRegionBase || uint64(lm.End()) > uint64(ModuleRegionBase)+ModuleRegionSize {
			t.Fatalf("%s outside module region", lm.Name)
		}
		// Every page of the module is mapped 4K.
		for off := uint64(0); off < lm.Size; off += paging.Page4K {
			w := m.KernelAS.Translate(lm.Base+paging.VirtAddr(off), nil)
			if !w.Mapped || w.Size != paging.Page4K {
				t.Fatalf("%s page %#x: %+v", lm.Name, off, w)
			}
		}
		// Modules are separated by at least one unmapped guard page.
		if i > 0 {
			prev := k.Modules[i-1]
			if lm.Base < prev.End()+paging.Page4K {
				t.Fatalf("%s not separated from %s", lm.Name, prev.Name)
			}
			w := m.KernelAS.Translate(prev.End(), nil)
			if w.Mapped {
				t.Fatalf("guard page after %s is mapped", prev.Name)
			}
		}
	}
}

func TestModuleLookupAndProcModules(t *testing.T) {
	_, k := boot(t, Config{Seed: 11})
	lm, ok := k.Module("video")
	if !ok || lm.Size != 0xC000 {
		t.Fatalf("video: %+v %v", lm, ok)
	}
	if _, ok := k.Module("not_a_module"); ok {
		t.Fatal("bogus module found")
	}
	specs := k.ProcModules()
	if len(specs) != 125 {
		t.Fatalf("/proc/modules lines: %d", len(specs))
	}
}

func TestKPTITrampoline(t *testing.T) {
	m, k := boot(t, Config{Seed: 13, KPTI: true})
	if m.KernelAS == m.UserAS {
		t.Fatal("KPTI not enabled")
	}
	if k.TrampolineVA != k.Base+paging.VirtAddr(DefaultTrampolineOffset) {
		t.Fatalf("trampoline at %#x", uint64(k.TrampolineVA))
	}
	// The trampoline is mapped in the user view; the kernel text is not.
	w := m.UserAS.Translate(k.TrampolineVA, nil)
	if !w.Mapped {
		t.Fatal("trampoline not in user view")
	}
	if w.Flags.Has(paging.User) {
		t.Fatal("trampoline user-accessible")
	}
	if w := m.UserAS.Translate(k.Base, nil); w.Mapped {
		t.Fatal("kernel text visible in user view under KPTI")
	}
	// Custom trampoline offset (the EC2 kernel).
	m2 := machine.New(uarch.XeonE5_2676(), 99)
	k2, err := Boot(m2, Config{Seed: 13, KPTI: true, TrampolineOffset: 0xe00000})
	if err != nil {
		t.Fatal(err)
	}
	if k2.TrampolineVA != k2.Base+0xe00000 {
		t.Fatalf("EC2 trampoline at %#x", uint64(k2.TrampolineVA))
	}
}

func TestFLARECoversEverything(t *testing.T) {
	m, k := boot(t, Config{Seed: 15, FLARE: true})
	for slot := 0; slot < TextSlots; slot++ {
		va := TextRegionBase + paging.VirtAddr(uint64(slot)<<21)
		if w := m.KernelAS.Translate(va, nil); !w.Mapped {
			t.Fatalf("FLARE left slot %d unmapped", slot)
		}
	}
	for off := uint64(0); off < ModuleRegionSize; off += 997 * paging.Page4K {
		va := ModuleRegionBase + paging.VirtAddr(off&^0xfff)
		if w := m.KernelAS.Translate(va, nil); !w.Mapped {
			t.Fatalf("FLARE left module page %#x unmapped", uint64(va))
		}
	}
	_ = k
}

func TestFGKASLRShufflesFunctions(t *testing.T) {
	_, k1 := boot(t, Config{Seed: 17})
	_, k2 := boot(t, Config{Seed: 18})
	// Without FGKASLR, function offsets from base are boot-invariant.
	for _, fn := range []string{"tcp_sendmsg", "schedule", "vfs_read"} {
		o1 := uint64(k1.Kallsyms[fn]) - uint64(k1.Base)
		o2 := uint64(k2.Kallsyms[fn]) - uint64(k2.Base)
		if o1 != o2 {
			t.Fatalf("%s offset moved without FGKASLR: %#x vs %#x", fn, o1, o2)
		}
	}
	// With FGKASLR, at least some functions move between boots.
	_, f1 := boot(t, Config{Seed: 19, FGKASLR: true})
	_, f2 := boot(t, Config{Seed: 20, FGKASLR: true})
	moved := 0
	for fn := range f1.Kallsyms {
		if fn == "_text" {
			continue
		}
		if uint64(f1.Kallsyms[fn])-uint64(f1.Base) != uint64(f2.Kallsyms[fn])-uint64(f2.Base) {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("FGKASLR did not move any function")
	}
}

func TestCallFunctionAndTouchModule(t *testing.T) {
	m, k := boot(t, Config{Seed: 21})
	if err := k.CallFunction("no_such_fn"); err == nil {
		t.Fatal("unknown function accepted")
	}
	if err := k.CallFunction("vfs_read"); err != nil {
		t.Fatal(err)
	}
	if err := k.TouchModule("bluetooth", 4); err != nil {
		t.Fatal(err)
	}
	if err := k.TouchModule("nope", 4); err == nil {
		t.Fatal("unknown module accepted")
	}
	_ = m
}

// Property: any two boots with different seeds keep all five 4K pages at
// the same offsets from base (they are build constants, not randomized).
func TestFourKOffsetsBootInvariant(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		m := machine.New(uarch.AlderLake12400F(), seed)
		k, err := Boot(m, Config{Seed: seed})
		if err != nil {
			return false
		}
		for i, off := range FourKOffsets() {
			if k.FourKPages[i] != k.Base+paging.VirtAddr(off) {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 25})
	if err != nil {
		t.Fatal(err)
	}
}
