package winkernel

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/paging"
	"repro/internal/uarch"
)

func boot(t *testing.T, cfg Config) (*machine.Machine, *Kernel) {
	t.Helper()
	m := machine.New(uarch.AlderLake12400F(), cfg.Seed+2000)
	k, err := Boot(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m, k
}

func TestRegionConstants(t *testing.T) {
	if Slots != 262144 {
		t.Fatalf("slots %d, want 2^18 (§IV-G)", Slots)
	}
	if ImageSlots != 5 {
		t.Fatalf("image slots %d, want 5", ImageSlots)
	}
	if KVASOffset != 0x298000 {
		t.Fatalf("KVAS offset %#x", KVASOffset)
	}
}

func TestImageConsecutive2MPages(t *testing.T) {
	m, k := boot(t, Config{Seed: 1})
	if uint64(k.Base)%paging.Page2M != 0 {
		t.Fatal("base unaligned")
	}
	// Slot 0 holds the entry thunks: fully mapped but with 4 KiB PTEs
	// (what lets the TLB attack resolve the entry page).
	for pg := 0; pg < paging.Page2M/paging.Page4K; pg += 37 {
		w := m.KernelAS.Translate(k.Base+paging.VirtAddr(uint64(pg)<<12), nil)
		if !w.Mapped || w.Size != paging.Page4K {
			t.Fatalf("entry-slot page %d: %+v", pg, w)
		}
	}
	// Slots 1..4 are 2 MiB pages.
	for s := 1; s < ImageSlots; s++ {
		w := m.KernelAS.Translate(k.Base+paging.VirtAddr(uint64(s)<<21), nil)
		if !w.Mapped || w.Size != paging.Page2M {
			t.Fatalf("slot %d: %+v", s, w)
		}
	}
	// The slot after the image is unmapped (the run is exactly 5 long).
	if w := m.KernelAS.Translate(k.ImageEnd(), nil); w.Mapped {
		t.Fatal("image run longer than 5 slots")
	}
}

func TestEntropy(t *testing.T) {
	bases := make(map[paging.VirtAddr]bool)
	for seed := uint64(0); seed < 32; seed++ {
		_, k := boot(t, Config{Seed: seed})
		bases[k.Base] = true
	}
	if len(bases) < 30 {
		t.Fatalf("only %d distinct bases over 32 boots", len(bases))
	}
}

func TestEntryPointInsideImage(t *testing.T) {
	for seed := uint64(0); seed < 10; seed++ {
		_, k := boot(t, Config{Seed: seed})
		if k.EntryVA < k.Base || k.EntryVA >= k.ImageEnd() {
			t.Fatalf("entry %#x outside image", uint64(k.EntryVA))
		}
		if uint64(k.EntryVA)%paging.Page4K != 0 {
			t.Fatal("entry not 4K aligned")
		}
	}
}

func TestDriversNeverSpanFiveSlots(t *testing.T) {
	m, k := boot(t, Config{Seed: 3, Drivers: 40})
	if len(k.DriverBases) == 0 {
		t.Fatal("no drivers loaded")
	}
	for _, base := range k.DriverBases {
		run := 0
		for s := 0; ; s++ {
			w := m.KernelAS.Translate(base+paging.VirtAddr(uint64(s)<<21), nil)
			if !w.Mapped {
				break
			}
			run++
		}
		if run >= ImageSlots {
			t.Fatalf("driver at %#x spans %d slots (collides with the kernel signature)", uint64(base), run)
		}
	}
}

func TestKVASLayout(t *testing.T) {
	m, k := boot(t, Config{Seed: 5, KVAS: true})
	if m.KernelAS == m.UserAS {
		t.Fatal("KVAS must isolate the user view")
	}
	if k.KVASVA != k.Base+paging.VirtAddr(KVASOffset) {
		t.Fatalf("KVAS at %#x", uint64(k.KVASVA))
	}
	// Exactly the three shadow pages are user-visible.
	for i := 0; i < KVASPages; i++ {
		w := m.UserAS.Translate(k.KVASVA+paging.VirtAddr(uint64(i)<<12), nil)
		if !w.Mapped {
			t.Fatalf("KVAS page %d missing from user view", i)
		}
	}
	if w := m.UserAS.Translate(k.KVASVA+paging.VirtAddr(uint64(KVASPages)<<12), nil); w.Mapped {
		t.Fatal("KVAS run longer than 3 pages")
	}
	if w := m.UserAS.Translate(k.Base, nil); w.Mapped {
		t.Fatal("kernel image visible in user view under KVAS")
	}
}

func TestMaxSlotRestriction(t *testing.T) {
	for seed := uint64(0); seed < 16; seed++ {
		_, k := boot(t, Config{Seed: seed, MaxSlot: 100})
		if k.Slot >= 100 {
			t.Fatalf("slot %d beyond MaxSlot", k.Slot)
		}
	}
}

// More drivers than physical memory holds is an input error, not a panic:
// Boot reports it, for any driver count past the point memory runs out.
func TestBootTooManyDriversErrors(t *testing.T) {
	for _, drivers := range []int{100000, 2020} {
		m := machine.New(uarch.AlderLake12400F(), 1)
		if _, err := Boot(m, Config{Seed: 1, Drivers: drivers}); err == nil {
			t.Fatalf("Drivers: %d booted, want an out-of-memory error", drivers)
		}
	}
}
