// Package linux builds the Linux x86-64 virtual-memory layouts the paper
// attacks: the KASLR-randomized kernel image, the kernel-module area, the
// KPTI shadow page table with its trampoline, and the defense variants
// (FLARE dummy mappings, FGKASLR function shuffling).
//
// Address-space constants follow §II-B and §IV of the paper:
//
//   - kernel text: 0xffffffff80000000 .. 0xffffffffc0000000, 2 MiB aligned,
//     512 possible slots (9 bits of entropy);
//   - modules:     0xffffffffc0000000 .. 0xffffffffc4000000, 4 KiB aligned;
//   - KPTI trampoline at kernel base + 0xc00000 (Ubuntu 20.04 kernels;
//     +0xe00000 on the EC2 AWS kernel).
package linux

import (
	"fmt"
	"sort"

	"repro/internal/machine"
	"repro/internal/paging"
	"repro/internal/rng"
)

// Address-space constants (x86-64 Linux).
const (
	// TextRegionBase is the start of the KASLR region for the kernel image.
	TextRegionBase paging.VirtAddr = 0xffffffff80000000
	// TextRegionSize is the 1 GiB KASLR range (512 × 2 MiB slots).
	TextRegionSize uint64 = 1 << 30
	// TextSlots is the number of possible kernel base slots (9-bit entropy).
	TextSlots = 512
	// ModuleRegionBase is the start of the module/driver area.
	ModuleRegionBase paging.VirtAddr = 0xffffffffc0000000
	// ModuleRegionSize is the 64 MiB module range probed at 4 KiB steps
	// (16384 possible addresses, §IV-C).
	ModuleRegionSize uint64 = 64 << 20
	// DefaultTrampolineOffset is the KPTI trampoline's constant offset from
	// the kernel base on the Ubuntu kernels the paper measures (§IV-D).
	DefaultTrampolineOffset uint64 = 0xc00000
	// TrampolinePages is how many 4 KiB pages the KPTI trampoline maps
	// into the user page table, starting at the trampoline offset.
	TrampolinePages = 3
	// NoKASLRBase is where the kernel lands with the nokaslr boot flag.
	NoKASLRBase paging.VirtAddr = 0xffffffff81000000
)

// ImageSlots is the number of 2 MiB slots the simulated kernel image spans.
// Layout within the image (constant offsets, as on a real build):
// slots 0..11 are 2 MiB text/rodata pages, slots 12..16 are sparse slots
// each containing exactly one 4 KiB mapping (the cpu-entry-area-like pages
// the AMD attack keys on — "five 4-KiB pages", §IV-B), slots 17..19 are
// 2 MiB data pages.
const ImageSlots = 20

// fourKSlot lists (slot, in-slot offset) of the five 4 KiB pages.
var fourKSlots = [5]struct {
	Slot   int
	Offset uint64
}{
	{12, 0x0000},
	{13, 0x1000},
	{14, 0x3000},
	{15, 0x7000},
	{16, 0xF000},
}

// twoMSlots returns whether an image slot is a 2 MiB mapping.
func twoMSlot(slot int) bool { return slot < 12 || slot > 16 }

// Config selects the kernel build/boot options of the victim.
type Config struct {
	// Seed drives boot-time randomization (KASLR slot, module placement).
	Seed uint64
	// NoKASLR pins the base to NoKASLRBase (the nokaslr boot parameter,
	// used in §IV-D to confirm the trampoline offset).
	NoKASLR bool
	// KPTI enables kernel page-table isolation: a user shadow table
	// containing only the trampoline.
	KPTI bool
	// TrampolineOffset overrides DefaultTrampolineOffset (the EC2 kernel
	// uses 0xe00000).
	TrampolineOffset uint64
	// FLARE maps dummy pages over the unmapped kernel ranges (§V-A).
	FLARE bool
	// FGKASLR shuffles function→page assignment inside the text (§V-A).
	FGKASLR bool
	// Modules overrides the default 125-module database.
	Modules []ModuleSpec
}

// ModuleSpec is one loadable module: a name and its mapped size in bytes
// (4 KiB multiple), as /proc/modules reports.
type ModuleSpec struct {
	Name string
	Size uint64
}

// LoadedModule is a module placed in the module region.
type LoadedModule struct {
	ModuleSpec
	Base paging.VirtAddr
}

// End returns one past the module's last mapped byte.
func (lm LoadedModule) End() paging.VirtAddr { return lm.Base + paging.VirtAddr(lm.Size) }

// Kernel is a booted Linux image on a machine.
type Kernel struct {
	Cfg  Config
	Base paging.VirtAddr // randomized kernel text base
	Slot int             // Base's slot index in the text region

	// FourKPages are the five 4 KiB-mapped kernel pages, in ascending
	// address order. Their offsets from Base are build constants.
	FourKPages []paging.VirtAddr

	// Modules lists the loaded modules in ascending address order.
	Modules []LoadedModule

	// TrampolineVA is the KPTI trampoline's address (0 when KPTI is off).
	TrampolineVA paging.VirtAddr

	// Kallsyms maps function names to addresses (the /proc/kallsyms ground
	// truth the paper verifies against).
	Kallsyms map[string]paging.VirtAddr

	// funcPages maps function names to their text page (FGKASLR target).
	funcPages map[string]paging.VirtAddr

	m          *machine.Machine
	kernelAS   *paging.AddressSpace
	userAS     *paging.AddressSpace
	syscallSet []paging.VirtAddr
	moduleByNm map[string]*LoadedModule
}

// FourKOffsets returns the build-constant offsets of the five 4 KiB pages
// from the kernel base (attacker knowledge, like any kernel-build layout).
func FourKOffsets() []uint64 {
	offs := make([]uint64, len(fourKSlots))
	for i, s := range fourKSlots {
		offs[i] = uint64(s.Slot)<<21 + s.Offset
	}
	return offs
}

// Boot constructs the kernel layout on m and installs its address spaces.
func Boot(m *machine.Machine, cfg Config) (*Kernel, error) {
	if cfg.TrampolineOffset == 0 {
		cfg.TrampolineOffset = DefaultTrampolineOffset
	}
	r := rng.New(cfg.Seed ^ 0xb007b007b007b007)

	k := &Kernel{
		Cfg:        cfg,
		Kallsyms:   make(map[string]paging.VirtAddr),
		funcPages:  make(map[string]paging.VirtAddr),
		m:          m,
		moduleByNm: make(map[string]*LoadedModule),
	}

	// Pick the KASLR slot.
	if cfg.NoKASLR {
		k.Slot = int((uint64(NoKASLRBase) - uint64(TextRegionBase)) >> 21)
	} else {
		k.Slot = r.Intn(TextSlots - ImageSlots)
	}
	k.Base = TextRegionBase + paging.VirtAddr(uint64(k.Slot)<<21)

	k.kernelAS = paging.NewAddressSpace(m.Alloc)

	if err := k.mapImage(); err != nil {
		return nil, err
	}
	if err := k.loadModules(r); err != nil {
		return nil, err
	}
	if cfg.FLARE {
		if err := k.mapFlareDummies(); err != nil {
			return nil, err
		}
	}
	k.buildSymbols(r)

	if cfg.KPTI {
		k.userAS = paging.NewAddressSpace(m.Alloc)
		k.TrampolineVA = k.Base + paging.VirtAddr(cfg.TrampolineOffset)
		// The trampoline is a handful of 4 KiB supervisor pages present in
		// the user table (entry_SYSCALL_64 and friends).
		for i := 0; i < TrampolinePages; i++ {
			va := k.TrampolineVA + paging.VirtAddr(i*paging.Page4K)
			frame := m.Alloc.Alloc()
			if err := k.userAS.Map(va, paging.Page4K, frame, paging.Writable); err != nil {
				return nil, err
			}
			// Keep the kernel view coherent: the trampoline pages belong
			// to the image region, already mapped there via 2 MiB pages.
		}
		m.InstallAddressSpaces(k.kernelAS, k.userAS)
	} else {
		k.userAS = k.kernelAS
		m.InstallAddressSpaces(k.kernelAS, k.kernelAS)
	}

	// The syscall handler's hot text: entry page plus two hot pages.
	k.syscallSet = []paging.VirtAddr{
		k.Base, k.Base + 0x1000, k.Base + 0x200000,
	}
	return k, nil
}

// mapImage maps the kernel image: 2 MiB leaves for regular slots, single
// 4 KiB leaves inside the sparse slots.
func (k *Kernel) mapImage() error {
	for s := 0; s < ImageSlots; s++ {
		slotVA := k.Base + paging.VirtAddr(uint64(s)<<21)
		if twoMSlot(s) {
			frame := k.m.Alloc.AllocContig(paging.Page2M / 4096)
			flags := paging.Flags(paging.Global)
			if s >= 17 { // data slots are writable
				flags |= paging.Writable
			}
			if err := k.kernelAS.Map(slotVA, paging.Page2M, frame, flags); err != nil {
				return err
			}
		}
	}
	for _, fs := range fourKSlots {
		va := k.Base + paging.VirtAddr(uint64(fs.Slot)<<21+fs.Offset)
		frame := k.m.Alloc.Alloc()
		if err := k.kernelAS.Map(va, paging.Page4K, frame, paging.Global|paging.Writable); err != nil {
			return err
		}
		k.FourKPages = append(k.FourKPages, va)
	}
	return nil
}

// loadModules places the module database into the module region:
// load order shuffled, consecutive placement with 1–3 unmapped guard pages
// between modules (the separation the paper's size detection relies on).
func (k *Kernel) loadModules(r *rng.Source) error {
	specs := k.Cfg.Modules
	if specs == nil {
		specs = DefaultModuleDB()
	}
	order := r.Perm(len(specs))
	cur := ModuleRegionBase + paging.VirtAddr(uint64(1+r.Intn(64))<<12)
	for _, idx := range order {
		spec := specs[idx]
		if spec.Size == 0 || spec.Size%paging.Page4K != 0 {
			return fmt.Errorf("linux: module %s size %#x not page-aligned", spec.Name, spec.Size)
		}
		lm := LoadedModule{ModuleSpec: spec, Base: cur}
		if uint64(lm.End()) > uint64(ModuleRegionBase)+ModuleRegionSize {
			return fmt.Errorf("linux: module region overflow at %s", spec.Name)
		}
		for off := uint64(0); off < spec.Size; off += paging.Page4K {
			frame := k.m.Alloc.Alloc()
			if err := k.kernelAS.Map(cur+paging.VirtAddr(off), paging.Page4K, frame,
				paging.Global|paging.Writable); err != nil {
				return err
			}
		}
		k.Modules = append(k.Modules, lm)
		gap := uint64(1+r.Intn(3)) << 12
		cur = lm.End() + paging.VirtAddr(gap)
	}
	sort.Slice(k.Modules, func(i, j int) bool { return k.Modules[i].Base < k.Modules[j].Base })
	for i := range k.Modules {
		k.moduleByNm[k.Modules[i].Name] = &k.Modules[i]
	}
	return nil
}

// mapFlareDummies implements the FLARE defense (§V-A): every unmapped
// 2 MiB slot of the text region and every unmapped 4 KiB page of the module
// region gets a dummy physical mapping, so page-mapping attacks see a
// uniformly mapped address space. Dummy pages are never executed, so they
// never appear in the TLB — the residual signal the paper exploits.
func (k *Kernel) mapFlareDummies() error {
	for s := 0; s < TextSlots; s++ {
		va := TextRegionBase + paging.VirtAddr(uint64(s)<<21)
		if w := k.kernelAS.Translate(va, nil); w.Mapped {
			continue
		}
		// Skip slots that contain any 4 KiB mappings (sparse image slots).
		if s >= k.Slot && s < k.Slot+ImageSlots {
			if !twoMSlot(s - k.Slot) {
				// Fill the sparse slot's holes with 4 KiB dummies.
				for off := uint64(0); off < paging.Page2M; off += paging.Page4K {
					pva := va + paging.VirtAddr(off)
					if w := k.kernelAS.Translate(pva, nil); w.Mapped {
						continue
					}
					if err := k.kernelAS.Map(pva, paging.Page4K, k.m.Alloc.Alloc(), paging.Global); err != nil {
						return err
					}
				}
				continue
			}
		}
		frame := k.m.Alloc.AllocContig(paging.Page2M / 4096)
		if err := k.kernelAS.Map(va, paging.Page2M, frame, paging.Global); err != nil {
			return err
		}
	}
	for off := uint64(0); off < ModuleRegionSize; off += paging.Page4K {
		va := ModuleRegionBase + paging.VirtAddr(off)
		if w := k.kernelAS.Translate(va, nil); w.Mapped {
			continue
		}
		if err := k.kernelAS.Map(va, paging.Page4K, k.m.Alloc.Alloc(), paging.Global); err != nil {
			return err
		}
	}
	return nil
}

// kernelFunctions is the synthetic symbol set used for the FGKASLR
// experiments: enough functions to populate the text pages.
var kernelFunctions = []string{
	"entry_SYSCALL_64", "do_syscall_64", "sys_read", "sys_write", "sys_openat",
	"sys_mmap", "sys_munmap", "sys_ioctl", "sys_futex", "sys_clone",
	"schedule", "pick_next_task_fair", "try_to_wake_up", "finish_task_switch",
	"vfs_read", "vfs_write", "do_filp_open", "path_lookupat", "dput",
	"kmalloc", "kfree", "kmem_cache_alloc", "__alloc_pages", "free_pages",
	"copy_user_generic", "strncpy_from_user", "do_page_fault", "handle_mm_fault",
	"tcp_sendmsg", "tcp_recvmsg", "udp_sendmsg", "ip_output", "dev_queue_xmit",
	"sock_sendmsg", "sock_recvmsg", "unix_stream_sendmsg", "skb_copy_datagram_iter",
	"ext4_file_read_iter", "ext4_file_write_iter", "generic_file_read_iter",
	"blk_mq_submit_bio", "submit_bio", "bio_endio", "scsi_queue_rq",
	"hrtimer_interrupt", "update_process_times", "scheduler_tick", "ktime_get",
	"do_signal", "get_signal", "signal_wake_up", "send_signal",
	"security_file_permission", "selinux_file_permission", "avc_has_perm",
	"audit_syscall_entry", "audit_syscall_exit", "seccomp_run_filters",
	"mutex_lock", "mutex_unlock", "down_read", "up_read", "rcu_read_unlock_special",
}

// KnownKernelFunction reports whether name is in the synthetic symbol set
// (so callers can validate a target function before booting anything).
func KnownKernelFunction(name string) bool {
	for _, fn := range kernelFunctions {
		if fn == name {
			return true
		}
	}
	return false
}

// buildSymbols assigns functions to text pages. Without FGKASLR the
// assignment is the deterministic build order (so offsets from base are
// constants); with FGKASLR it is shuffled per boot (§V-A).
func (k *Kernel) buildSymbols(r *rng.Source) {
	// Text pages: the 4 KiB pages of the first text slot (a 2 MiB page
	// contains 512 function-granules; we track at 4 KiB virtual granularity
	// since the TLB caches the whole 2 MiB page — FGKASLR template attacks
	// therefore target *module* text or rely on per-slot residency; we
	// spread functions across the first 8 slots for slot-granular templates).
	perm := make([]int, len(kernelFunctions))
	for i := range perm {
		perm[i] = i
	}
	if k.Cfg.FGKASLR {
		r.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	}
	for pos, fi := range perm {
		name := kernelFunctions[fi]
		slot := pos % 8
		off := uint64(slot)<<21 + uint64(pos/8)<<12
		va := k.Base + paging.VirtAddr(off)
		k.Kallsyms[name] = va
		k.funcPages[name] = paging.PageBase(va, paging.Page2M)
	}
	k.Kallsyms["_text"] = k.Base
}

// Machine returns the machine the kernel is booted on.
func (k *Kernel) Machine() *machine.Machine { return k.m }

// SyscallTouchSet returns the kernel text the syscall path runs through.
func (k *Kernel) SyscallTouchSet() []paging.VirtAddr { return k.syscallSet }

// Syscall performs one victim syscall on the machine: kernel entry plus
// TLB residency for the handler's text (used by the FLARE bypass and the
// FGKASLR template attack).
func (k *Kernel) Syscall() { k.m.Syscall(k.syscallSet...) }

// CallFunction simulates kernel execution of the named function (e.g. a
// syscall triggering it), making its text page TLB-resident.
func (k *Kernel) CallFunction(name string) error {
	va, ok := k.Kallsyms[name]
	if !ok {
		return fmt.Errorf("linux: unknown kernel function %q", name)
	}
	k.m.Syscall(va)
	return nil
}

// FunctionPage returns the 2 MiB-page base holding the named function.
func (k *Kernel) FunctionPage(name string) (paging.VirtAddr, bool) {
	va, ok := k.funcPages[name]
	return va, ok
}

// TouchModule simulates the kernel executing a module's code (an event the
// module handles): the first n pages become TLB-resident (§IV-E).
func (k *Kernel) TouchModule(name string, n int) error {
	lm, ok := k.moduleByNm[name]
	if !ok {
		return fmt.Errorf("linux: module %q not loaded", name)
	}
	var vas []paging.VirtAddr
	for i := 0; i < n && uint64(i)<<12 < lm.Size; i++ {
		vas = append(vas, lm.Base+paging.VirtAddr(uint64(i)<<12))
	}
	k.m.KernelTouch(vas...)
	return nil
}

// Module returns the loaded module with the given name.
func (k *Kernel) Module(name string) (LoadedModule, bool) {
	lm, ok := k.moduleByNm[name]
	if !ok {
		return LoadedModule{}, false
	}
	return *lm, true
}

// ProcModules renders the /proc/modules view (name and size per line),
// which gives the attacker the size→name table for classification (§IV-C).
func (k *Kernel) ProcModules() []ModuleSpec {
	specs := make([]ModuleSpec, len(k.Modules))
	for i, lm := range k.Modules {
		specs[i] = lm.ModuleSpec
	}
	return specs
}
