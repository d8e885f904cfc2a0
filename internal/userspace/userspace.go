// Package userspace builds the attacked process's own address space:
// the ASLR-randomized executable image and shared libraries with their
// ELF-style section layouts, plus the /proc/PID/maps rendering the paper
// compares its Figure 7 recovery against.
//
// Layout constants follow §IV-F: 28 bits of mmap entropy, the executable
// at 0x55XXXXXXX000 and libraries at 0x7fXXXXXXX000, each library being a
// run of consecutive sections with permissions in the order r-x, ---, r--,
// rw- whose sizes form a per-library signature.
package userspace

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/machine"
	"repro/internal/paging"
	"repro/internal/phys"
	"repro/internal/rng"
)

// Randomization constants (x86-64 Linux, 28-bit mmap entropy).
const (
	// ExeRegionBase is the base of the PIE executable randomization range.
	ExeRegionBase paging.VirtAddr = 0x550000000000
	// LibRegionBase is the base of the mmap/library randomization range.
	LibRegionBase paging.VirtAddr = 0x7f0000000000
	// EntropyBits is the number of randomized page-granular bits.
	EntropyBits = 28
)

// Perm is a section permission in maps-file notation.
type Perm int

// Section permissions.
const (
	PermNone Perm = iota // --- : reserved, never faultable (no PTEs)
	PermR                // r--
	PermRX               // r-x
	PermRW               // rw-
)

// String renders the maps-file permission column.
func (p Perm) String() string {
	switch p {
	case PermNone:
		return "---"
	case PermR:
		return "r--"
	case PermRX:
		return "r-x"
	case PermRW:
		return "rw-"
	}
	return "???"
}

// flags returns the paging flags for mapped sections. PermNone sections
// return ok=false: Linux PROT_NONE reservations have no present PTEs,
// which is why the attack cannot distinguish them from unmapped holes
// (Figure 7 reports "(---|unmap)").
func (p Perm) flags() (paging.Flags, bool) {
	switch p {
	case PermR, PermRX:
		return paging.User, true
	case PermRW:
		return paging.User | paging.Writable, true
	}
	return 0, false
}

// Section is one contiguous same-permission region of an image.
type Section struct {
	Perm  Perm
	Pages int // size in 4 KiB pages
}

// Image describes an executable or library as its ordered section list.
// The section-size vector is the load signature §IV-F uses to identify
// libraries.
type Image struct {
	Name     string
	Sections []Section
}

// Pages returns the image's total span in pages, including --- gaps.
func (im Image) Pages() int {
	n := 0
	for _, s := range im.Sections {
		n += s.Pages
	}
	return n
}

// Signature returns the section-size vector (pages per section, in order)
// used for library fingerprinting.
func (im Image) Signature() []int {
	sig := make([]int, len(im.Sections))
	for i, s := range im.Sections {
		sig[i] = s.Pages
	}
	return sig
}

// Libc is the libc.so image of Figure 7: r-x 0x1e7 pages, --- 0x200 pages,
// r-- 4 pages, rw- 2 pages (derived from the figure's address ranges),
// plus the 2 extra rw- pages the attack detects beyond the maps file.
func Libc() Image {
	return Image{
		Name: "libc.so",
		Sections: []Section{
			{PermRX, 0x1e7},   // 0x7f..ed4d000-0x7f..ef34000
			{PermNone, 0x200}, // 0x7f..ef34000-0x7f..f134000
			{PermR, 4},        // 0x7f..f134000-0x7f..f138000
			{PermRW, 2},       // 0x7f..f138000-0x7f..f13a000
		},
	}
}

// StandardLibraries returns a plausible loaded-library set with distinct
// signatures: libc plus the usual early-loaded libraries.
func StandardLibraries() []Image {
	return []Image{
		Libc(),
		{Name: "ld-linux-x86-64.so", Sections: []Section{{PermRX, 0x26}, {PermR, 1}, {PermRW, 2}}},
		{Name: "libm.so", Sections: []Section{{PermRX, 0x4d}, {PermNone, 0x40}, {PermR, 1}, {PermRW, 1}}},
		{Name: "libpthread.so", Sections: []Section{{PermRX, 0x11}, {PermNone, 0x20}, {PermR, 1}, {PermRW, 1}}},
		{Name: "libdl.so", Sections: []Section{{PermRX, 0x3}, {PermNone, 0x8}, {PermR, 1}, {PermRW, 1}}},
		{Name: "libstdc++.so", Sections: []Section{{PermRX, 0xc5}, {PermNone, 0x30}, {PermR, 8}, {PermRW, 2}}},
	}
}

// AppImage is the Figure 7 executable: r-x 2 pages, --- 0x1ff pages, r--
// 1 page, rw- 2 pages (0x55892b893000..0x55892ba97000), where the second
// rw- page exists only in the page tables, not in the maps file.
func AppImage() Image {
	return Image{
		Name: "app",
		Sections: []Section{
			{PermRX, 2},
			{PermNone, 0x1ff},
			{PermR, 1},
			{PermRW, 2},
		},
	}
}

// Mapping is one placed image.
type Mapping struct {
	Image Image
	Base  paging.VirtAddr
	// HiddenPages lists pages mapped in the page tables but omitted from
	// the maps file (Fig. 7's extra detected pages).
	HiddenPages []paging.VirtAddr
}

// End returns one past the mapping's last page (including --- spans).
func (mp Mapping) End() paging.VirtAddr {
	return mp.Base + paging.VirtAddr(mp.Image.Pages()*paging.Page4K)
}

// Process is the victim/attacker process address-space layout.
type Process struct {
	Exe  Mapping
	Libs []Mapping

	m  *machine.Machine
	as *paging.AddressSpace
}

// Config controls process construction.
type Config struct {
	Seed uint64
	// Libraries to load; nil loads StandardLibraries.
	Libraries []Image
	// HideLastRWPage omits each image's final rw- page from the maps file
	// while still mapping it (the /proc discrepancy Figure 7 surfaces:
	// pages "never identified with a /proc/PID/maps file").
	HideLastRWPage bool
	// EntropyBits overrides the 28-bit default. Full-entropy scans cost
	// hundreds of millions of probes; scaled experiments reduce the
	// entropy and extrapolate (see experiments.Scale).
	EntropyBits int
}

// Build places the executable and libraries with fresh ASLR and maps their
// faultable sections into the machine's *user* address space. The machine
// must already have its OS installed (the process shares the user root).
func Build(m *machine.Machine, cfg Config) (*Process, error) {
	r := rng.New(cfg.Seed ^ 0xa51aa51aa51aa51a)
	p := &Process{m: m, as: m.UserAS}
	bits := cfg.EntropyBits
	if bits <= 0 || bits > EntropyBits {
		bits = EntropyBits
	}

	exe := AppImage()
	exeBase := ExeRegionBase + paging.VirtAddr(r.Uint64n(1<<bits)<<12)
	mp, err := p.place(exe, exeBase, cfg.HideLastRWPage)
	if err != nil {
		return nil, err
	}
	p.Exe = mp

	libs := cfg.Libraries
	if libs == nil {
		libs = StandardLibraries()
	}
	// Libraries are mmapped consecutively downward from a randomized top,
	// as the Linux mmap allocator does.
	cur := LibRegionBase + paging.VirtAddr(r.Uint64n(1<<bits)<<12)
	for _, lib := range libs {
		mp, err := p.place(lib, cur, cfg.HideLastRWPage)
		if err != nil {
			return nil, err
		}
		p.Libs = append(p.Libs, mp)
		gap := paging.VirtAddr(uint64(1+r.Intn(4)) << 12)
		cur = mp.End() + gap
	}
	return p, nil
}

// place maps one image at base.
func (p *Process) place(im Image, base paging.VirtAddr, hideLastRW bool) (Mapping, error) {
	mp := Mapping{Image: im, Base: base}
	va := base
	for _, sec := range im.Sections {
		flags, mapped := sec.Perm.flags()
		if mapped {
			for pg := 0; pg < sec.Pages; pg++ {
				frame := p.m.Alloc.Alloc()
				f := flags
				if sec.Perm == PermRW {
					// Data pages have been written by the loader.
					f |= paging.Dirty | paging.Accessed
				}
				if err := p.as.Map(va+paging.VirtAddr(pg*paging.Page4K), paging.Page4K, frame, f); err != nil {
					return Mapping{}, err
				}
			}
		}
		va += paging.VirtAddr(sec.Pages * paging.Page4K)
	}
	if hideLastRW {
		// One extra rw- page beyond the image's maps-visible extent
		// (loader bss over-allocation): present in the page tables only.
		frame := p.m.Alloc.Alloc()
		hidden := va
		if err := p.as.Map(hidden, paging.Page4K, frame,
			paging.User|paging.Writable|paging.Dirty|paging.Accessed); err != nil {
			return Mapping{}, err
		}
		mp.HiddenPages = append(mp.HiddenPages, hidden)
	}
	return mp, nil
}

// MapsEntry is one /proc/PID/maps line.
type MapsEntry struct {
	Start, End paging.VirtAddr
	Perm       Perm
	Name       string
}

// Maps renders the /proc/PID/maps view: one entry per section with PTEs or
// a --- reservation, excluding hidden pages.
func (p *Process) Maps() []MapsEntry {
	var out []MapsEntry
	add := func(mp Mapping) {
		va := mp.Base
		for _, sec := range mp.Image.Sections {
			out = append(out, MapsEntry{
				Start: va,
				End:   va + paging.VirtAddr(sec.Pages*paging.Page4K),
				Perm:  sec.Perm,
				Name:  mp.Image.Name,
			})
			va += paging.VirtAddr(sec.Pages * paging.Page4K)
		}
	}
	add(p.Exe)
	for _, lib := range p.Libs {
		add(lib)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// RenderMaps formats the maps view as text.
func (p *Process) RenderMaps() string {
	var b strings.Builder
	for _, e := range p.Maps() {
		fmt.Fprintf(&b, "%012x-%012x %s %s\n", uint64(e.Start), uint64(e.End), e.Perm, e.Name)
	}
	return b.String()
}

// GroundTruthPerm returns the true permission of the page at va from the
// page tables (the custom-kernel-module check of §IV-F), distinguishing
// mapped perms from "unmapped or ---".
func (p *Process) GroundTruthPerm(va paging.VirtAddr) (Perm, bool) {
	var visited [4]phys.PFN // one frame per paging level: the walk allocates nothing
	w := p.as.Translate(paging.PageBase(va, paging.Page4K), visited[:0])
	if !w.Mapped || !w.Flags.Has(paging.User) {
		return PermNone, false
	}
	if w.Flags.Has(paging.Writable) {
		return PermRW, true
	}
	return PermR, true
}
