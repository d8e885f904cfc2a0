package machine

import (
	"testing"

	"repro/internal/avx"
	"repro/internal/paging"
	"repro/internal/uarch"
)

// A production masked store writes the zero vector. On a page never
// written it changes no byte, so it creates no frame and allocates
// nothing, while its A/D update still happens.
func TestZeroStoreToUnwrittenFrameAllocatesNothing(t *testing.T) {
	m := snapshotTestMachine(t, 3)
	va := snapshotTestRegion + 9*paging.Page4K
	op := avx.MaskedStore(va, avx.AllMask(8))
	before := m.UserAS.Version()
	m.ExecMasked(op)
	if m.UserAS.Version() == before {
		t.Fatal("the first store did not set the page's Dirty bit")
	}
	if n := testing.AllocsPerRun(50, func() { m.ExecMasked(op) }); n != 0 {
		t.Errorf("zero store to an unwritten frame allocates %.1f/op, want 0", n)
	}
	if len(m.frames) != 0 {
		t.Errorf("zero stores put %d frames in the write shadow, want 0", len(m.frames))
	}
}

// A store of non-zero data creates exactly one frame and reads back as
// stored. Storing the same data again changes no byte and allocates
// nothing; storing other data to the frame the machine owns writes it in
// place, also without allocating.
func TestNonZeroStoreWritesOneFrame(t *testing.T) {
	m := snapshotTestMachine(t, 3)
	va := snapshotTestRegion + 4*paging.Page4K + 64
	vec := [8]uint32{1, 2, 3, 0xdeadbeef, 5, 6, 7, 8}
	m.SetVector(vec)
	op := avx.MaskedStore(va, avx.AllMask(8))
	m.ExecMasked(op)
	if len(m.frames) != 1 {
		t.Fatalf("one non-zero store left %d frames, want 1", len(m.frames))
	}
	if r := m.ExecMasked(avx.MaskedLoad(va, avx.AllMask(8))); r.Data != vec {
		t.Fatalf("masked load read %v, want %v", r.Data, vec)
	}
	if n := testing.AllocsPerRun(50, func() { m.ExecMasked(op) }); n != 0 {
		t.Errorf("storing the bytes a frame holds allocates %.1f/op, want 0", n)
	}
	vec[0] = 99
	m.SetVector(vec)
	if n := testing.AllocsPerRun(50, func() { m.ExecMasked(op) }); n != 0 {
		t.Errorf("storing to an owned frame allocates %.1f/op, want 0", n)
	}
	if data, _ := m.ReadUser(va, 4); data[0] != 99 {
		t.Fatalf("ReadUser read %v after the second store, want 99 first", data)
	}
	if len(m.frames) != 1 {
		t.Fatalf("stores to one page left %d frames, want 1", len(m.frames))
	}
}

// The write shadow grows with the frames written, not with their PFNs:
// one write to a frame far above every other costs one frame.
func TestHighFrameWriteCostsOneFrame(t *testing.T) {
	m := New(uarch.IceLake1065G7(), 1)
	m.Alloc.AllocContig(1 << 19) // the next user frame is PFN 2^20
	va := snapshotTestRegion
	if err := m.MapUser(va, paging.Page4K, paging.Writable); err != nil {
		t.Fatal(err)
	}
	m.SetVector([8]uint32{7})
	op := avx.MaskedStore(va, avx.AllMask(1))
	m.ExecMasked(avx.MaskedLoad(va, avx.AllMask(1))) // warm the walk buffer
	if n := testing.AllocsPerRun(1, func() {
		m.dropFrames()
		m.ExecMasked(op)
	}); n != 1 {
		t.Errorf("a store to a high frame allocates %.1f/op, want 1 (the frame)", n)
	}
	if len(m.frames) != 1 {
		t.Fatalf("write shadow holds %d frames, want 1", len(m.frames))
	}
}

// A frame no address space maps any more is dropped at unmap, so nothing
// written to a page outlives its mapping in later snapshots.
func TestUnmapDropsDeadFrame(t *testing.T) {
	m := New(uarch.IceLake1065G7(), 1)
	va := snapshotTestRegion
	if err := m.MapUser(va, 2*paging.Page4K, paging.Writable); err != nil {
		t.Fatal(err)
	}
	m.SetVector([8]uint32{1, 2, 3, 4, 5, 6, 7, 8})
	m.ExecMasked(avx.MaskedStore(va, avx.AllMask(8)))
	m.ExecMasked(avx.MaskedStore(va+paging.Page4K, avx.AllMask(8)))
	if len(m.frames) != 2 {
		t.Fatalf("two stores left %d frames, want 2", len(m.frames))
	}
	if err := m.UnmapUser(va, paging.Page4K); err != nil {
		t.Fatal(err)
	}
	if len(m.frames) != 1 {
		t.Fatalf("after unmapping one page the machine holds %d frames, want 1", len(m.frames))
	}
	if data, _ := m.ReadUser(va+paging.Page4K, 4); data[0] != 1 {
		t.Fatal("unmapping one page dropped the other page's frame")
	}
	if err := m.UnmapUser(va+paging.Page4K, paging.Page4K); err != nil {
		t.Fatal(err)
	}
	if len(m.frames) != 0 {
		t.Fatalf("after unmapping every page the machine holds %d frames, want 0", len(m.frames))
	}
	if s := m.Snapshot(); len(s.frames) != 0 {
		t.Fatalf("a snapshot after the unmap shares %d frames", len(s.frames))
	}
}

// With KPTI the kernel view may map a user page's frame too; unmapping
// the page from the user view must then keep the frame.
func TestUnmapKeepsFrameTheKernelViewMaps(t *testing.T) {
	m := New(uarch.IceLake1065G7(), 1)
	kernel := paging.NewAddressSpace(m.Alloc)
	user := paging.NewAddressSpace(m.Alloc)
	va := snapshotTestRegion
	frame := m.Alloc.Alloc()
	for _, as := range []*paging.AddressSpace{kernel, user} {
		if err := as.Map(va, paging.Page4K, frame, paging.User|paging.Writable); err != nil {
			t.Fatal(err)
		}
	}
	m.InstallAddressSpaces(kernel, user)
	m.SetVector([8]uint32{42})
	m.ExecMasked(avx.MaskedStore(va, avx.AllMask(1)))
	if err := m.UnmapUser(va, paging.Page4K); err != nil {
		t.Fatal(err)
	}
	if len(m.frames) != 1 {
		t.Fatalf("unmapping a frame the kernel view still maps left %d frames, want 1", len(m.frames))
	}
	if got := getLE32(m.frameRead(frame)[:]); got != 42 {
		t.Fatalf("the kernel view's frame reads %d after the user unmap, want 42", got)
	}
}
