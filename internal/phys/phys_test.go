package phys

import (
	"testing"
	"testing/quick"
)

func TestAllocDistinct(t *testing.T) {
	a := NewAllocator(1 << 20)
	seen := make(map[PFN]bool)
	for i := 0; i < 100; i++ {
		f := a.Alloc()
		if f == 0 {
			t.Fatal("allocator handed out PFN 0 (reserved for non-present)")
		}
		if seen[f] {
			t.Fatalf("duplicate frame %d", f)
		}
		seen[f] = true
	}
}

func TestAllocContigAlignment(t *testing.T) {
	a := NewAllocator(1 << 30)
	a.Alloc() // misalign the cursor
	f := a.AllocContig(512)
	if uint64(f)%512 != 0 {
		t.Fatalf("2MiB run not naturally aligned: %d", f)
	}
	g := a.AllocContig(512)
	if g < f+512 {
		t.Fatalf("contiguous runs overlap: %d after %d", g, f)
	}
}

func TestAllocContigAlignmentProperty(t *testing.T) {
	err := quick.Check(func(pre uint8, n uint16) bool {
		a := NewAllocator(1 << 30)
		for i := 0; i < int(pre%32); i++ {
			a.Alloc()
		}
		run := uint64(n%512) + 1
		f := a.AllocContig(run)
		return uint64(f)%run == 0
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPhysAddr(t *testing.T) {
	if PFN(3).PhysAddr() != 3*FrameSize {
		t.Fatal("PhysAddr wrong")
	}
}

func TestOutOfMemoryPanics(t *testing.T) {
	a := NewAllocator(16 * FrameSize)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on exhaustion")
		}
	}()
	a.AllocContig(32)
}

func TestUnalignedSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on unaligned size")
		}
	}()
	NewAllocator(FrameSize + 1)
}

func TestZeroContigPanics(t *testing.T) {
	a := NewAllocator(1 << 20)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on AllocContig(0)")
		}
	}()
	a.AllocContig(0)
}

func TestCapacityAndAllocated(t *testing.T) {
	a := NewAllocator(64 * FrameSize)
	if a.Capacity() != 64 {
		t.Fatalf("capacity %d", a.Capacity())
	}
	a.Alloc()
	a.Alloc()
	if a.Allocated() != 2 {
		t.Fatalf("allocated %d", a.Allocated())
	}
}

// Address-space identifiers count from 1 per allocator, so machines that
// build the same address spaces in the same order number them alike, and
// the 16-bit space is never wrapped into a reused identifier.
func TestNewASIDPerAllocator(t *testing.T) {
	a, b := NewAllocator(16*FrameSize), NewAllocator(16*FrameSize)
	for want := uint16(1); want <= 3; want++ {
		if got := a.NewASID(); got != want {
			t.Fatalf("ASID %d, want %d", got, want)
		}
	}
	if got := b.NewASID(); got != 1 {
		t.Fatalf("a second allocator's first ASID is %d, want 1", got)
	}
	for i := 4; i <= 1<<16-1; i++ {
		a.NewASID()
	}
	defer func() {
		if recover() == nil {
			t.Fatal("no panic once every ASID is used")
		}
	}()
	a.NewASID()
}
