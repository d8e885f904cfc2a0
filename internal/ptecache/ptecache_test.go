package ptecache

import (
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/phys"
)

func TestMissThenHit(t *testing.T) {
	c := New(64, 4)
	if c.Touch(10, 3) {
		t.Fatal("first touch hit")
	}
	if !c.Touch(10, 3) {
		t.Fatal("second touch missed")
	}
}

func TestSameLineSharing(t *testing.T) {
	c := New(64, 4)
	// Entries 0..7 share the first 64-byte line of the table.
	c.Touch(10, 0)
	if !c.Touch(10, 7) {
		t.Fatal("entry 7 not on the same line as entry 0")
	}
	if c.Touch(10, 8) {
		t.Fatal("entry 8 unexpectedly on the first line")
	}
}

func TestDistinctFrames(t *testing.T) {
	c := New(64, 4)
	c.Touch(10, 0)
	if c.Touch(11, 0) {
		t.Fatal("different frame hit the same line")
	}
}

func TestFlush(t *testing.T) {
	c := New(64, 4)
	c.Touch(10, 0)
	c.Touch(11, 0)
	if c.Resident() != 2 {
		t.Fatalf("resident %d", c.Resident())
	}
	c.Flush()
	if c.Resident() != 0 {
		t.Fatal("flush left lines")
	}
	if c.Touch(10, 0) {
		t.Fatal("hit after flush")
	}
}

func TestEvictTargeted(t *testing.T) {
	c := New(64, 4)
	c.Touch(10, 0)
	c.Touch(11, 0)
	c.Evict(10, 0)
	if c.Touch(10, 0) {
		t.Fatal("evicted line still resident")
	}
	if !c.Touch(11, 0) {
		t.Fatal("targeted eviction removed an unrelated line")
	}
}

func TestCapacityEviction(t *testing.T) {
	c := New(1, 2) // one set, two ways
	c.Touch(1, 0)
	c.Touch(2, 0)
	c.Touch(3, 0) // evicts LRU (frame 1)
	if c.Touch(1, 0) {
		t.Fatal("LRU line survived over-capacity insert")
	}
}

func TestLRUOrder(t *testing.T) {
	c := New(1, 2)
	c.Touch(1, 0)
	c.Touch(2, 0)
	c.Touch(1, 0) // touch 1 → 2 becomes LRU
	c.Touch(3, 0)
	if !c.Touch(1, 0) {
		t.Fatal("MRU line evicted")
	}
}

func TestBadConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for non-power-of-two sets")
		}
	}()
	New(3, 2)
}

// Property: a touched line is resident until flushed.
func TestTouchProperty(t *testing.T) {
	err := quick.Check(func(frame uint16, idx uint16) bool {
		c := New(256, 8)
		f := phys.PFN(frame) + 1
		i := int(idx % 512)
		c.Touch(f, i)
		return c.Touch(f, i)
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Fatal(err)
	}
}

// Every touch writes the cache's clock and bitmaps, so both fill whole
// 64-byte lines (see the package comment): the header is a multiple of 64
// bytes and the bitmaps take at least one line, however few sets.
func TestCacheStateFillsWholeLines(t *testing.T) {
	if n := unsafe.Sizeof(Cache{}); n%64 != 0 {
		t.Errorf("Cache header is %d bytes, not a multiple of 64", n)
	}
	for _, sets := range []int{1, 4, 1024} {
		c := New(sets, 8)
		if n := uintptr(cap(c.live)) * unsafe.Sizeof(c.live[0]); n < 64 {
			t.Errorf("New(%d, 8): bitmaps take %d bytes, less than a line", sets, n)
		}
	}
}
