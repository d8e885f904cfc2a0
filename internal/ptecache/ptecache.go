// Package ptecache models data-cache residency of page-table lines.
//
// A page-table walk reads one 64-byte line per level. Whether that line is
// resident in the data-cache hierarchy dominates walk latency: the paper's
// §III-B TLB-state experiment measures 381 cycles for a walk with cold
// page-table lines versus 147 with warm ones. We model residency (not
// contents) with a set-associative LRU cache of physical line addresses,
// sized like a slice of L2 — enough to make repeated probing loops warm and
// explicit eviction cold, which are the two states the attacks create.
//
// The cache keeps one validity bitmap per set, one bit per way: a way is
// valid iff its bit is set. Flush clears the bitmaps, so it costs O(sets)
// whatever the cache holds, and lookups, evictions and snapshots visit only
// the valid ways, in ascending way order. Slot order breaks LRU ties and
// picks the free way a fill takes.
//
// Every walk's touches write the cache's clock and bitmaps, and the caches
// of several machines probe at once on different cores, so the header is
// padded to a whole number of 64-byte lines and the bitmaps fill at least
// one line: no line a probe writes holds another machine's state.
package ptecache

import (
	"math/bits"

	"repro/internal/phys"
)

// LineSize is the cache-line size in bytes.
const LineSize = 64

// Cache tracks which physical lines holding PTEs are cache-resident.
type Cache struct {
	lines []line   // set-major: set s is lines[s*ways : (s+1)*ways]
	live  []uint16 // bit w of live[s] is set iff way w of set s is valid
	ways  int
	full  uint16 // the bitmap of a set with every way valid
	mask  uint64
	clock uint64
	_     [48]byte // pads the header to two cache lines (a test pins it)
}

// Sets returns the number of sets (used to size machine replicas).
func (c *Cache) Sets() int { return len(c.live) }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

type line struct {
	addr uint64
	lru  uint64
}

// New creates a cache with the given number of sets (power of two) and
// ways (at most 16). New(1024, 8) ≈ 512 KiB of PTE-line reach, an L2-ish
// slice.
func New(sets, ways int) *Cache {
	if sets&(sets-1) != 0 || sets <= 0 || ways <= 0 || ways > 16 {
		panic("ptecache: sets must be a positive power of two and ways in 1..16")
	}
	return &Cache{
		lines: make([]line, sets*ways),
		live:  make([]uint16, max(sets, 32))[:sets], // at least one line
		ways:  ways,
		full:  uint16(1<<ways - 1),
		mask:  uint64(sets - 1),
	}
}

// lineAddr returns the address of the line holding (frame, entryIndex) and
// the index of its set.
func (c *Cache) lineAddr(frame phys.PFN, entryIndex int) (addr uint64, set int) {
	addr = frame.PhysAddr() + uint64(entryIndex*8)&^uint64(LineSize-1)
	return addr, int((addr / LineSize) & c.mask)
}

// set returns the ways of set si.
func (c *Cache) set(si int) []line {
	return c.lines[si*c.ways : (si+1)*c.ways : (si+1)*c.ways]
}

// Touch looks up the PTE line for (frame, entryIndex), fills it on miss,
// and reports whether it was already resident. Eight 8-byte entries share a
// 64-byte line, exactly as on real hardware — so probing adjacent pages
// often warms the next probe's line. A miss fills the last free way, or
// else evicts the first least recently used one.
func (c *Cache) Touch(frame phys.PFN, entryIndex int) (hit bool) {
	addr, si := c.lineAddr(frame, entryIndex)
	c.clock++
	set := c.set(si)
	live := c.live[si]
	for l := live; l != 0; l &= l - 1 {
		if w := bits.TrailingZeros16(l); set[w].addr == addr {
			set[w].lru = c.clock
			return true
		}
	}
	vi := 0
	if free := ^live & c.full; free != 0 {
		vi = bits.Len16(free) - 1
		c.live[si] |= 1 << vi
	} else {
		for i := range set {
			if set[i].lru < set[vi].lru {
				vi = i
			}
		}
	}
	set[vi] = line{addr: addr, lru: c.clock}
	return false
}

// Evict removes the line holding (frame, entryIndex) if resident (targeted
// conflict eviction by an attacker who controls the cache set).
func (c *Cache) Evict(frame phys.PFN, entryIndex int) {
	addr, si := c.lineAddr(frame, entryIndex)
	set := c.set(si)
	for l := c.live[si]; l != 0; l &= l - 1 {
		if w := bits.TrailingZeros16(l); set[w].addr == addr {
			c.live[si] &^= 1 << w
		}
	}
}

// Flush empties the cache (models eviction of page-table data by a large
// attacker working set, or WBINVD in spirit).
func (c *Cache) Flush() { clear(c.live) }

// Snapshot is the full replayable cache state: the LRU clock plus every
// valid line pinned to its exact (set, way) slot — slot order breaks LRU
// ties on eviction, so repacking would diverge. Only valid lines are
// stored; snapshotting an empty cache is ~free.
type Snapshot struct {
	clock uint64
	lines []savedLine
}

type savedLine struct {
	set, way int
	l        line
}

// Snapshot captures the cache contents.
func (c *Cache) Snapshot() Snapshot {
	snap := Snapshot{clock: c.clock}
	for si, live := range c.live {
		for ; live != 0; live &= live - 1 {
			w := bits.TrailingZeros16(live)
			snap.lines = append(snap.lines, savedLine{set: si, way: w, l: c.set(si)[w]})
		}
	}
	return snap
}

// Restore rewinds the cache to a snapshot taken on a same-geometry cache.
func (c *Cache) Restore(snap Snapshot) {
	c.Flush()
	c.clock = snap.clock
	for _, sl := range snap.lines {
		c.set(sl.set)[sl.way] = sl.l
		c.live[sl.set] |= 1 << sl.way
	}
}

// Resident returns the number of valid lines (diagnostics).
func (c *Cache) Resident() int {
	n := 0
	for _, live := range c.live {
		n += bits.OnesCount16(live)
	}
	return n
}
