package ptecache

import "repro/internal/phys"

// refCache is the reference model: the valid-flag implementation the
// bitmap cache replaced, kept verbatim (renamed) so the differential tests
// can hold Cache to its exact behaviour — the last free way on a fill, the
// first LRU minimum on an eviction, the clock ticking on every touch.
type refCache struct {
	sets  [][]refLine
	mask  uint64
	clock uint64
}

type refLine struct {
	addr  uint64
	valid bool
	lru   uint64
}

func newRefCache(sets, ways int) *refCache {
	c := &refCache{sets: make([][]refLine, sets), mask: uint64(sets - 1)}
	for i := range c.sets {
		c.sets[i] = make([]refLine, ways)
	}
	return c
}

func (c *refCache) Touch(frame phys.PFN, entryIndex int) (hit bool) {
	addr := frame.PhysAddr() + uint64(entryIndex*8)&^uint64(LineSize-1)
	c.clock++
	set := c.sets[(addr/LineSize)&c.mask]
	vi := 0
	for i := range set {
		if set[i].valid && set[i].addr == addr {
			set[i].lru = c.clock
			return true
		}
		if !set[i].valid {
			vi = i
		} else if set[vi].valid && set[i].lru < set[vi].lru {
			vi = i
		}
	}
	set[vi] = refLine{addr: addr, valid: true, lru: c.clock}
	return false
}

func (c *refCache) Evict(frame phys.PFN, entryIndex int) {
	addr := frame.PhysAddr() + uint64(entryIndex*8)&^uint64(LineSize-1)
	set := c.sets[(addr/LineSize)&c.mask]
	for i := range set {
		if set[i].valid && set[i].addr == addr {
			set[i].valid = false
		}
	}
}

func (c *refCache) Flush() {
	for _, set := range c.sets {
		for i := range set {
			set[i].valid = false
		}
	}
}

type refSnapshot struct {
	clock uint64
	lines []refSavedLine
}

type refSavedLine struct {
	set, way int
	l        refLine
}

func (c *refCache) Snapshot() refSnapshot {
	snap := refSnapshot{clock: c.clock}
	for si, set := range c.sets {
		for wi := range set {
			if set[wi].valid {
				snap.lines = append(snap.lines, refSavedLine{set: si, way: wi, l: set[wi]})
			}
		}
	}
	return snap
}

func (c *refCache) Restore(snap refSnapshot) {
	c.Flush()
	c.clock = snap.clock
	for _, sl := range snap.lines {
		c.sets[sl.set][sl.way] = sl.l
	}
}

func (c *refCache) Resident() int {
	n := 0
	for _, set := range c.sets {
		for i := range set {
			if set[i].valid {
				n++
			}
		}
	}
	return n
}
