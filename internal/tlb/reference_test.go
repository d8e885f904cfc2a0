package tlb

import "repro/internal/paging"

// The reference model: the valid-flag implementation the bitmap caches
// replaced, kept verbatim (renamed) so the differential tests can hold the
// real caches to its exact behaviour — probe order, LRU ties, the clock
// ticking on every lookup and the duplicate entries PSC.Fill inserts.

type refEntry struct {
	Entry
	valid bool
	lru   uint64
}

type refSetAssoc struct {
	cfg   Config
	sets  [][]refEntry
	clock uint64
}

func newRefSetAssoc(cfg Config) *refSetAssoc {
	s := &refSetAssoc{cfg: cfg, sets: make([][]refEntry, cfg.Sets)}
	for i := range s.sets {
		s.sets[i] = make([]refEntry, cfg.Ways)
	}
	return s
}

func (s *refSetAssoc) setIndex(vpn uint64) int {
	return int(vpn) & (s.cfg.Sets - 1)
}

func (s *refSetAssoc) lookup(vpn uint64, size paging.PageSize, asid uint16, global bool) *refEntry {
	s.clock++
	set := s.sets[s.setIndex(vpn)]
	for i := range set {
		e := &set[i]
		if e.valid && e.vpn == vpn && e.size == size &&
			(e.asid == asid || global && e.flags.Has(paging.Global)) {
			e.lru = s.clock
			return e
		}
	}
	return nil
}

func (s *refSetAssoc) insert(e refEntry) (victim refEntry, evicted bool) {
	s.clock++
	e.lru = s.clock
	set := s.sets[s.setIndex(e.vpn)]
	vi := 0
	for i := range set {
		if !set[i].valid {
			set[i] = e
			return refEntry{}, false
		}
		if set[i].lru < set[vi].lru {
			vi = i
		}
	}
	victim = set[vi]
	set[vi] = e
	return victim, true
}

func (s *refSetAssoc) invalidate(vpn uint64, size paging.PageSize) bool {
	set := s.sets[s.setIndex(vpn)]
	hit := false
	for i := range set {
		if set[i].valid && set[i].vpn == vpn && set[i].size == size {
			set[i].valid = false
			hit = true
		}
	}
	return hit
}

func (s *refSetAssoc) flush(keepGlobal bool) {
	for _, set := range s.sets {
		for i := range set {
			if keepGlobal && set[i].flags.Has(paging.Global) {
				continue
			}
			set[i].valid = false
		}
	}
}

func (s *refSetAssoc) flushASID(asid uint16) {
	for _, set := range s.sets {
		for i := range set {
			if set[i].valid && set[i].asid == asid && !set[i].flags.Has(paging.Global) {
				set[i].valid = false
			}
		}
	}
}

type refSavedEntry struct {
	set, way int
	e        refEntry
}

type refCacheSnapshot struct {
	clock   uint64
	entries []refSavedEntry
}

func (s *refSetAssoc) snapshot() refCacheSnapshot {
	snap := refCacheSnapshot{clock: s.clock}
	for si, set := range s.sets {
		for wi := range set {
			if set[wi].valid {
				snap.entries = append(snap.entries, refSavedEntry{set: si, way: wi, e: set[wi]})
			}
		}
	}
	return snap
}

func (s *refSetAssoc) restore(snap refCacheSnapshot) {
	s.flush(false)
	s.clock = snap.clock
	for _, se := range snap.entries {
		s.sets[se.set][se.way] = se.e
	}
}

func (s *refSetAssoc) count() int {
	n := 0
	for _, set := range s.sets {
		for i := range set {
			if set[i].valid {
				n++
			}
		}
	}
	return n
}

type refTLB struct {
	l1, l2 *refSetAssoc
}

func newRefTLB(cfg TLBConfig) *refTLB {
	return &refTLB{l1: newRefSetAssoc(cfg.L1), l2: newRefSetAssoc(cfg.L2)}
}

func (t *refTLB) Lookup(va paging.VirtAddr, asid uint16) (LookupResult, *refEntry) {
	for _, size := range []paging.PageSize{paging.Page4K, paging.Page2M, paging.Page1G} {
		vpn := vpnOf(va, size)
		if e := t.l1.lookup(vpn, size, asid, true); e != nil {
			return HitL1, e
		}
	}
	for _, size := range []paging.PageSize{paging.Page4K, paging.Page2M, paging.Page1G} {
		vpn := vpnOf(va, size)
		if e := t.l2.lookup(vpn, size, asid, true); e != nil {
			t.l1.insert(*e)
			return HitL2, e
		}
	}
	return Miss, nil
}

func (t *refTLB) Fill(va paging.VirtAddr, w paging.Walk, asid uint16) {
	e := refEntry{Entry: Entry{
		vpn:   vpnOf(va, w.Size),
		size:  w.Size,
		asid:  asid,
		flags: w.Flags,
		pfn:   w.PFN,
	}, valid: true}
	if victim, evicted := t.l1.insert(e); evicted {
		t.l2.insert(victim)
	}
	t.l2.insert(e)
}

func (t *refTLB) Invalidate(va paging.VirtAddr) {
	for _, size := range []paging.PageSize{paging.Page4K, paging.Page2M, paging.Page1G} {
		vpn := vpnOf(va, size)
		t.l1.invalidate(vpn, size)
		t.l2.invalidate(vpn, size)
	}
}

func (t *refTLB) Flush(keepGlobal bool) {
	t.l1.flush(keepGlobal)
	t.l2.flush(keepGlobal)
}

func (t *refTLB) FlushASID(asid uint16) {
	t.l1.flushASID(asid)
	t.l2.flushASID(asid)
}

func (t *refTLB) EntryCount() int { return t.l1.count() + t.l2.count() }

type refTLBSnapshot struct{ l1, l2 refCacheSnapshot }

func (t *refTLB) Snapshot() refTLBSnapshot {
	return refTLBSnapshot{l1: t.l1.snapshot(), l2: t.l2.snapshot()}
}

func (t *refTLB) Restore(s refTLBSnapshot) {
	t.l1.restore(s.l1)
	t.l2.restore(s.l2)
}

type refPSC struct {
	pml4e, pdpte, pde *refSetAssoc
	Enabled           bool
}

func newRefPSC() *refPSC {
	return &refPSC{
		pml4e:   newRefSetAssoc(Config{Sets: 4, Ways: 4}),
		pdpte:   newRefSetAssoc(Config{Sets: 4, Ways: 4}),
		pde:     newRefSetAssoc(Config{Sets: 8, Ways: 4}),
		Enabled: true,
	}
}

func (p *refPSC) cacheFor(level paging.Level) *refSetAssoc {
	switch level {
	case paging.LevelPML4:
		return p.pml4e
	case paging.LevelPDPT:
		return p.pdpte
	case paging.LevelPD:
		return p.pde
	}
	return nil
}

func (p *refPSC) Lookup(va paging.VirtAddr, asid uint16) (paging.Level, bool) {
	if !p.Enabled {
		return paging.LevelNone, false
	}
	for _, level := range []paging.Level{paging.LevelPD, paging.LevelPDPT, paging.LevelPML4} {
		c := p.cacheFor(level)
		if e := c.lookup(pscTag(va, level), paging.Page4K, asid, false); e != nil {
			return level, true
		}
	}
	return paging.LevelNone, false
}

func (p *refPSC) Fill(va paging.VirtAddr, termLevel paging.Level, asid uint16) {
	if !p.Enabled {
		return
	}
	deepest := termLevel - 1
	for level := paging.LevelPML4; level <= deepest && level <= paging.LevelPD; level++ {
		c := p.cacheFor(level)
		c.insert(refEntry{Entry: Entry{vpn: pscTag(va, level), size: paging.Page4K, asid: asid}, valid: true})
	}
}

func (p *refPSC) Flush() {
	p.pml4e.flush(false)
	p.pdpte.flush(false)
	p.pde.flush(false)
}

func (p *refPSC) EntryCount() int {
	return p.pml4e.count() + p.pdpte.count() + p.pde.count()
}

type refPSCSnapshot struct {
	pml4e, pdpte, pde refCacheSnapshot
	enabled           bool
}

func (p *refPSC) Snapshot() refPSCSnapshot {
	return refPSCSnapshot{
		pml4e:   p.pml4e.snapshot(),
		pdpte:   p.pdpte.snapshot(),
		pde:     p.pde.snapshot(),
		enabled: p.Enabled,
	}
}

func (p *refPSC) Restore(s refPSCSnapshot) {
	p.pml4e.restore(s.pml4e)
	p.pdpte.restore(s.pdpte)
	p.pde.restore(s.pde)
	p.Enabled = s.enabled
}

// pscTag returns the VA prefix that indexes the cache of a level: an entry
// at level L is tagged by the VA bits that selected entries at levels
// above-and-including L.
func pscTag(va paging.VirtAddr, level paging.Level) uint64 {
	switch level {
	case paging.LevelPML4:
		return uint64(va) >> 39
	case paging.LevelPDPT:
		return uint64(va) >> 30
	case paging.LevelPD:
		return uint64(va) >> 21
	}
	panic("tlb: psc tag for leaf level")
}
