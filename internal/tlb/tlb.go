// Package tlb models the translation caches the attacks observe: a
// two-level data TLB (L1 DTLB + shared STLB) and Intel-style
// paging-structure caches (PSC).
//
// The structures are set-associative with LRU replacement and are keyed the
// way real parts key them (virtual page number for the TLBs, partial VA
// prefix for the PSCs), because two of the paper's primitives depend on the
// details: the TLB attack (P4) needs eviction and refill to behave like a
// real set-associative cache, and the page-table-level attack (P3) needs
// PSCs that cache PML4E/PDPTE/PDE entries but never PT entries.
//
// Each cache keeps one validity bitmap per set, one bit per way: a way is
// valid iff its bit is set. A full flush clears the bitmaps, so it costs
// O(sets) whatever the caches hold, and lookups, invalidations and
// snapshots visit only the valid ways, in ascending way order. Slot order
// breaks LRU ties, picks the free way a fill takes and decides which of two
// duplicate entries a lookup finds.
//
// Every lookup and fill writes its cache's header and bitmaps, and the
// caches of several machines probe at once on different cores, so the
// header is a whole number of 64-byte lines and each bitmap fills at least
// one line: no line a probe writes holds another machine's state.
package tlb

import (
	"math/bits"

	"repro/internal/paging"
	"repro/internal/phys"
)

// Entry is a cached translation.
//
// Flags, Size and PFN expose the translation attributes the MMU needs to
// finish an access from a TLB hit without walking.
type Entry struct {
	vpn   uint64 // virtual page number (va >> page shift for its size)
	size  paging.PageSize
	asid  uint16
	flags paging.Flags
	pfn   phys.PFN
}

// Flags returns the cached PTE flags.
func (e *Entry) Flags() paging.Flags { return e.flags }

// Size returns the cached translation's page size.
func (e *Entry) Size() paging.PageSize { return e.size }

// PFN returns the cached frame number.
func (e *Entry) PFN() phys.PFN { return e.pfn }

// SetFlags updates the cached PTE flags (the machine refreshes the cached
// Dirty bit after a dirty-setting assist, as hardware does).
func (e *Entry) SetFlags(f paging.Flags) { e.flags = f }

// Config sizes one set-associative translation cache.
type Config struct {
	Sets int // number of sets (power of two)
	Ways int // associativity, at most 16
}

// setAssoc is a generic set-associative LRU cache of translations.
//
// The LRU stamps live apart from the entries, so the victim search of a
// fill reads one short array per set. Besides the validity bitmaps the
// cache keeps one derived index: sizes counts the valid entries of each
// page size, so a lookup skips the sets of a size the cache holds none of.
// Skipping changes nothing observable: the clock still ticks once per size
// probed, exactly as a scan of an empty set would.
//
// The header is exactly two cache lines (128 bytes; a test pins it), so a
// field added here must keep the size a multiple of 64.
type setAssoc struct {
	entries []Entry  // set-major: set s is entries[s*ways : (s+1)*ways]
	stamps  []uint64 // stamps[i] is the LRU stamp of entries[i]
	live    []uint16 // bit w of live[s] is set iff way w of set s is valid
	sizes   [numSizes]int
	mask    int    // Config.Sets - 1
	ways    int    // Config.Ways
	full    uint16 // the bitmap of a set with every way valid
	clock   uint64
}

// The page sizes a TLB level caches, in the order a lookup probes them.
const numSizes = 3

var (
	pageSizes  = [numSizes]paging.PageSize{paging.Page4K, paging.Page2M, paging.Page1G}
	sizeShifts = [numSizes]uint{12, 21, 30}
)

// sizeIndex returns the position of size in pageSizes.
func sizeIndex(size paging.PageSize) int {
	switch size {
	case paging.Page4K:
		return 0
	case paging.Page2M:
		return 1
	case paging.Page1G:
		return 2
	}
	panic("tlb: bad page size")
}

func newSetAssoc(cfg Config) *setAssoc {
	if cfg.Ways > 16 {
		panic("tlb: more than 16 ways")
	}
	return &setAssoc{
		entries: make([]Entry, cfg.Sets*cfg.Ways),
		stamps:  make([]uint64, cfg.Sets*cfg.Ways),
		live:    make([]uint16, max(cfg.Sets, 32))[:cfg.Sets], // at least one line
		mask:    cfg.Sets - 1,
		ways:    cfg.Ways,
		full:    uint16(1<<cfg.Ways - 1),
	}
}

// lookup ticks the clock and returns the entry for (vpn,size) that asid may
// use — its own or a Global one — or nil. Only valid ways are visited, in
// ascending way order, so of two duplicates the lower way is found.
func (s *setAssoc) lookup(vpn uint64, size paging.PageSize, asid uint16) *Entry {
	s.clock++
	si := int(vpn) & s.mask
	base := si * s.ways
	for live := s.live[si]; live != 0; live &= live - 1 {
		i := base + bits.TrailingZeros16(live)
		e := &s.entries[i]
		if e.vpn == vpn && e.size == size && (e.asid == asid || e.flags.Has(paging.Global)) {
			s.stamps[i] = s.clock
			return e
		}
	}
	return nil
}

// find looks va up at every page size in probe order, as one lookup per
// size, and returns the first entry found or nil. A size the cache holds no
// entry of is not scanned, but its lookup still ticks the clock.
func (s *setAssoc) find(va paging.VirtAddr, asid uint16) *Entry {
	for i, shift := range sizeShifts {
		if s.sizes[i] == 0 {
			s.clock++
			continue
		}
		if e := s.lookup(uint64(va)>>shift, pageSizes[i], asid); e != nil {
			return e
		}
	}
	return nil
}

// claim ticks the clock and picks the way a new entry for (vpn,size) takes:
// the first free way, or else the first least recently used one, whose
// entry it evicts. It marks the way valid and stamps it, keeps the per-size
// counts, and returns the way's index in entries with its old entry still
// in place, so the caller can copy a victim out before writing the new
// entry there.
func (s *setAssoc) claim(vpn uint64, size paging.PageSize) (slot int, evicted bool) {
	s.clock++
	si := int(vpn) & s.mask
	base := si * s.ways
	if free := ^s.live[si] & s.full; free != 0 {
		w := bits.TrailingZeros16(free)
		s.live[si] |= 1 << w
		slot = base + w
	} else {
		stamps := s.stamps[base : base+s.ways]
		w, oldest := 0, stamps[0]
		for i, st := range stamps {
			if st < oldest {
				w, oldest = i, st
			}
		}
		slot, evicted = base+w, true
		s.sizes[sizeIndex(s.entries[slot].size)]--
	}
	s.sizes[sizeIndex(size)]++
	s.stamps[slot] = s.clock
	return slot, evicted
}

// insert copies e into the way claim picks, dropping any entry it evicts.
func (s *setAssoc) insert(e *Entry) {
	slot, _ := s.claim(e.vpn, e.size)
	s.entries[slot] = *e
}

// put writes a paging-structure-cache entry, tagged tag, into the way claim
// picks; its other fields are zero.
func (s *setAssoc) put(tag uint64, asid uint16) {
	slot, _ := s.claim(tag, paging.Page4K)
	s.entries[slot] = Entry{vpn: tag, size: paging.Page4K, asid: asid}
}

// set returns the ways of set si.
func (s *setAssoc) set(si int) []Entry {
	base := si * s.ways
	return s.entries[base : base+s.ways : base+s.ways]
}

// invalidate removes the entry for (vpn,size) in any ASID; returns whether
// an entry was removed.
func (s *setAssoc) invalidate(vpn uint64, size paging.PageSize) bool {
	si := int(vpn) & s.mask
	set := s.set(si)
	hit := false
	for live := s.live[si]; live != 0; live &= live - 1 {
		w := bits.TrailingZeros16(live)
		if set[w].vpn == vpn && set[w].size == size {
			s.live[si] &^= 1 << w
			s.sizes[sizeIndex(size)]--
			hit = true
		}
	}
	return hit
}

// flush removes all entries; if keepGlobal, Global entries survive (MOV CR3
// without PCID semantics).
func (s *setAssoc) flush(keepGlobal bool) {
	if !keepGlobal {
		clear(s.live)
		s.sizes = [numSizes]int{}
		return
	}
	s.drop(func(e *Entry) bool { return !e.flags.Has(paging.Global) })
}

// flushASID removes all non-global entries belonging to one ASID.
func (s *setAssoc) flushASID(asid uint16) {
	s.drop(func(e *Entry) bool { return e.asid == asid && !e.flags.Has(paging.Global) })
}

// drop invalidates every valid entry that match selects.
func (s *setAssoc) drop(match func(*Entry) bool) {
	for si, live := range s.live {
		set := s.set(si)
		for ; live != 0; live &= live - 1 {
			w := bits.TrailingZeros16(live)
			if match(&set[w]) {
				s.live[si] &^= 1 << w
				s.sizes[sizeIndex(set[w].size)]--
			}
		}
	}
}

// savedEntry pins one valid entry to its exact slot. The way index matters:
// eviction breaks LRU ties by slot order, so a restore that repacked entries
// would diverge from the snapshotted cache on the next fill.
type savedEntry struct {
	set, way int
	e        Entry
	lru      uint64
}

// cacheSnapshot is the full replayable state of one set-associative cache:
// the LRU clock plus every valid entry in place. Only valid entries are
// stored, so snapshotting the (common) empty post-sweep state is ~free.
type cacheSnapshot struct {
	clock   uint64
	entries []savedEntry
}

// snapshot captures the cache contents.
func (s *setAssoc) snapshot() cacheSnapshot {
	snap := cacheSnapshot{clock: s.clock}
	for si, live := range s.live {
		for ; live != 0; live &= live - 1 {
			w := bits.TrailingZeros16(live)
			i := si*s.ways + w
			snap.entries = append(snap.entries, savedEntry{set: si, way: w, e: s.entries[i], lru: s.stamps[i]})
		}
	}
	return snap
}

// restore rewinds the cache to a snapshot taken on a same-geometry cache.
func (s *setAssoc) restore(snap cacheSnapshot) {
	clear(s.live)
	s.sizes = [numSizes]int{}
	s.clock = snap.clock
	for _, se := range snap.entries {
		i := se.set*s.ways + se.way
		s.entries[i] = se.e
		s.stamps[i] = se.lru
		s.live[se.set] |= 1 << se.way
		s.sizes[sizeIndex(se.e.size)]++
	}
}

// count returns the number of valid entries (for tests/diagnostics).
func (s *setAssoc) count() int {
	n := 0
	for _, live := range s.live {
		n += bits.OnesCount16(live)
	}
	return n
}

// TLB is the two-level data TLB.
type TLB struct {
	l1  *setAssoc
	l2  *setAssoc
	cfg TLBConfig
}

// TLBConfig sizes both TLB levels.
type TLBConfig struct {
	L1 Config // e.g. 64-entry 4-way
	L2 Config // e.g. 1536-entry 12-way (STLB)
}

// DefaultTLBConfig is an Ice Lake-like configuration.
func DefaultTLBConfig() TLBConfig {
	return TLBConfig{
		L1: Config{Sets: 16, Ways: 4},   // 64-entry DTLB
		L2: Config{Sets: 128, Ways: 12}, // 1536-entry STLB
	}
}

// NewTLB creates a TLB with the given configuration.
func NewTLB(cfg TLBConfig) *TLB {
	return &TLB{l1: newSetAssoc(cfg.L1), l2: newSetAssoc(cfg.L2), cfg: cfg}
}

// Config returns the TLB's configuration (used to size machine replicas).
func (t *TLB) Config() TLBConfig { return t.cfg }

// LookupResult describes where a translation was found.
type LookupResult int

// TLB lookup outcomes.
const (
	Miss  LookupResult = iota // not in either level: page walk required
	HitL1                     // found in the first-level DTLB
	HitL2                     // found in the STLB (small extra latency)
)

func vpnOf(va paging.VirtAddr, size paging.PageSize) uint64 {
	return uint64(va) >> sizeShifts[sizeIndex(size)]
}

// Lookup searches for a translation of va at any page size for asid.
// Real TLBs probe per-size in parallel; we model the same observable.
func (t *TLB) Lookup(va paging.VirtAddr, asid uint16) (LookupResult, *Entry) {
	if e := t.l1.find(va, asid); e != nil {
		return HitL1, e
	}
	if e := t.l2.find(va, asid); e != nil {
		// Promote into L1 like a real hierarchy.
		t.l1.insert(e)
		return HitL2, e
	}
	return Miss, nil
}

// RepeatMiss stands in for a Lookup the caller knows misses both levels:
// it ticks each level's clock once per page size, exactly as that Lookup
// would, without scanning a set. It is sound only when nothing has added
// an entry since a Lookup of the same address and ASID missed.
func (t *TLB) RepeatMiss() {
	t.l1.clock += numSizes
	t.l2.clock += numSizes
}

// Fill inserts a translation produced by a successful walk. L1 victims are
// demoted to the STLB (exclusive-ish behaviour is close enough for the
// attack observables).
func (t *TLB) Fill(va paging.VirtAddr, w *paging.Walk, asid uint16) {
	vpn := vpnOf(va, w.Size)
	slot, evicted := t.l1.claim(vpn, w.Size)
	e := &t.l1.entries[slot]
	if evicted {
		t.l2.insert(e) // demote the victim before it is overwritten
	}
	*e = Entry{vpn: vpn, size: w.Size, asid: asid, flags: w.Flags, pfn: w.PFN}
	t.l2.insert(e)
}

// Invalidate models INVLPG: drops the translation of va at every size.
func (t *TLB) Invalidate(va paging.VirtAddr) {
	for i, shift := range sizeShifts {
		vpn, size := uint64(va)>>shift, pageSizes[i]
		if t.l1.sizes[i] != 0 {
			t.l1.invalidate(vpn, size)
		}
		if t.l2.sizes[i] != 0 {
			t.l2.invalidate(vpn, size)
		}
	}
}

// Flush models a CR3 write: drops everything, keeping Global entries if
// keepGlobal (no-PCID semantics keep globals; full flush drops them too).
func (t *TLB) Flush(keepGlobal bool) {
	t.l1.flush(keepGlobal)
	t.l2.flush(keepGlobal)
}

// flushASID drops the non-global entries of one address space (PCID-
// targeted invalidation).
func (t *TLB) flushASID(asid uint16) {
	t.l1.flushASID(asid)
	t.l2.flushASID(asid)
}

// EntryCount returns the number of valid entries across both levels.
func (t *TLB) EntryCount() int { return t.l1.count() + t.l2.count() }

// Snapshot is the full replayable TLB state: both levels' contents and LRU
// clocks. A restored TLB behaves bit-identically to the snapshotted one for
// every subsequent lookup/fill/evict sequence.
type Snapshot struct {
	l1, l2 cacheSnapshot
}

// Snapshot captures both TLB levels.
func (t *TLB) Snapshot() Snapshot {
	return Snapshot{l1: t.l1.snapshot(), l2: t.l2.snapshot()}
}

// Restore rewinds the TLB to a snapshot taken on a same-config TLB.
func (t *TLB) Restore(s Snapshot) {
	t.l1.restore(s.l1)
	t.l2.restore(s.l2)
}

// PSC is the set of Intel-style paging-structure caches: one cache per
// interior level (PML4E, PDPTE, PDE). PT entries are never cached — the
// property the paper's level attack exploits (§III-B: "Intel's
// paging-structure caches do not contain PT").
type PSC struct {
	pml4e *setAssoc
	pdpte *setAssoc
	pde   *setAssoc
	// Enabled gates the whole structure; the ablation bench turns it off.
	Enabled bool
}

// NewPSC creates paging-structure caches with small, Intel-plausible sizes.
func NewPSC() *PSC {
	return &PSC{
		pml4e:   newSetAssoc(Config{Sets: 4, Ways: 4}),
		pdpte:   newSetAssoc(Config{Sets: 4, Ways: 4}),
		pde:     newSetAssoc(Config{Sets: 8, Ways: 4}),
		Enabled: true,
	}
}

// Lookup reports the deepest interior level whose entry for va is cached.
// A hit at level L means the walk may start at the structure below L,
// skipping the levels at and above L. An entry at level L is tagged by the
// VA bits that selected entries at levels above-and-including L.
func (p *PSC) Lookup(va paging.VirtAddr, asid uint16) (paging.Level, bool) {
	if !p.Enabled {
		return paging.LevelNone, false
	}
	if p.pde.lookup(uint64(va)>>21, paging.Page4K, asid) != nil {
		return paging.LevelPD, true
	}
	if p.pdpte.lookup(uint64(va)>>30, paging.Page4K, asid) != nil {
		return paging.LevelPDPT, true
	}
	if p.pml4e.lookup(uint64(va)>>39, paging.Page4K, asid) != nil {
		return paging.LevelPML4, true
	}
	return paging.LevelNone, false
}

// Fill caches the interior entries a successful or failed walk read: those
// of every interior level strictly above the termination level, which the
// walk found Present. The entry at the termination level is never cached,
// whether it is the leaf of a mapped walk or the non-present entry that
// ended a failed one. Fill inserts without probing, so refilling a cached
// prefix adds a duplicate entry; lookups find the one in the lowest way.
func (p *PSC) Fill(va paging.VirtAddr, termLevel paging.Level, asid uint16) {
	if !p.Enabled {
		return
	}
	if termLevel > paging.LevelPML4 {
		p.pml4e.put(uint64(va)>>39, asid)
	}
	if termLevel > paging.LevelPDPT {
		p.pdpte.put(uint64(va)>>30, asid)
	}
	if termLevel > paging.LevelPD {
		p.pde.put(uint64(va)>>21, asid)
	}
}

// Flush drops all cached paging-structure entries (CR3 write / INVLPG
// side effects).
func (p *PSC) Flush() {
	p.pml4e.flush(false)
	p.pdpte.flush(false)
	p.pde.flush(false)
}

// EntryCount returns the number of valid PSC entries.
func (p *PSC) EntryCount() int {
	return p.pml4e.count() + p.pdpte.count() + p.pde.count()
}

// PSCSnapshot is the full replayable paging-structure-cache state.
type PSCSnapshot struct {
	pml4e, pdpte, pde cacheSnapshot
	enabled           bool
}

// Snapshot captures all three per-level caches plus the Enabled gate.
func (p *PSC) Snapshot() PSCSnapshot {
	return PSCSnapshot{
		pml4e:   p.pml4e.snapshot(),
		pdpte:   p.pdpte.snapshot(),
		pde:     p.pde.snapshot(),
		enabled: p.Enabled,
	}
}

// Restore rewinds the PSC to a snapshot.
func (p *PSC) Restore(s PSCSnapshot) {
	p.pml4e.restore(s.pml4e)
	p.pdpte.restore(s.pdpte)
	p.pde.restore(s.pde)
	p.Enabled = s.enabled
}
