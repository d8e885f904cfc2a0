// Package machine composes the simulator: page tables, TLB and
// paging-structure caches, the PTE-line cache, the microcode-assist model
// and the per-CPU timing preset, behind the interface an unprivileged
// attacker program has — execute instructions, read a cycle counter.
//
// The attacks in internal/core use only the attacker-visible surface:
// Measure* (timed execution of one masked op, like an lfence;rdtsc bracket),
// EvictTLB/EvictPTELines (attacker-constructed eviction sets), the mmap-like
// user-mapping calls, and Syscall. The OS builders (internal/linux,
// internal/winkernel, internal/sgx) and the experiment harness additionally
// use the privileged surface (direct address-space construction, KernelTouch,
// performance counters) that models the victim side.
package machine

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/avx"
	"repro/internal/fault"
	"repro/internal/paging"
	"repro/internal/perf"
	"repro/internal/phys"
	"repro/internal/ptecache"
	"repro/internal/rng"
	"repro/internal/tlb"
	"repro/internal/uarch"
)

// DefaultPhysMem is the physical memory given to a machine (enough for all
// experiment layouts; page-table frames dominate).
const DefaultPhysMem = 8 << 30

// Machine is one simulated CPU + memory subsystem running one victim OS
// image and one attacker process.
type Machine struct {
	Preset *uarch.Preset
	Alloc  *phys.Allocator

	// KernelAS is the full kernel view of the address space. UserAS is the
	// page-table root active while the attacker (CPL 3) runs: identical to
	// KernelAS without KPTI, a stripped shadow with KPTI.
	KernelAS *paging.AddressSpace
	UserAS   *paging.AddressSpace

	TLB      *tlb.TLB
	PSC      *tlb.PSC
	PTELines *ptecache.Cache
	Counters perf.Counters

	// InEnclave applies the SGX per-probe overhead when true.
	InEnclave bool

	// Faults is the fault plan of the job attempt running on the machine
	// (nil = no injection). Fire draws from it at the designated failure
	// sites — boot, calibrate, restore, probe. The service layer installs
	// the attempt's plan and clears it afterwards; Clone and Rebind never
	// propagate it, so pooled worker replicas (which run on engine
	// goroutines) draw nothing and the sharded hot path pays nothing but
	// this nil field.
	Faults *fault.Plan

	tsc  uint64
	seed uint64
	// noise is the measurement-noise stream Measure draws from. ownNoise is
	// the machine's own source backing it; SwapNoise can temporarily point
	// noise at a caller-owned stream (the fused user scan drives separate
	// load and store streams per chunk) without disturbing ownNoise.
	noise    *rng.Source
	ownNoise rng.Source
	// frames is the write shadow of user memory: one entry per written
	// frame, sorted by PFN (binary search on the data-movement path); a
	// frame with no entry reads as zeros. It grows with the number of
	// frames written, not with the highest PFN, so an idle machine carries
	// nothing and one write to a high frame costs one frame. A store that
	// leaves a frame's bytes as they are creates no entry (see moveData),
	// and a frame no address space maps any more is dropped (see
	// UnmapUser). Frames are copy-on-write: a frame may be shared with
	// snapshots and with other machines that adopted one, and is then
	// immutable; only a frame the machine owns is written in place (see
	// frameData).
	frames []userFrame

	visitBuf []phys.PFN
	// evictWalk is the hoisted eviction walk of MeasureEvictedBatch, held
	// across a VA's samples while ExecMasked walks into its own scratch.
	evictWalk paging.Walk
	// touchBuf backs KernelTouch's victim-side walks. Victim events replayed
	// between attacker probes (behavior.Driver.ReplayWindow fires hundreds
	// per spy window) must not share visitBuf: the walk scratch is owned by
	// the machine the events run on, so every worker replica replays with
	// its own buffer and the temporal hot path stays allocation-free.
	touchBuf []phys.PFN
	// walkBufs back visitBuf, touchBuf and evictWalk.Visited (a walk
	// visits at most four frames). They live inside the machine, so they
	// sit on its own cache lines, never beside another machine's scratch
	// that a concurrent probe writes.
	walkBufs [3][4]phys.PFN
	elemBuf  [8]uint32

	// Per-call scratch state of ExecMasked: the page translations of the
	// current op (at most two pages, each walking into its own frames
	// array) plus the moved-element buffer, reused across calls so the
	// probing hot path is allocation-free. stateFn and dirtyFn are built
	// once (in initHotPath) because constructing a closure per ExecMasked
	// call would itself allocate.
	scratchVA    [2]paging.VirtAddr
	scratchPI    [2]pageInfo
	scratchWalks [2][4]phys.PFN
	scratchN     int
	movedBuf     [8]int
	stateFn      func(paging.VirtAddr) avx.PageState
	dirtyFn      func(paging.VirtAddr) bool
	// repeatMiss records that the last execution was of a single page
	// whose translation missed both TLB levels and filled neither: the
	// condition of the repeat-probe rule (see exec).
	repeatMiss bool
}

// New creates a machine with the given preset and deterministic seed.
// The machine starts with a single (non-KPTI) empty address space; OS
// builders replace the address spaces with their layouts.
func New(p *uarch.Preset, seed uint64) *Machine {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	alloc := phys.NewAllocator(DefaultPhysMem)
	as := paging.NewAddressSpace(alloc)
	m := &Machine{
		Preset:   p,
		Alloc:    alloc,
		KernelAS: as,
		UserAS:   as,
		TLB:      tlb.NewTLB(tlb.DefaultTLBConfig()),
		PSC:      tlb.NewPSC(),
		PTELines: ptecache.New(1024, 8),
		seed:     seed,
	}
	m.ownNoise.Reseed(seed)
	m.noise = &m.ownNoise
	m.initHotPath()
	return m
}

// Seed returns the seed the machine's noise stream was created with.
func (m *Machine) Seed() uint64 { return m.seed }

// initHotPath points the walk scratch at the machine's own arrays and
// builds the closures ExecMasked hands to avx.Evaluate. The closures read
// the per-op scratch translations off the machine, so they are built once
// per machine instead of once per instruction (a per-call closure would
// allocate on every probe).
func (m *Machine) initHotPath() {
	for i := range m.scratchPI {
		m.scratchPI[i].walk.Visited = m.scratchWalks[i][:0]
	}
	m.visitBuf = m.walkBufs[0][:0]
	m.touchBuf = m.walkBufs[1][:0]
	m.evictWalk.Visited = m.walkBufs[2][:0]
	m.stateFn = func(page paging.VirtAddr) avx.PageState {
		return walkState(&m.scratchWalk(page).walk)
	}
	m.dirtyFn = func(page paging.VirtAddr) bool {
		w := &m.scratchWalk(page).walk
		return w.Mapped && !w.Dirty
	}
}

// walkState maps a walk result to the page state the masked-op semantics
// consume (shared by the evaluation closures and assistCost).
func walkState(w *paging.Walk) avx.PageState {
	return avx.PageState{
		Mapped:   w.Mapped,
		Writable: w.Flags.Has(paging.Writable),
		UserOK:   w.Flags.Has(paging.User),
	}
}

// scratchWalk returns the scratch translation of one of the current op's
// pages (filled by ExecMasked before evaluation).
func (m *Machine) scratchWalk(page paging.VirtAddr) *pageInfo {
	if m.scratchN > 1 && m.scratchVA[1] == page {
		return &m.scratchPI[1]
	}
	return &m.scratchPI[0]
}

// Clone creates a worker replica for parallel scanning: it shares the
// (immutable-during-scan) kernel and user address spaces, the physical
// allocator and the preset with the parent, while the attacker-local
// microarchitectural state — TLB, paging-structure caches, PTE-line cache,
// performance counters, noise stream and clock — is fresh and private, so
// replicas can probe concurrently without contending on shared mutable
// state.
//
// A clone is a read-only view of the address space: address-space mutations
// (MapUser, UnmapUser, ProtectUser, data-moving masked ops) must not run on
// any machine sharing the spaces while clones are probing.
func (m *Machine) Clone(noiseSeed uint64) *Machine {
	c := &Machine{
		Preset:    m.Preset,
		Alloc:     m.Alloc,
		KernelAS:  m.KernelAS,
		UserAS:    m.UserAS,
		TLB:       tlb.NewTLB(m.TLB.Config()),
		PSC:       tlb.NewPSC(),
		PTELines:  ptecache.New(m.PTELines.Sets(), m.PTELines.Ways()),
		InEnclave: m.InEnclave,
		tsc:       m.tsc,
		seed:      noiseSeed,
	}
	c.ownNoise.Reseed(noiseSeed)
	c.noise = &c.ownNoise
	c.PSC.Enabled = m.PSC.Enabled
	c.initHotPath()
	return c
}

// Rebind retargets a pooled worker replica at parent's current state so a
// persistent pool can reuse it across scans — and across victims within a
// session — without paying Clone's allocation cost again. The replica's
// TLB, paging-structure and PTE-line caches are flushed and reused in place
// when their geometry matches the parent's (the common case: one preset per
// session) and only rebuilt on a geometry change; counters, the write
// shadow and the clock are reset to the parent's view. The noise stream is
// left alone: the scan engine reseeds it per chunk before any probe, which
// is what makes pooled output bit-identical to fresh-worker output.
func (m *Machine) Rebind(parent *Machine) {
	m.Preset = parent.Preset
	m.Alloc = parent.Alloc
	m.KernelAS = parent.KernelAS
	m.UserAS = parent.UserAS
	m.InEnclave = parent.InEnclave
	m.tsc = parent.tsc
	if m.TLB.Config() != parent.TLB.Config() {
		m.TLB = tlb.NewTLB(parent.TLB.Config())
	} else {
		m.TLB.Flush(false)
	}
	m.PSC.Flush()
	m.PSC.Enabled = parent.PSC.Enabled
	if m.PTELines.Sets() != parent.PTELines.Sets() || m.PTELines.Ways() != parent.PTELines.Ways() {
		m.PTELines = ptecache.New(parent.PTELines.Sets(), parent.PTELines.Ways())
	} else {
		m.PTELines.Flush()
	}
	m.Counters.Reset()
	m.dropFrames()
}

// Unbind drops a pooled replica's references to its parent's victim state
// (address spaces, allocator, write shadow) while it sits idle between
// scans, so a discarded victim's page tables and memory image are not
// pinned for the rest of the session. The next Rebind restores every
// dropped reference; an unbound machine must not execute anything.
func (m *Machine) Unbind() {
	m.KernelAS = nil
	m.UserAS = nil
	m.Alloc = nil
	m.dropFrames()
}

// ReseedNoise restarts the measurement-noise stream from seed, in place and
// allocation-free. The scan engine reseeds per VA chunk so a chunk's
// measurements depend only on the chunk, not on which worker ran it or in
// what order. If a caller-owned stream was installed with SwapNoise, the
// machine's own stream is restored first.
func (m *Machine) ReseedNoise(seed uint64) {
	m.ownNoise.Reseed(seed)
	m.noise = &m.ownNoise
}

// SwapNoise installs src as the measurement-noise stream and returns the
// previously installed one. Callers that interleave several deterministic
// streams within one chunk (the fused user scan draws load and store noise
// from separate per-chunk streams so its measurements replicate regardless
// of how many pages each sub-pass probes) swap their own sources in and out
// around each sub-probe; the machine's own stream is untouched and comes
// back on the next ReseedNoise.
func (m *Machine) SwapNoise(src *rng.Source) *rng.Source {
	old := m.noise
	m.noise = src
	return old
}

// Snapshot is the full replayable state of a machine at one instant: the
// execution state (clock, own-noise-stream position, performance-counter
// bank, enclave mode) plus the mutable victim-visible state — the contents
// of the TLB, the paging-structure caches and the PTE-line cache, and the
// write shadow of every user frame written since boot and still mapped
// (the address-space data delta). Page-table *structure* is deliberately
// not copied; instead the snapshot records the address spaces' mutation
// versions, and Restore refuses to apply once the tables have changed — so
// everything replayed after a Restore is a pure function of (victim image,
// snapshot, seed), never of what ran in between.
//
// The write shadow is held by reference, not copied: a snapshot points at
// the machine's frames, and a frame is immutable from the moment it is
// shared. Snapshots, session checkpoints, cached calibrations and every
// machine that adopted one share each unchanged frame; the first write to
// a shared frame copies that one frame (see frameData). A snapshot is
// therefore never changed by anything the machine does afterwards, and any
// number of machines may adopt one concurrently.
//
// A snapshot taken on machine A applies to any machine whose memory image
// is bit-identical to A's: that is what lets a service session skip
// re-running calibration on a freshly booted replica of a known victim, and
// what lets a stateful session (the §IV-E behavior spy's victim timeline)
// carry its position across jobs and still produce bit-identical traces.
type Snapshot struct {
	tsc       uint64
	noise     rng.Source
	counters  perf.Counters
	inEnclave bool

	tlb      tlb.Snapshot
	psc      tlb.PSCSnapshot
	pteLines ptecache.Snapshot
	frames   []frameRef

	kernelVer, userVer uint64
}

// frameRef is one written user frame a snapshot shares.
type frameRef struct {
	pfn  phys.PFN
	data *[phys.FrameSize]byte
}

// userFrame is one entry of a machine's write shadow: a written frame and
// whether the machine owns it (may write it in place) or shares it.
type userFrame struct {
	frameRef
	owned bool
}

// zeroFrame is what a read of a never-written frame sees. It is never
// written: frameData always hands out a frame of the machine's own.
var zeroFrame [phys.FrameSize]byte

// Snapshot captures the machine's replayable state. Pair with Restore to
// rewind a long-lived session machine to a saved point (post-calibration,
// end of the previous behavior-spy window) between jobs.
//
// Snapshot writes to the machine: it shares every written frame with the
// snapshot and marks it no longer owned, so the machine's next write to a
// frame copies it first. Its cost is one frame reference per written
// frame, whatever the frames hold.
func (m *Machine) Snapshot() Snapshot {
	s := Snapshot{
		tsc:       m.tsc,
		noise:     m.ownNoise,
		counters:  m.Counters.Snapshot(),
		inEnclave: m.InEnclave,
		tlb:       m.TLB.Snapshot(),
		psc:       m.PSC.Snapshot(),
		pteLines:  m.PTELines.Snapshot(),
		kernelVer: m.KernelAS.Version(),
		userVer:   m.UserAS.Version(),
	}
	if len(m.frames) > 0 {
		s.frames = make([]frameRef, len(m.frames))
		for i := range m.frames {
			m.frames[i].owned = false
			s.frames[i] = m.frames[i].frameRef
		}
	}
	return s
}

// Restore rewinds the machine to a snapshot taken on this machine (or on a
// machine whose memory image is bit-identical): the clock, noise stream,
// counter bank, translation-cache contents and user write shadow are all
// set back exactly. It fails if the page tables have been structurally
// mutated (map/unmap/protect or A/D-bit updates) since the snapshot — the
// one class of state a snapshot does not carry; probe-only attacks never
// trip it. The write shadow is rewound by re-pointing it at the
// snapshot's shared frames (see Adopt), so no frame is copied.
func (m *Machine) Restore(s Snapshot) error {
	if err := m.Fire(fault.Restore); err != nil {
		return err
	}
	if kv := m.KernelAS.Version(); kv != s.kernelVer {
		return fmt.Errorf("machine: kernel address space mutated since snapshot (version %d, snapshot %d)", kv, s.kernelVer)
	}
	if uv := m.UserAS.Version(); uv != s.userVer {
		return fmt.Errorf("machine: user address space mutated since snapshot (version %d, snapshot %d)", uv, s.userVer)
	}
	m.Adopt(s)
	return nil
}

// Adopt applies a snapshot without the page-table version check: the
// cross-machine form of Restore, for adopting a snapshot taken on a
// *different* machine whose attack-observable memory image this machine
// reproduces (a fresh boot of the same victim configuration replaying a
// cached calibration). The caller asserts image equivalence; on the same
// machine, prefer Restore, which verifies it.
//
// The machine's write shadow is re-pointed at the snapshot's frames, which
// it then shares but does not own: the snapshot is only read, so machines
// on different goroutines may adopt one snapshot at the same time, and
// each copies a frame only when it first writes to it. The cost is a
// pointer write per frame the machine or the snapshot holds, and no frame
// copy.
func (m *Machine) Adopt(s Snapshot) {
	m.tsc = s.tsc
	m.ownNoise = s.noise
	m.noise = &m.ownNoise
	m.Counters = s.counters
	m.InEnclave = s.inEnclave
	m.TLB.Restore(s.tlb)
	m.PSC.Restore(s.psc)
	m.PTELines.Restore(s.pteLines)
	m.dropFrames()
	for _, f := range s.frames {
		m.frames = append(m.frames, userFrame{frameRef: f})
	}
}

// dropFrames empties the write shadow, keeping its slice for reuse.
func (m *Machine) dropFrames() {
	clear(m.frames)
	m.frames = m.frames[:0]
}

// Fire draws the next fault decision for site s from the machine's plan
// and returns the injected fault as an error, or nil. With no plan
// installed — every machine outside a fault-injected service run, and
// every cloned or rebound worker replica — it is a nil test and nothing
// more.
func (m *Machine) Fire(s fault.Site) error {
	if f := m.Faults.Fire(s); f != nil {
		return f
	}
	return nil
}

// ResetTranslationState empties the TLB, the paging-structure caches and
// the PTE-line cache without charging attacker time (a simulator-level
// reset, not an attack action). The scan engine resets per VA chunk so
// chunk results are independent of probe order. The reset clears one
// validity bitmap per cache set, so it costs O(sets), not O(entries), and
// the same on full and empty caches.
func (m *Machine) ResetTranslationState() {
	m.TLB.Flush(false)
	m.PSC.Flush()
	m.PTELines.Flush()
}

// InstallAddressSpaces sets the kernel and user address-space roots. For a
// non-KPTI system pass the same space twice.
func (m *Machine) InstallAddressSpaces(kernel, user *paging.AddressSpace) {
	m.KernelAS = kernel
	m.UserAS = user
	m.TLB.Flush(false)
	m.PSC.Flush()
}

// RDTSC returns the current simulated time-stamp counter.
func (m *Machine) RDTSC() uint64 { return m.tsc }

// AdvanceCycles moves simulated time forward (attacker think-time, sleeps).
func (m *Machine) AdvanceCycles(c uint64) { m.tsc += c }

// AdvanceSeconds moves simulated time forward by wall time.
func (m *Machine) AdvanceSeconds(s float64) {
	m.tsc += uint64(s * m.Preset.TSCGHz * 1e9)
}

// Seconds converts a cycle delta to seconds on this machine's clock.
func (m *Machine) Seconds(cycles uint64) float64 { return m.Preset.CyclesToSeconds(cycles) }

// Result is the outcome of executing one instruction.
type Result struct {
	// Cycles is the architectural latency of the instruction, without
	// measurement overhead or noise.
	Cycles float64
	// Faulted reports a delivered #PF (the attack failed to suppress).
	Faulted bool
	// Assist reports a microcode assist fired.
	Assist bool
	// TLBHit reports whether the first page's translation came from the
	// TLB (either level).
	TLBHit bool
	// Walked reports whether at least one page-table walk ran.
	Walked bool
	// TermLevel is the termination level of the first walk (LevelNone if
	// no walk ran).
	TermLevel paging.Level
	// Data holds the loaded elements of a masked load (masked-out
	// elements read as zero, matching VMASKMOV's zeroing semantics).
	Data [8]uint32
}

// pageInfo is the machine-level translation of one page for an access.
type pageInfo struct {
	walk   paging.Walk
	cycles float64
	tlbHit bool
	walked bool
	filled bool // the walk's translation was installed in the TLB
}

// translate resolves va through the TLB or a timed page-table walk on the
// address space as into pi, charging the preset's costs. Fills the TLB
// according to vendor rules. asUser marks an access performed while CPL 3
// (attacker).
//
// repeat asserts that pi holds the previous translation of va in as, that
// it missed both TLB levels and filled neither, and that nothing has added
// a TLB entry or changed a page table since. The lookup then misses again
// and the walk returns what it returned, so translate ticks the TLB clocks
// as a missing Lookup would and keeps pi.walk; the paging-structure-cache
// and PTE-line work, which the previous walk changed, is redone.
func (m *Machine) translate(as *paging.AddressSpace, va paging.VirtAddr, asUser, repeat bool, pi *pageInfo) {
	pi.cycles = 0
	pi.filled = false
	if repeat {
		m.TLB.RepeatMiss()
	} else if res, entry := m.TLB.Lookup(va, as.ASID); res != tlb.Miss {
		pi.tlbHit = true
		pi.walked = false
		if res == tlb.HitL2 {
			pi.cycles += m.Preset.STLBHitExtra
			m.Counters.Inc(perf.TLBHitL2)
		} else {
			m.Counters.Inc(perf.TLBHitL1)
		}
		// Synthesize the walk view from the cached entry.
		w := &pi.walk
		w.VA = va
		w.Mapped = true
		w.Flags = entry.Flags()
		w.Size = entry.Size()
		w.PFN = entry.PFN()
		w.Dirty = w.Flags.Has(paging.Dirty)
		w.TermLevel = w.Size.LeafLevel()
		w.Visited = w.Visited[:0]
		return
	}

	m.Counters.Inc(perf.TLBMiss)
	pi.tlbHit = false
	pi.walked = true
	w := &pi.walk
	if !repeat {
		as.TranslateTo(va, w)
	}

	// Paging-structure caches can skip the upper structures.
	startIdx := 0
	if lvl, ok := m.PSC.Lookup(va, as.ASID); ok {
		m.Counters.Inc(perf.PSCHit)
		// A PSC hit at level L means structures at and above L are
		// skipped; the walk resumes at the structure below L.
		startIdx = min(int(lvl), len(w.Visited)) // LevelPML4=1 skips Visited[0], etc.
	}
	lineMisses := 0
	for i := startIdx; i < len(w.Visited); i++ {
		idx := entryIndexAt(va, paging.Level(i+1))
		if !m.PTELines.Touch(w.Visited[i], idx) {
			lineMisses++
		}
	}

	walkCost := m.Preset.Walk.At(w.TermLevel) + float64(lineMisses)*m.Preset.PTELineMiss
	walkCost *= m.Preset.EPTWalkMult
	pi.cycles += walkCost

	m.PSC.Fill(va, w.TermLevel, as.ASID)

	// AMD Zen 3: user-mode probes of supervisor pages do not install TLB
	// entries (§IV-B).
	if w.Mapped && (!asUser || w.Flags.Has(paging.User) || m.Preset.KernelTLBFill) {
		m.TLB.Fill(va, w, as.ASID)
		pi.filled = true
	}
}

// entryIndexAt returns the paging-structure entry index va selects at a
// level (for PTE-line addressing).
func entryIndexAt(va paging.VirtAddr, l paging.Level) int {
	switch l {
	case paging.LevelPML4:
		return int(va>>39) & 0x1ff
	case paging.LevelPDPT:
		return int(va>>30) & 0x1ff
	case paging.LevelPD:
		return int(va>>21) & 0x1ff
	case paging.LevelPT:
		return int(va>>12) & 0x1ff
	}
	return 0
}

// walkCounterFor returns the perf event for a completed walk of the access
// kind.
func walkCounterFor(store bool) perf.Event {
	if store {
		return perf.WalkCompletedStore
	}
	return perf.WalkCompletedLoad
}

// ExecMasked executes one AVX masked load/store as the attacker (CPL 3,
// user page-table root). This is the instruction the side channel is built
// on; its latency composition follows §III of the paper.
func (m *Machine) ExecMasked(op avx.Op) Result {
	var r Result
	m.exec(op, &r, false)
	return r
}

// exec is ExecMasked writing its result into r: the one executor under
// ExecMasked, MeasureBatch and MeasureEvictedBatch.
//
// again asserts that the previous execution on this machine was of the
// same op and that nothing has since added a TLB entry or changed a page
// table (batch.go states when that holds). If that execution was of a
// single page whose translation missed both TLB levels and filled
// neither, this one must miss again with the same walk, and translate
// takes its repeat path.
func (m *Machine) exec(op avx.Op, r *Result, again bool) {
	*r = Result{TermLevel: paging.LevelNone}
	if op.Store {
		r.Cycles = m.Preset.MaskedStoreBase
	} else {
		r.Cycles = m.Preset.MaskedLoadBase
	}

	first, last := op.PageSpan()
	m.scratchVA[0] = first
	m.scratchN = 1
	if last != first {
		m.scratchVA[1] = last
		m.scratchN = 2
	}
	repeat := again && m.repeatMiss
	for i := 0; i < m.scratchN; i++ {
		pi := &m.scratchPI[i]
		m.translate(m.UserAS, m.scratchVA[i], true, repeat, pi)
		r.Cycles += pi.cycles
		if pi.walked {
			m.Counters.Inc(walkCounterFor(op.Store))
			r.Walked = true
		}
		if i == 0 {
			r.TLBHit = pi.tlbHit
			if pi.walked {
				r.TermLevel = pi.walk.TermLevel
			}
		}
	}
	pi := &m.scratchPI[0]
	m.repeatMiss = m.scratchN == 1 && pi.walked && !pi.filled

	if op.Mask == 0 && m.scratchN == 1 {
		// Fast path for the probing workhorse: an all-suppressed op on a
		// single page never faults and moves no data, so the full masked-op
		// evaluation (per-element mask/page intersection through the
		// Evaluate closures) collapses to one page-state check. The
		// outcome — suppressed-fault count, assist kind, counters, cost —
		// is exactly what Evaluate+assistCost produce for this shape.
		if !walkState(&pi.walk).Accessible(op.Store) {
			m.Counters.Add(perf.FaultSuppressed, uint64(op.NumElems()))
			r.Assist = true
			m.Counters.Inc(perf.AssistsAny)
			if op.Store {
				r.Cycles += m.Preset.AssistStore
			} else {
				r.Cycles += m.Preset.AssistLoad
			}
		}
	} else {
		out := avx.Evaluate(op, m.stateFn, m.dirtyFn, m.movedBuf[:0])
		if out.Suppressed > 0 {
			m.Counters.Add(perf.FaultSuppressed, uint64(out.Suppressed))
		}
		if out.Assist {
			r.Assist = true
			m.Counters.Inc(perf.AssistsAny)
			if out.Fault {
				// The assist resolves into a delivered fault.
				r.Faulted = true
				m.Counters.Inc(perf.PageFault)
				r.Cycles += m.Preset.FaultCost
			} else {
				r.Cycles += m.assistCost(op)
			}
		}

		// Perform the architectural data movement and A/D updates for the
		// elements that actually moved.
		if !r.Faulted && len(out.MovedElems) > 0 {
			m.moveData(op, out.MovedElems, r)
		}
	}
	if m.InEnclave {
		r.Cycles += m.Preset.SGXProbeOverhead
	}
	m.tsc += uint64(r.Cycles)
}

// assistCost decides which assist penalty applies: the dirty-bit assist
// for a store whose only problem is a clean destination page, otherwise
// the invalid/inaccessible-page assist of the access kind. It reads the
// scratch translations ExecMasked filled for the current op.
func (m *Machine) assistCost(op avx.Op) float64 {
	badPage := false
	for i := 0; i < m.scratchN; i++ {
		if !walkState(&m.scratchPI[i].walk).Accessible(op.Store) {
			badPage = true
		}
	}
	if !badPage && op.Store {
		m.Counters.Inc(perf.DirtyAssist)
		return m.Preset.AssistDirty
	}
	if op.Store {
		return m.Preset.AssistStore
	}
	return m.Preset.AssistLoad
}

// moveData copies element data between the vector register and backing
// memory for the moved elements, and performs the A/D-bit updates. The
// elements of an op cover at most two pages in address order, so each page
// is walked and marked once, when its first element moves (marking a page
// again changes no bit). A stored element equal to the bytes already in
// memory changes nothing, so it touches no frame: a store of zeros to a
// never-written page allocates nothing.
func (m *Machine) moveData(op avx.Op, moved []int, r *Result) {
	var w paging.Walk
	havePage := false
	for _, i := range moved {
		ea := op.ElemAddr(i)
		page := paging.PageBase(ea, paging.Page4K)
		if !havePage || page != w.VA {
			w = m.UserAS.Translate(page, m.visitBuf)
			m.visitBuf = w.Visited
			havePage = true
			if w.Mapped {
				m.UserAS.MarkAccess(page, op.Store)
				if m.UserAS != m.KernelAS {
					// Leaf frames are shared between the KPTI views; keep
					// the kernel view's A/D bits coherent for user pages it
					// also maps.
					_ = m.KernelAS.MarkAccess(page, op.Store)
				}
			}
		}
		if !w.Mapped {
			continue
		}
		off := uint64(ea) & (phys.FrameSize - 1)
		if int(off)+int(op.Elem) > phys.FrameSize {
			continue // straddling element's tail page handled separately
		}
		if op.Store {
			if v := m.elemBuf[i]; getLE32(m.frameRead(w.PFN)[off:]) != v {
				putLE32(m.frameData(w.PFN)[off:], v)
			}
		} else {
			r.Data[i] = getLE32(m.frameRead(w.PFN)[off:])
		}
	}
	if op.Store {
		// Refresh cached dirty state so subsequent stores are assist-free.
		first, last := op.PageSpan()
		for page := first; ; page += paging.Page4K {
			w := m.UserAS.Translate(page, m.visitBuf)
			m.visitBuf = w.Visited
			if w.Mapped {
				m.refreshTLBFlags(page, &w)
			}
			if page == last {
				break
			}
		}
	}
}

// refreshTLBFlags updates any cached TLB entry's flags after an A/D change.
func (m *Machine) refreshTLBFlags(page paging.VirtAddr, w *paging.Walk) {
	if res, e := m.TLB.Lookup(page, m.UserAS.ASID); res != tlb.Miss {
		e.SetFlags(w.Flags)
	}
}

// SetVector loads the source register used by subsequent masked stores.
func (m *Machine) SetVector(vals [8]uint32) { m.elemBuf = vals }

// frameData returns the byte backing of a user frame for writing. A frame
// the machine does not own — never written, or shared with a snapshot — is
// first replaced by a private copy (zeros for a never-written frame), so a
// write copies at most this one frame and never reaches a shared one.
func (m *Machine) frameData(pfn phys.PFN) *[phys.FrameSize]byte {
	i, found := m.findFrame(pfn)
	if !found {
		f := userFrame{frameRef: frameRef{pfn: pfn, data: new([phys.FrameSize]byte)}, owned: true}
		m.frames = slices.Insert(m.frames, i, f)
	} else if f := &m.frames[i]; !f.owned {
		b := new([phys.FrameSize]byte)
		*b = *f.data
		f.data, f.owned = b, true
	}
	return m.frames[i].data
}

// frameRead returns the byte backing of a user frame for reading: the
// frame itself, shared or owned, or the shared zero frame for one never
// written. It allocates nothing, and its result must not be written.
func (m *Machine) frameRead(pfn phys.PFN) *[phys.FrameSize]byte {
	if i, found := m.findFrame(pfn); found {
		return m.frames[i].data
	}
	return &zeroFrame
}

// findFrame returns the position of pfn in the write shadow, or where it
// would be inserted, and whether it is there.
func (m *Machine) findFrame(pfn phys.PFN) (int, bool) {
	return slices.BinarySearchFunc(m.frames, pfn, func(f userFrame, pfn phys.PFN) int {
		return cmp.Compare(f.pfn, pfn)
	})
}

// ReadUser reads n bytes of user memory at va (test/diagnostic helper;
// bypasses timing).
func (m *Machine) ReadUser(va paging.VirtAddr, n int) ([]byte, error) {
	out := make([]byte, 0, n)
	for n > 0 {
		page := paging.PageBase(va, paging.Page4K)
		w := m.UserAS.Translate(page, m.visitBuf)
		m.visitBuf = w.Visited
		if !w.Mapped || !w.Flags.Has(paging.User) {
			return nil, fmt.Errorf("machine: read of unmapped user address %#x", uint64(va))
		}
		buf := m.frameRead(w.PFN)
		off := int(uint64(va) & (phys.FrameSize - 1))
		take := phys.FrameSize - off
		if take > n {
			take = n
		}
		out = append(out, buf[off:off+take]...)
		va += paging.VirtAddr(take)
		n -= take
	}
	return out, nil
}

// WriteUser writes bytes into user memory at va (test/diagnostic helper).
func (m *Machine) WriteUser(va paging.VirtAddr, data []byte) error {
	for len(data) > 0 {
		page := paging.PageBase(va, paging.Page4K)
		w := m.UserAS.Translate(page, m.visitBuf)
		m.visitBuf = w.Visited
		if !w.Mapped || !w.Flags.Has(paging.User) {
			return fmt.Errorf("machine: write of unmapped user address %#x", uint64(va))
		}
		buf := m.frameData(w.PFN)
		off := int(uint64(va) & (phys.FrameSize - 1))
		take := phys.FrameSize - off
		if take > len(data) {
			take = len(data)
		}
		copy(buf[off:off+take], data[:take])
		va += paging.VirtAddr(take)
		data = data[take:]
	}
	return nil
}

// Measure executes op bracketed by serializing timestamp reads and returns
// the measured cycle count: architectural latency + fence overhead +
// jitter (+ a rare interrupt spike). This is exactly what the PoC's
// lfence;rdtsc;op;lfence;rdtsc loop yields.
func (m *Machine) Measure(op avx.Op) (float64, Result) {
	r := m.ExecMasked(op)
	return m.measured(r.Cycles), r
}

// measured is the one step that turns an execution's architectural cycles
// into a timed sample, shared by Measure, MeasurePrefetch and the batched
// probes: fence overhead plus measurement noise (a rare interrupt spike
// also stalls the clock), clamped at zero, with the lfence;rdtsc bracket
// and loop overhead charged to the attacker's clock.
func (m *Machine) measured(cycles float64) float64 {
	meas := cycles + m.Preset.FenceOverhead + m.noiseSample()
	if meas < 0 {
		meas = 0
	}
	m.tsc += uint64(m.Preset.FenceOverhead + m.Preset.LoopOverhead)
	return meas
}

// noiseSample draws one measurement-noise value.
func (m *Machine) noiseSample() float64 {
	n := m.noise.Normal(0, m.Preset.NoiseSigma+m.Preset.ExtraNoiseSigma)
	if m.noise.Bool(m.Preset.OutlierProb) {
		spike := m.noise.Pareto(m.Preset.OutlierScale, 1.7)
		n += spike
		m.tsc += uint64(spike)
	}
	return n
}

// ExecPrefetch executes a software-prefetch probe (the Gruss et al. 2016
// baseline): it never faults, and its latency reflects translation state
// only (no masked-op assist).
func (m *Machine) ExecPrefetch(va paging.VirtAddr) Result {
	var r Result
	r.Cycles = m.Preset.ScalarBase
	pi := &m.scratchPI[0]
	m.translate(m.UserAS, paging.PageBase(va, paging.Page4K), true, false, pi)
	r.Cycles += pi.cycles
	r.TLBHit = pi.tlbHit
	r.Walked = pi.walked
	if pi.walked {
		m.Counters.Inc(perf.WalkCompletedLoad)
		r.TermLevel = pi.walk.TermLevel
	}
	m.tsc += uint64(r.Cycles)
	return r
}

// MeasurePrefetch is Measure for the prefetch baseline.
func (m *Machine) MeasurePrefetch(va paging.VirtAddr) float64 {
	return m.measured(m.ExecPrefetch(va).Cycles)
}

// TSX abort-latency constants (relative to the preset's scalar base); the
// DrK baseline distinguishes mapped from unmapped kernel pages by abort
// time.
const (
	tsxAbortBase       = 170
	tsxAbortUnmapAdder = 40
)

// ExecTSXProbe models a DrK-style Intel TSX probe: access va inside a
// transaction; the #PF becomes a transactional abort whose latency depends
// on the translation outcome. Returns measured abort cycles.
func (m *Machine) ExecTSXProbe(va paging.VirtAddr) float64 {
	pi := &m.scratchPI[0]
	m.translate(m.UserAS, paging.PageBase(va, paging.Page4K), true, false, pi)
	if pi.walked {
		m.Counters.Inc(perf.WalkCompletedLoad)
	}
	c := float64(tsxAbortBase) + pi.cycles
	if !pi.walk.Mapped {
		c += tsxAbortUnmapAdder
	}
	c += m.noiseSample()
	m.tsc += uint64(c + m.Preset.LoopOverhead)
	return c
}

// EvictTLB models the attacker's TLB eviction: a sweep over a large
// eviction buffer that displaces every TLB and paging-structure-cache
// entry. The sweep's cost is charged to the attacker's clock.
func (m *Machine) EvictTLB() {
	m.TLB.Flush(false) // a full eviction displaces global entries too
	m.PSC.Flush()
	// ~2000 loads over the eviction buffer at L2-ish latency.
	m.tsc += uint64(2000 * 14)
}

// EvictTranslation models a *targeted* eviction of one address's
// translation state: the attacker accesses a small conflict set that
// displaces va's TLB sets, the paging-structure-cache entries covering its
// region, and the cache lines its walk reads. Much cheaper than a full
// sweep (~a dozen conflicting loads), it is what makes the AMD per-probe
// eviction affordable (§IV-B's 1.91 ms probing).
func (m *Machine) EvictTranslation(va paging.VirtAddr) {
	// Reuse the machine's walk scratch buffer: the AMD term-level sweep
	// issues one targeted eviction per sample, and a per-call Visited
	// allocation here dominated that sweep's host cost.
	w := m.UserAS.Translate(paging.PageBase(va, paging.Page4K), m.visitBuf)
	m.visitBuf = w.Visited
	m.evictWalkLines(va, w.Visited)
}

// evictWalkLines is the mutation-and-cost half of EvictTranslation: it
// displaces va's TLB and paging-structure-cache state plus the cache lines
// of the given walk frames, and charges the attacker's conflict-set loads.
// The walk itself is the caller's: MeasureEvictedBatch hoists it out of the
// per-sample loop (the walk is a pure read of the address space, so one
// walk serves every sample of a VA).
func (m *Machine) evictWalkLines(va paging.VirtAddr, visited []phys.PFN) {
	m.TLB.Invalidate(va)
	m.PSC.Flush()
	for i, frame := range visited {
		idx := entryIndexAt(va, paging.Level(i+1))
		m.PTELines.Evict(frame, idx)
	}
	// ~24 conflicting loads at L2-ish latency plus set-index arithmetic.
	m.tsc += uint64(24*14 + 60)
}

// EvictPTELines models eviction of page-table data from the cache
// hierarchy (a larger sweep; needed by the TLB-state experiment and the
// AMD attack).
func (m *Machine) EvictPTELines() {
	m.PTELines.Flush()
	m.tsc += uint64(8000)
}

// InvlpgAll models privileged INVLPG over a VA set — only the experiment
// harness uses it (the paper loads an LKM for the level experiment).
func (m *Machine) InvlpgAll(vas []paging.VirtAddr) {
	for _, va := range vas {
		m.TLB.Invalidate(va)
	}
	m.PSC.Flush()
}

// KernelTouch simulates the kernel accessing its own pages (syscall
// handling, module code executing): translations are installed in the TLB
// under the kernel root, which is what the TLB attack observes.
func (m *Machine) KernelTouch(vas ...paging.VirtAddr) {
	for _, va := range vas {
		page := paging.PageBase(va, paging.Page4K)
		w := m.KernelAS.Translate(page, m.touchBuf)
		m.touchBuf = w.Visited
		if !w.Mapped {
			continue
		}
		m.TLB.Fill(page, &w, m.KernelAS.ASID)
	}
}

// Syscall charges one kernel entry/exit and touches the given kernel
// addresses (the kernel text the handler runs through).
func (m *Machine) Syscall(touch ...paging.VirtAddr) {
	m.tsc += uint64(m.Preset.SyscallCost)
	m.KernelTouch(touch...)
}

// MapUser maps length bytes of fresh user memory at va with the given
// permission flags (mmap model): pages are User|Present plus flags, with
// clean (non-dirty) leaf entries. Charged as one syscall.
func (m *Machine) MapUser(va paging.VirtAddr, length uint64, flags paging.Flags) error {
	m.tsc += uint64(m.Preset.SyscallCost)
	_, err := m.UserAS.MapRange(va, length, paging.Page4K, flags|paging.User)
	return err
}

// UnmapUser unmaps length bytes at va (munmap model) and shoots down the
// TLB the way the OS would.
func (m *Machine) UnmapUser(va paging.VirtAddr, length uint64) error {
	m.tsc += uint64(m.Preset.SyscallCost)
	for off := uint64(0); off < length; off += phys.FrameSize {
		page := va + paging.VirtAddr(off)
		m.dropUnmappedFrame(page)
		if err := m.UserAS.Unmap(page); err != nil {
			return err
		}
		m.TLB.Invalidate(page)
	}
	return nil
}

// dropUnmappedFrame drops the write-shadow frame of the user page at va,
// which is about to be unmapped, unless the KPTI kernel view maps the same
// frame there too. Every mapping takes fresh frames from the bump
// allocator, which never hands a PFN out twice, so once no view maps the
// frame nothing can read it again; keeping it would only pin its bytes in
// every later snapshot.
func (m *Machine) dropUnmappedFrame(va paging.VirtAddr) {
	if len(m.frames) == 0 {
		return // nothing to drop: spare the walks
	}
	w := m.UserAS.Translate(va, m.visitBuf)
	m.visitBuf = w.Visited
	if !w.Mapped {
		return
	}
	if m.UserAS != m.KernelAS {
		kw := m.KernelAS.Translate(va, m.visitBuf)
		m.visitBuf = kw.Visited
		if kw.Mapped && kw.PFN == w.PFN {
			return
		}
	}
	if i, found := m.findFrame(w.PFN); found {
		m.frames = slices.Delete(m.frames, i, i+1)
	}
}

// ProtectUser changes user page permissions (mprotect model).
func (m *Machine) ProtectUser(va paging.VirtAddr, length uint64, flags paging.Flags) error {
	m.tsc += uint64(m.Preset.SyscallCost)
	for off := uint64(0); off < length; off += phys.FrameSize {
		if err := m.UserAS.Protect(va+paging.VirtAddr(off), flags|paging.User); err != nil {
			return err
		}
		m.TLB.Invalidate(va + paging.VirtAddr(off))
	}
	return nil
}

func putLE32(b []byte, v uint32) {
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
}

func getLE32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}
