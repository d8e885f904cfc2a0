package tlb

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"repro/internal/paging"
	"repro/internal/phys"
)

// diffCache reports the first way where the bitmap cache and the
// reference model disagree — on validity, on any field of a valid entry
// (LRU stamp included) or on the LRU clock — or "" when they agree.
func diffCache(name string, got *setAssoc, want *refSetAssoc) string {
	if got.clock != want.clock {
		return fmt.Sprintf("%s: clock %d, want %d", name, got.clock, want.clock)
	}
	for si, set := range want.sets {
		for w, re := range set {
			valid := got.live[si]&(1<<w) != 0
			if valid != re.valid {
				return fmt.Sprintf("%s: set %d way %d valid=%v, want %v", name, si, w, valid, re.valid)
			}
			if !valid {
				continue
			}
			if i := si*got.ways + w; got.entries[i] != re.Entry || got.stamps[i] != re.lru {
				return fmt.Sprintf("%s: set %d way %d holds %+v (lru %d), want %+v (lru %d)",
					name, si, w, got.entries[i], got.stamps[i], re.Entry, re.lru)
			}
		}
	}
	return ""
}

// diffDerived recounts the valid ways of a cache and reports where its
// derived index — the per-page-size entry counts lookups use to skip sizes
// — disagrees with the recount, or "" when it agrees.
func diffDerived(name string, s *setAssoc) string {
	var sizes [numSizes]int
	for si, live := range s.live {
		for w := 0; w < s.ways; w++ {
			if live&(1<<w) != 0 {
				sizes[sizeIndex(s.set(si)[w].size)]++
			}
		}
	}
	if sizes != s.sizes {
		return fmt.Sprintf("%s: per-size counts %v, recount %v", name, s.sizes, sizes)
	}
	return ""
}

// sameEntry compares an entry returned by a lookup with the reference's.
func sameEntry(got *Entry, want *refEntry) bool {
	if got == nil || want == nil {
		return got == nil && want == nil
	}
	return *got == want.Entry
}

// diffOpVA spreads an op's address bytes over four regions, 16 PML4 and
// 16 PDPT slots, 64 2 MiB regions and 256 pages, so that small caches see
// hits, conflicts and evictions at every size and PSC level.
func diffOpVA(a, b, d byte) paging.VirtAddr {
	regions := [4]uint64{0x7e0000000000, 0xffffffff80000000, 0x400000, 0x7fff00000000}
	return paging.VirtAddr(regions[a&3] + uint64(d>>4)<<39 + uint64(d&15)<<30 +
		uint64(a>>2)<<21 + uint64(b)<<12)
}

// runTLBOps decodes data five bytes per op into a sequence of TLB and PSC
// operations, applies each to the real caches and to the reference model,
// and fails at the first observable or internal difference.
func runTLBOps(t *testing.T, cfg TLBConfig, data []byte) {
	t.Helper()
	tl, rtl := NewTLB(cfg), newRefTLB(cfg)
	psc, rpsc := NewPSC(), newRefPSC()
	type snap struct {
		tlb  Snapshot
		rtlb refTLBSnapshot
		psc  PSCSnapshot
		rpsc refPSCSnapshot
	}
	var snaps []snap
	for n := 0; len(data) >= 5; n++ {
		op, a, b, c, d := data[0], data[1], data[2], data[3], data[4]
		data = data[5:]
		va := diffOpVA(a, b, d)
		asid := uint16(c>>5) % 3
		what := ""
		switch op % 40 {
		case 0, 1, 2, 3, 4, 5, 6, 7, 8:
			size := []paging.PageSize{paging.Page4K, paging.Page2M, paging.Page1G}[c%3]
			flags := paging.Present | paging.User | paging.Flags(c)&(paging.Global|paging.Dirty)
			w := paging.Walk{VA: va, Mapped: true, Flags: flags, Size: size,
				PFN: phys.PFN(b), TermLevel: size.LeafLevel()}
			what = fmt.Sprintf("Fill(%#x, %v, %d)", va, size, asid)
			tl.Fill(va, &w, asid)
			rtl.Fill(va, w, asid)
		case 9:
			// A raw L1 insert, to compare evicted victims directly.
			e := Entry{vpn: vpnOf(va, paging.Page4K), size: paging.Page4K, asid: asid, pfn: phys.PFN(c)}
			what = fmt.Sprintf("l1.claim(%#x)", va)
			slot, evicted := tl.l1.claim(e.vpn, e.size)
			victim := tl.l1.entries[slot]
			tl.l1.entries[slot] = e
			rvictim, revicted := rtl.l1.insert(refEntry{Entry: e, valid: true})
			if evicted != revicted || evicted && !sameEntry(&victim, &rvictim) {
				t.Fatalf("op %d %s: victim %+v (%v), want %+v (%v)", n, what, victim, evicted, rvictim, revicted)
			}
		case 10, 11, 12, 13, 14, 15, 16, 17, 18, 19:
			what = fmt.Sprintf("Lookup(%#x, %d)", va, asid)
			res, e := tl.Lookup(va, asid)
			rres, re := rtl.Lookup(va, asid)
			if res != rres || !sameEntry(e, re) {
				t.Fatalf("op %d %s = %v %+v, want %v %+v", n, what, res, e, rres, re)
			}
			if e != nil && c&0x10 != 0 {
				e.SetFlags(e.Flags() | paging.Dirty)
				re.SetFlags(re.Flags() | paging.Dirty)
			}
			if res == Miss && c&0x10 != 0 {
				// A repeated lookup of an address that just missed.
				what += " + RepeatMiss"
				tl.RepeatMiss()
				if rres, _ := rtl.Lookup(va, asid); rres != Miss {
					t.Fatalf("op %d %s: reference lookup hit, want a miss", n, what)
				}
			}
		case 20, 21:
			what = fmt.Sprintf("Invalidate(%#x)", va)
			tl.Invalidate(va)
			rtl.Invalidate(va)
		case 22:
			what = "Flush(true)"
			tl.Flush(true)
			rtl.Flush(true)
		case 23:
			what = "Flush(false)"
			tl.Flush(false)
			rtl.Flush(false)
		case 24:
			what = fmt.Sprintf("FlushASID(%d)", asid)
			tl.flushASID(asid)
			rtl.FlushASID(asid)
		case 25, 26, 27, 28, 29, 30, 31:
			term := paging.Level(c % 5)
			what = fmt.Sprintf("PSC.Fill(%#x, %v, %d)", va, term, asid)
			psc.Fill(va, term, asid)
			rpsc.Fill(va, term, asid)
		case 32, 33, 34, 35, 36:
			what = fmt.Sprintf("PSC.Lookup(%#x, %d)", va, asid)
			lvl, ok := psc.Lookup(va, asid)
			rlvl, rok := rpsc.Lookup(va, asid)
			if lvl != rlvl || ok != rok {
				t.Fatalf("op %d %s = %v %v, want %v %v", n, what, lvl, ok, rlvl, rok)
			}
		case 37:
			if c&1 != 0 {
				what = "PSC.Enabled toggle"
				psc.Enabled = !psc.Enabled
				rpsc.Enabled = psc.Enabled
			} else {
				what = "PSC.Flush"
				psc.Flush()
				rpsc.Flush()
			}
		case 38:
			what = "Snapshot"
			snaps = append(snaps, snap{tl.Snapshot(), rtl.Snapshot(), psc.Snapshot(), rpsc.Snapshot()})
		case 39:
			if len(snaps) == 0 {
				continue
			}
			s := snaps[int(c)%len(snaps)]
			what = "Restore"
			tl.Restore(s.tlb)
			rtl.Restore(s.rtlb)
			psc.Restore(s.psc)
			rpsc.Restore(s.rpsc)
		}
		if tl.EntryCount() != rtl.EntryCount() || psc.EntryCount() != rpsc.EntryCount() {
			t.Fatalf("op %d %s: EntryCount TLB %d PSC %d, want %d %d", n, what,
				tl.EntryCount(), psc.EntryCount(), rtl.EntryCount(), rpsc.EntryCount())
		}
		if psc.Enabled != rpsc.Enabled {
			t.Fatalf("op %d %s: PSC.Enabled %v, want %v", n, what, psc.Enabled, rpsc.Enabled)
		}
		for _, c := range []struct {
			name string
			got  *setAssoc
			want *refSetAssoc
		}{
			{"L1", tl.l1, rtl.l1}, {"L2", tl.l2, rtl.l2},
			{"PML4E", psc.pml4e, rpsc.pml4e}, {"PDPTE", psc.pdpte, rpsc.pdpte}, {"PDE", psc.pde, rpsc.pde},
		} {
			if diff := diffCache(c.name, c.got, c.want); diff != "" {
				t.Fatalf("op %d %s: %s", n, what, diff)
			}
			if diff := diffDerived(c.name, c.got); diff != "" {
				t.Fatalf("op %d %s: %s", n, what, diff)
			}
		}
	}
}

// smallTLB is a geometry small enough that random ops fill and evict
// every set.
var smallTLB = TLBConfig{L1: Config{Sets: 2, Ways: 2}, L2: Config{Sets: 4, Ways: 3}}

func randomOps(seed uint64, n int) []byte {
	r := rand.New(rand.NewPCG(seed, 0x7ab1e))
	data := make([]byte, 5*n)
	for i := range data {
		data[i] = byte(r.Uint32())
	}
	return data
}

// The bitmap caches must be indistinguishable from the valid-flag
// reference: same hits and levels, same returned entries, same victims,
// same counts and the same state after every op, snapshot restores
// included.
func TestTLBPSCMatchReference(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		for _, cfg := range []TLBConfig{smallTLB, DefaultTLBConfig()} {
			runTLBOps(t, cfg, randomOps(seed, 2000))
		}
	}
}

func FuzzTLBPSCMatchReference(f *testing.F) {
	for seed := uint64(1); seed <= 4; seed++ {
		f.Add(randomOps(seed, 200))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		runTLBOps(t, smallTLB, data)
	})
}
