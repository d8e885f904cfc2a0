package machine

import (
	"reflect"
	"testing"

	"repro/internal/avx"
	"repro/internal/paging"
	"repro/internal/tlb"
)

// lineSize is the cache-line size the layout guards assume (x86-64).
const lineSize = 64

// hotObject is one heap object of a machine's private probing state:
// lo..lo+n in memory, and whether a probe writes it.
type hotObject struct {
	what    string
	lo, n   uintptr
	written bool
}

// sharedFields name the Machine fields that point at state the machine
// shares with its parent, its replicas or its snapshots: the preset, the
// allocator, the address spaces, the fault plan and the copy-on-write
// user frames. Everything else a machine reaches is its own.
var sharedFields = map[string]bool{
	"Preset": true, "Alloc": true, "KernelAS": true, "UserAS": true,
	"Faults": true, "frames": true,
}

// readOnlyTypes are the headers a probe only reads: the TLB and PSC hold
// the pointers to their levels (and the PSC's Enabled gate), written at
// build time or by Rebind. Every other object a machine owns is written
// on the probe path.
var readOnlyTypes = map[reflect.Type]bool{
	reflect.TypeFor[tlb.TLB](): true,
	reflect.TypeFor[tlb.PSC](): true,
}

// hotObjects returns every heap object m owns, found by following its
// pointers and slices. A pointer into an object already listed (the noise
// stream, the walk scratch held inside the machine) adds nothing.
func hotObjects(m *Machine) []hotObject {
	var objs []hotObject
	listed := func(p uintptr) bool {
		for _, o := range objs {
			if p >= o.lo && p < o.lo+o.n {
				return true
			}
		}
		return false
	}
	var walk func(path string, v reflect.Value)
	walk = func(path string, v reflect.Value) {
		switch v.Kind() {
		case reflect.Pointer:
			if p := v.Pointer(); p != 0 && !listed(p) {
				et := v.Type().Elem()
				objs = append(objs, hotObject{path, p, et.Size(), !readOnlyTypes[et]})
				walk(path, v.Elem())
			}
		case reflect.Slice:
			if p := v.Pointer(); p != 0 && v.Cap() > 0 && !listed(p) {
				n := uintptr(v.Cap()) * v.Type().Elem().Size()
				objs = append(objs, hotObject{path + "[]", p, n, true})
				for i := 0; i < v.Len(); i++ {
					walk(path+"[]", v.Index(i))
				}
			}
		case reflect.Array:
			for i := 0; i < v.Len(); i++ {
				walk(path, v.Index(i))
			}
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				if f := v.Type().Field(i); !sharedFields[f.Name] {
					walk(path+"."+f.Name, v.Field(i))
				}
			}
		}
	}
	walk("Machine", reflect.ValueOf(m))
	return objs
}

// probeWorkload runs every per-probe path once on a machine laid out by
// testMachine: batched double-execution probes of a mapped user page, a
// mapped and an unmapped kernel page, the evicted batch, a targeted
// eviction and a victim-side kernel touch.
func probeWorkload(m *Machine, uva, kva paging.VirtAddr) {
	ops := []avx.Op{
		avx.MaskedLoad(uva, avx.ZeroMask),
		avx.MaskedStore(uva, avx.ZeroMask),
		avx.MaskedLoad(kva, avx.ZeroMask),
		avx.MaskedLoad(kva+4*paging.Page2M, avx.ZeroMask),
	}
	out := make([]float64, 2*len(ops))
	m.MeasureBatch(ops, 1, 2, out)
	m.MeasureEvictedBatch(ops, 2, out)
	m.EvictTranslation(uva)
	m.KernelTouch(kva)
}

// Machines probe at once on different cores: two executors' sessions, and
// the pooled replicas of one sweep. A 64-byte line that one machine writes
// on its probe path and another machine also uses is false sharing: each
// write takes the line from the other core. The machines here are built
// the ways production builds them, back to back, and each runs the probe
// paths once; no line may hold bytes one of them writes and bytes of
// another.
func TestMachinesShareNoCacheLine(t *testing.T) {
	a, uva, kva := testMachine(t)
	b, _, _ := testMachine(t)
	c1, c2 := a.Clone(10), a.Clone(11)
	// Rebinding onto a parent of another TLB geometry rebuilds the
	// replicas' TLBs, back to back.
	g, _, _ := testMachine(t)
	g.TLB = tlb.NewTLB(tlb.TLBConfig{L1: tlb.Config{Sets: 8, Ways: 8}, L2: tlb.Config{Sets: 64, Ways: 8}})
	r1, r2 := a.Clone(20), a.Clone(21)
	r1.Rebind(g)
	r2.Rebind(g)
	machines := map[string]*Machine{"New#1": a, "New#2": b, "Clone#1": c1, "Clone#2": c2, "Rebind#1": r1, "Rebind#2": r2}
	for _, m := range machines {
		probeWorkload(m, uva, kva)
	}

	type use struct {
		machine, what string
		written       bool
	}
	lines := map[uintptr][]use{}
	for name, m := range machines {
		for _, o := range hotObjects(m) {
			for l := o.lo &^ (lineSize - 1); l < o.lo+o.n; l += lineSize {
				lines[l] = append(lines[l], use{name, o.what, o.written})
			}
		}
	}
	for l, uses := range lines {
		written, owners := false, map[string]bool{}
		for _, u := range uses {
			written = written || u.written
			owners[u.machine] = true
		}
		if written && len(owners) > 1 {
			t.Errorf("line %#x is written on a probe path and shared: %+v", l, uses)
		}
	}
}

// TestHotStateFillsWholeLines is the deterministic half of the guard above:
// every object a probe writes is a whole number of lines, or at least
// 512 bytes. Go gives an object of either size a size class that is a
// multiple of 64 bytes, so the allocator starts it on a line boundary and
// puts nothing else on its lines.
func TestHotStateFillsWholeLines(t *testing.T) {
	m, _, _ := testMachine(t)
	for name, m := range map[string]*Machine{"New": m, "Clone": m.Clone(1)} {
		for _, o := range hotObjects(m) {
			if o.written && o.n%lineSize != 0 && o.n < 512 {
				t.Errorf("%s: %s is %d bytes, neither a multiple of 64 nor at least 512", name, o.what, o.n)
			}
		}
	}
}
