package core

import (
	"sync/atomic"
	"testing"
	"unsafe"

	"repro/internal/paging"
)

// lineSize is the cache-line size the layout guards assume (x86-64).
const lineSize = 64

// span is one object a probe writes: lo..lo+n in memory.
type span struct {
	what  string
	lo, n uintptr
}

func sliceSpan[T any](what string, s []T) span {
	var z T
	return span{what, uintptr(unsafe.Pointer(unsafe.SliceData(s))), uintptr(cap(s)) * unsafe.Sizeof(z)}
}

// workerSpans lists what a fused worker's chunk writes outside its
// machine (TestMachinesShareNoCacheLine covers the machine): the worker
// with its two noise streams, its prober, and the prober's batch scratch.
func workerSpans(w *fusedWorker) []span {
	p := w.p
	return []span{
		{"fusedWorker", uintptr(unsafe.Pointer(w)), unsafe.Sizeof(*w)},
		{"Prober", uintptr(unsafe.Pointer(p)), unsafe.Sizeof(*p)},
		sliceSpan("batchOps", p.batchOps),
		sliceSpan("batchPos", p.batchPos),
		sliceSpan("batchMeas", p.batchMeas),
		sliceSpan("batchVals", p.batchVals),
		sliceSpan("batchFast", p.batchFast),
	}
}

// The fused user scan's two workers probe at once on pooled replicas that
// the engine builds back to back, and every noise draw writes a worker's
// load or store stream. No 64-byte line may hold bytes of both workers,
// and every object they write must be a whole number of lines, so that
// the allocator gives it lines of its own.
func TestFusedWorkersShareNoCacheLine(t *testing.T) {
	if n := unsafe.Sizeof(fusedWorker{}); n%lineSize != 0 {
		t.Errorf("fusedWorker is %d bytes, not a multiple of %d", n, lineSize)
	}
	if n := unsafe.Sizeof(Prober{}); n%lineSize != 0 {
		t.Errorf("Prober is %d bytes, not a multiple of %d", n, lineSize)
	}

	p, lo, _ := userScanVictim(t, 900, Options{Workers: 2, Pool: NewScanPool()})
	var loadSim, storeSim atomic.Uint64
	// A short chunk: its windows are smaller than a line.
	const n = 5
	var ws [2]*fusedWorker
	for i := range ws {
		ws[i] = newFusedWorker(p.Opt.Pool.get(p, 1), &loadSim, &storeSim)
	}
	for _, w := range ws {
		w.Start(1)
		w.ProbeChunk(lo, paging.Page4K, 0, n, make([]PermClass, n), make([]float64, n))
	}

	type use struct {
		worker int
		what   string
	}
	owner := map[uintptr]use{}
	for i, w := range ws {
		for _, s := range workerSpans(w) {
			if s.n%lineSize != 0 {
				t.Errorf("worker %d: %s is %d bytes, not a multiple of %d", i, s.what, s.n, lineSize)
			}
			for l := s.lo &^ (lineSize - 1); l < s.lo+s.n; l += lineSize {
				if o, ok := owner[l]; ok && o.worker != i {
					t.Errorf("line %#x holds worker %d's %s and worker %d's %s", l, o.worker, o.what, i, s.what)
				}
				owner[l] = use{i, s.what}
			}
		}
	}
}
