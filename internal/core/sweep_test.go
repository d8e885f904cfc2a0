package core

import (
	"reflect"
	"testing"

	"repro/internal/linux"
	"repro/internal/paging"
)

// detWorker is a purely deterministic fake sweep worker: every probe
// outcome is a function of (va, chunk seed, position in the chunk stream),
// emulating a reseeded noise source, classified into a verdict of type V.
// Optional hooks plant a misread and record every probed VA.
type detWorker[V comparable] struct {
	mappedLo, mappedHi paging.VirtAddr
	classify           func(cycles float64) V
	// flipVA, when nonzero, reads slow (an isolated interrupt-spike
	// misread) on its first probe only; re-probes are honest.
	flipVA  paging.VirtAddr
	flipped bool
	// probed, when non-nil, counts the probes of every VA, so a test can
	// prove an address was never probed at all (not merely that its result
	// slot was overwritten afterwards).
	probed map[paging.VirtAddr]int

	seed, n, elapsed uint64
	healed           []paging.VirtAddr
}

func (w *detWorker[V]) Start(chunkSeed uint64) {
	w.seed = chunkSeed
	w.n = 0
	w.elapsed = 0
}

func (w *detWorker[V]) probe(va paging.VirtAddr) float64 {
	w.n++
	noise := float64(streamSeed(w.seed, w.n)%7) - 3 // [-3, 3] pseudo-noise
	mapped := va >= w.mappedLo && va < w.mappedHi
	cycles := 100.0 + noise
	if !mapped {
		cycles = 140.0 + noise
	}
	w.elapsed += uint64(cycles)
	if w.probed != nil {
		w.probed[va]++
	}
	if w.flipVA != 0 && va == w.flipVA && !w.flipped {
		w.flipped = true
		cycles = 150
	}
	return cycles
}

func (w *detWorker[V]) ProbeChunk(start paging.VirtAddr, stride uint64, lo, hi int,
	verdicts []V, cycles []float64) {
	for i := lo; i < hi; i++ {
		c := w.probe(start + paging.VirtAddr(uint64(i)*stride))
		cycles[i-lo], verdicts[i-lo] = c, w.classify(c)
	}
}

// HealProbe is the min-of-samples merge every single-measurement sweep
// heals with.
func (w *detWorker[V]) HealProbe(va paging.VirtAddr, samples int, cycles float64, _ V) (float64, V) {
	w.healed = append(w.healed, va)
	best := cycles
	for s := 0; s < samples; s++ {
		if c := w.probe(va); c < best {
			best = c
		}
	}
	return best, w.classify(best)
}

func (w *detWorker[V]) Elapsed() uint64 { return w.elapsed }

func mappedFast(cycles float64) bool { return cycles < 120 }

// writableClass classifies into a small verdict enum, exercising the sweep
// with a non-bool verdict type (the user-scan store pass shape).
func writableClass(cycles float64) int {
	if cycles < 120 {
		return 2 // "writable"
	}
	return 1 // "read-only"
}

const (
	testStride = uint64(paging.Page4K)
	testStart  = paging.VirtAddr(0x1000000)
	testChunk  = 64
)

// detWorkers returns n fake workers over one mapped run [lo, hi).
func detWorkers(n int, lo, hi paging.VirtAddr) []*detWorker[bool] {
	ws := make([]*detWorker[bool], n)
	for i := range ws {
		ws[i] = &detWorker[bool]{mappedLo: lo, mappedHi: hi, classify: mappedFast}
	}
	return ws
}

// detSweep runs a healing sweep of n pages over workers fake workers with
// pages 100–299 mapped.
func detSweep(workers, n int) ([]bool, []float64, uint64) {
	ws := detWorkers(workers, testStart+paging.VirtAddr(100*testStride), testStart+paging.VirtAddr(300*testStride))
	return sweep(ws, 42, testStart, n, testStride, testChunk, (*detWorker[bool]).HealProbe)
}

// Parallel output must be bit-identical to sequential output for a fixed
// seed, at any worker count — the sweep's core guarantee.
func TestSweepParallelMatchesSequential(t *testing.T) {
	const n = 1000
	seqV, seqC, seqSim := detSweep(1, n)
	for _, w := range []int{2, 3, 8, 16} {
		v, c, sim := detSweep(w, n)
		if !reflect.DeepEqual(seqV, v) {
			t.Fatalf("workers=%d: verdicts differ from sequential", w)
		}
		if !reflect.DeepEqual(seqC, c) {
			t.Fatalf("workers=%d: cycle measurements differ from sequential", w)
		}
		if seqSim != sim {
			t.Fatalf("workers=%d: simulated cycles %d != sequential %d", w, sim, seqSim)
		}
	}
}

// A sweep finds a mapped run exactly: pages 100–299 of 1000 over 4
// workers.
func TestSweepFindsMappedRun(t *testing.T) {
	v, _, _ := detSweep(4, 1000)
	for i, m := range v {
		if want := i >= 100 && i < 300; m != want {
			t.Fatalf("index %d: mapped=%v, want %v", i, m, want)
		}
	}
}

// A range shorter than one chunk is swept exactly too: pages 2–5 of 8 over
// 4 workers, one chunk for all of them.
func TestSweepFindsShortMappedRun(t *testing.T) {
	ws := detWorkers(4, testStart+paging.VirtAddr(2*testStride), testStart+paging.VirtAddr(6*testStride))
	v, _, _ := sweep(ws, 1, testStart, 8, testStride, testChunk, (*detWorker[bool]).HealProbe)
	if want := []bool{false, false, true, true, true, true, false, false}; !reflect.DeepEqual(v, want) {
		t.Fatalf("8-page sweep %v, want %v", v, want)
	}
}

// flipSweep runs a 500-page sweep, all mapped, with an isolated misread
// planted at page 250, on one worker; it returns the verdicts and the
// probe count of every VA.
func flipSweep(heal healFunc[bool, *detWorker[bool]]) ([]bool, map[paging.VirtAddr]int) {
	probed := make(map[paging.VirtAddr]int)
	w := &detWorker[bool]{
		mappedLo: testStart, mappedHi: testStart + paging.VirtAddr(500*testStride),
		classify: mappedFast, flipVA: testStart + paging.VirtAddr(250*testStride), probed: probed,
	}
	v, _, _ := sweep([]*detWorker[bool]{w}, 7, testStart, 500, testStride, testChunk, heal)
	return v, probed
}

func TestSweepHealsIsolatedMisread(t *testing.T) {
	v, probed := flipSweep((*detWorker[bool]).HealProbe)
	if !v[250] {
		t.Fatal("isolated misread not healed")
	}
	if n := probed[testStart+paging.VirtAddr(250*testStride)]; n < 4 {
		t.Fatalf("flip index probed %d times, want sweep + 3 heal probes", n)
	}
}

// A sweep without a heal function must not heal: sweeps whose signal is
// isolated singletons (the AMD 4 KiB-slot sweep) would otherwise have their
// hits re-probed away.
func TestSweepHealDisabled(t *testing.T) {
	v, probed := flipSweep(nil)
	if v[250] {
		t.Fatal("isolated misread healed despite disabled healing")
	}
	if n := probed[testStart+paging.VirtAddr(250*testStride)]; n != 1 {
		t.Fatalf("flip index probed %d times, want exactly 1", n)
	}
}

func TestSweepSmallAndEmptyRanges(t *testing.T) {
	for _, n := range []int{0, 1, 2, 63, 64, 65} {
		v, c, _ := detSweep(8, n)
		if len(v) != n || len(c) != n {
			t.Fatalf("n=%d: result length %d/%d", n, len(v), len(c))
		}
	}
}

// runSweep draws one worker per chunk at most: a 5-chunk sweep on a
// prober with more workers clones only 5 pool replicas.
func TestSweepWorkersCappedAtChunks(t *testing.T) {
	for _, w := range []int{1, 2, 5, 32} {
		pool := NewScanPool()
		p, _ := engineProberOpt(t, 161, Options{Workers: w, Pool: pool})
		p.ScanMapped(linux.ModuleRegionBase, 5*chunkPages, paging.Page4K)
		if got, want := pool.Replicas(), min(w, 5); got != want {
			t.Fatalf("workers=%d: sweep drew %d replicas, want %d", w, got, want)
		}
	}
}

func TestStreamSeedsDistinct(t *testing.T) {
	seen := make(map[uint64]uint64)
	for c := uint64(0); c < 10000; c++ {
		s := streamSeed(99, c)
		if prev, dup := seen[s]; dup {
			t.Fatalf("stream seeds collide: streams %d and %d", prev, c)
		}
		seen[s] = c
	}
}

// The heal pass must route disagreeing indices through the worker's
// HealProbe (which can re-derive multi-channel verdicts), neighbours of the
// misread first, and the repair must land.
func TestSweepHealProbeRepairsMisread(t *testing.T) {
	lo, hi := testStart, testStart+paging.VirtAddr(1000*testStride)
	flip := testStart + paging.VirtAddr(40*testStride)
	w := &detWorker[int]{mappedLo: lo, mappedHi: hi, classify: writableClass, flipVA: flip}
	v, _, _ := sweep([]*detWorker[int]{w}, 31, testStart, 200, testStride, testChunk, (*detWorker[int]).HealProbe)
	if len(w.healed) == 0 || w.healed[0] != testStart+paging.VirtAddr(39*testStride) {
		t.Fatalf("HealProbe calls %v, want the planted misread's neighbours first", w.healed)
	}
	if v[40] != 2 {
		t.Fatalf("planted misread not repaired: verdict %d", v[40])
	}
}
