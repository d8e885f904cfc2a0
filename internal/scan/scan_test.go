package scan

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/paging"
)

// detWorker is a purely deterministic fake worker: every probe outcome is a
// function of (va, chunk seed, position in the chunk stream), emulating a
// reseeded noise source, classified into a verdict of type V. Optional
// hooks plant a misread and record every probed VA.
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
	noise := float64(StreamSeed(w.seed, w.n)%7) - 3 // [-3, 3] pseudo-noise
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

// writableClass classifies into a small verdict enum, exercising the engine
// with a non-bool verdict type (the user-scan store pass shape).
func writableClass(cycles float64) int {
	if cycles < 120 {
		return 2 // "writable"
	}
	return 1 // "read-only"
}

func detFactory(lo, hi paging.VirtAddr) Factory[bool] {
	return func(id int) Worker[bool] { return &detWorker[bool]{mappedLo: lo, mappedHi: hi, classify: mappedFast} }
}

const testStride = uint64(paging.Page4K)

func runScan(t *testing.T, workers, n int) Result[bool] {
	t.Helper()
	start := paging.VirtAddr(0x1000000)
	lo := start + paging.VirtAddr(100*testStride)
	hi := start + paging.VirtAddr(300*testStride)
	eng := New(Config{Workers: workers, ChunkPages: 64, Seed: 42}, detFactory(lo, hi))
	return eng.Scan(start, n, testStride)
}

// Parallel output must be bit-identical to sequential output for a fixed
// seed, at any worker count — the engine's core guarantee.
func TestScanParallelMatchesSequential(t *testing.T) {
	const n = 1000
	seq := runScan(t, 1, n)
	for _, w := range []int{2, 3, 8, 16} {
		par := runScan(t, w, n)
		if !reflect.DeepEqual(seq.Verdicts, par.Verdicts) {
			t.Fatalf("workers=%d: verdicts differ from sequential", w)
		}
		if !reflect.DeepEqual(seq.Cycles, par.Cycles) {
			t.Fatalf("workers=%d: cycle measurements differ from sequential", w)
		}
		if seq.SimCycles != par.SimCycles {
			t.Fatalf("workers=%d: SimCycles %d != sequential %d", w, par.SimCycles, seq.SimCycles)
		}
	}
}

func TestScanFindsMappedRun(t *testing.T) {
	res := runScan(t, 4, 1000)
	for i, m := range res.Verdicts {
		want := i >= 100 && i < 300
		if m != want {
			t.Fatalf("index %d: mapped=%v, want %v", i, m, want)
		}
	}
	if res.Chunks != (1000+63)/64 {
		t.Fatalf("chunks = %d", res.Chunks)
	}
}

func TestScanHealsIsolatedMisread(t *testing.T) {
	start := paging.VirtAddr(0x1000000)
	lo := start
	hi := start + paging.VirtAddr(500*testStride)
	flip := start + paging.VirtAddr(250*testStride)
	probed := make(map[paging.VirtAddr]int)
	eng := New(Config{Workers: 1, ChunkPages: 64, Seed: 7}, func(id int) Worker[bool] {
		return &detWorker[bool]{mappedLo: lo, mappedHi: hi, classify: mappedFast, flipVA: flip, probed: probed}
	})
	res := eng.Scan(start, 500, testStride)
	if !res.Verdicts[250] {
		t.Fatal("isolated misread not healed")
	}
	if res.Healed == 0 {
		t.Fatal("healing pass did not run")
	}
	if probed[flip] < 4 {
		t.Fatalf("flip index probed %d times, want scan + 3 heal probes", probed[flip])
	}
}

// HealSamples < 0 must disable the healing pass outright: sweeps whose
// signal is isolated singletons (the AMD 4 KiB-slot sweep) would otherwise
// have their hits re-probed away.
func TestScanHealDisabled(t *testing.T) {
	start := paging.VirtAddr(0x1000000)
	flip := start + paging.VirtAddr(250*testStride)
	probed := make(map[paging.VirtAddr]int)
	eng := New(Config{Workers: 1, ChunkPages: 64, Seed: 7, HealSamples: -1}, func(id int) Worker[bool] {
		return &detWorker[bool]{
			mappedLo: start, mappedHi: start + paging.VirtAddr(500*testStride),
			classify: mappedFast, flipVA: flip, probed: probed,
		}
	})
	res := eng.Scan(start, 500, testStride)
	if res.Healed != 0 {
		t.Fatalf("healing ran (%d) with HealSamples=-1", res.Healed)
	}
	if res.Verdicts[250] {
		t.Fatal("isolated misread healed despite disabled healing")
	}
	if probed[flip] != 1 {
		t.Fatalf("flip index probed %d times, want exactly 1", probed[flip])
	}
}

func TestScanSmallAndEmptyRanges(t *testing.T) {
	for _, n := range []int{0, 1, 2, 63, 64, 65} {
		res := runScan(t, 8, n)
		if len(res.Verdicts) != n || len(res.Cycles) != n {
			t.Fatalf("n=%d: result length %d/%d", n, len(res.Verdicts), len(res.Cycles))
		}
		if n > 0 && res.Workers > res.Chunks {
			t.Fatalf("n=%d: %d workers for %d chunks", n, res.Workers, res.Chunks)
		}
	}
}

func TestChunkSeedDistinct(t *testing.T) {
	seen := make(map[uint64]uint64)
	for c := uint64(0); c < 10000; c++ {
		s := StreamSeed(99, c)
		if prev, dup := seen[s]; dup {
			t.Fatalf("stream seeds collide: chunks %d and %d", prev, c)
		}
		seen[s] = c
	}
}

func TestScanWorkerCountsExercised(t *testing.T) {
	// Smoke the goroutine fan-out shapes, including workers > chunks.
	for _, w := range []int{1, 2, 5, 32} {
		res := runScan(t, w, 320) // 5 chunks of 64
		want := w
		if want > 5 {
			want = 5
		}
		if res.Workers != want {
			t.Fatalf("workers=%d: engine used %d, want %d", w, res.Workers, want)
		}
	}
}

func ExampleEngine_Scan() {
	start := paging.VirtAddr(0x1000000)
	eng := New(Config{Workers: 4, ChunkPages: 64, Seed: 1},
		detFactory(start+paging.VirtAddr(2*testStride), start+paging.VirtAddr(6*testStride)))
	res := eng.Scan(start, 8, testStride)
	fmt.Println(res.Verdicts)
	// Output: [false false true true true true false false]
}

// The healing pass must route disagreeing indices through the worker's
// HealProbe (which can re-derive multi-channel verdicts), and the repair
// must land.
func TestScanHealerHookRepairsMisread(t *testing.T) {
	start := paging.VirtAddr(0x1000000)
	lo, hi := start, start+paging.VirtAddr(1000*testStride)
	flip := start + paging.VirtAddr(40*testStride)
	w := &detWorker[int]{mappedLo: lo, mappedHi: hi, classify: writableClass, flipVA: flip}
	eng := New(Config{Workers: 1, ChunkPages: 64, Seed: 31}, func(id int) Worker[int] { return w })
	res := eng.Scan(start, 200, testStride)
	if len(w.healed) == 0 || w.healed[0] != start+paging.VirtAddr(39*testStride) {
		t.Fatalf("HealProbe calls %v, want the planted misread's neighbours first", w.healed)
	}
	if res.Verdicts[40] != 2 {
		t.Fatalf("planted misread not repaired: verdict %d", res.Verdicts[40])
	}
	if res.Healed != len(w.healed) {
		t.Fatalf("Healed = %d, HealProbe ran %d times", res.Healed, len(w.healed))
	}
}

// chunkOnly is a worker that does not implement Healer.
type chunkOnly struct{ detWorker[bool] }

func (w *chunkOnly) HealProbe() {} // shadows the embedded HealProbe: not a Healer

// Healing goes only through Healer: a scan with healing enabled refuses a
// worker that cannot heal instead of leaving disagreements unhealed.
func TestScanHealNeedsHealer(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("healing scan with a non-Healer worker did not panic")
		}
	}()
	eng := New(Config{Workers: 1, ChunkPages: 64, Seed: 3}, func(id int) Worker[bool] {
		return &chunkOnly{detWorker[bool]{mappedLo: 0x1000000, mappedHi: 0x1000000 + 10*0x1000, classify: mappedFast}}
	})
	eng.Scan(0x1000000, 64, testStride)
}
