package machine

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/avx"
	"repro/internal/paging"
	"repro/internal/perf"
	"repro/internal/uarch"
)

// snapshotTestRegion is the user mapping the snapshot tests probe and
// write (mapped before the snapshot, so data writes never move the
// page-table version).
const snapshotTestRegion paging.VirtAddr = 0x7e0000000000

// kernelLikeVA is a mapped supervisor page for KernelTouch traffic.
const kernelLikeVA paging.VirtAddr = 0xffffffff81000000

func snapshotTestMachine(t testing.TB, seed uint64) *Machine {
	t.Helper()
	m := New(uarch.IceLake1065G7(), seed)
	if err := m.MapUser(snapshotTestRegion, 32*paging.Page4K, paging.Writable); err != nil {
		t.Fatal(err)
	}
	if _, err := m.KernelAS.MapRange(kernelLikeVA, 16*paging.Page4K, paging.Page4K, paging.Writable); err != nil {
		t.Fatal(err)
	}
	return m
}

// applyOp applies one state-churning operation selected by b. The boolean
// reports whether the op mutates the page tables (structure or A/D bits) —
// the one mutation class a snapshot cannot rewind.
func applyOp(m *Machine, b byte, arg byte) (mutatesAS bool) {
	va := snapshotTestRegion + paging.VirtAddr(uint64(arg%32)*paging.Page4K)
	switch b % 10 {
	case 0:
		m.ExecMasked(avx.MaskedLoad(va, avx.ZeroMask))
	case 1:
		m.Measure(avx.MaskedLoad(va, avx.ZeroMask))
	case 2:
		m.EvictTLB()
	case 3:
		m.EvictTranslation(va)
	case 4:
		m.EvictPTELines()
	case 5:
		m.KernelTouch(kernelLikeVA + paging.VirtAddr(uint64(arg%16)*paging.Page4K))
	case 6:
		m.AdvanceCycles(uint64(arg) * 97)
	case 7:
		m.ReseedNoise(uint64(arg) + 1)
	case 8:
		// Data write: mutates the write shadow (snapshot must carry it)
		// without touching the page tables.
		_ = m.WriteUser(va, []byte{arg, arg + 1, arg + 2})
	case 9:
		// Real masked store: moves data AND sets Accessed/Dirty — a
		// page-table mutation Restore must detect.
		before := m.UserAS.Version()
		m.ExecMasked(avx.MaskedStore(va, avx.AllMask(8)))
		return m.UserAS.Version() != before
	}
	return false
}

// applyOps applies ops as (op, arg) pairs and reports whether any of them
// mutated the page tables.
func applyOps(m *Machine, ops []byte) (mutatesAS bool) {
	for i := 0; i+1 < len(ops); i += 2 {
		if applyOp(m, ops[i], ops[i+1]) {
			mutatesAS = true
		}
	}
	return mutatesAS
}

// testRegionBytes is the size of the snapshot test region.
const testRegionBytes = 32 * paging.Page4K

// scribble writes two bytes derived from b into every page of the test
// region: a write to each of its 32 frames, shared or not.
func scribble(t testing.TB, m *Machine, b byte) {
	t.Helper()
	for pg := 0; pg < 32; pg++ {
		va := snapshotTestRegion + paging.VirtAddr(uint64(pg)*paging.Page4K+uint64(b)%64)
		if err := m.WriteUser(va, []byte{b, byte(pg)}); err != nil {
			t.Fatal(err)
		}
	}
}

// readRegion returns the whole test region's user memory.
func readRegion(t testing.TB, m *Machine) []byte {
	t.Helper()
	data, err := m.ReadUser(snapshotTestRegion, testRegionBytes)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// continuation runs a fixed probe sequence and returns its full observable
// trace: measurements, clock, counters and the test region's user memory.
// Two machines in identical state must produce identical continuations.
func continuation(t testing.TB, m *Machine) ([]float64, uint64, perf.Counters, []byte) {
	t.Helper()
	meas := make([]float64, 0, 48)
	for i := 0; i < 16; i++ {
		va := snapshotTestRegion + paging.VirtAddr(uint64(i%32)*paging.Page4K)
		v, _ := m.Measure(avx.MaskedLoad(va, avx.ZeroMask))
		meas = append(meas, v)
		if i%5 == 2 {
			m.EvictTranslation(va)
			v, _ = m.Measure(avx.MaskedLoad(va, avx.ZeroMask))
			meas = append(meas, v)
		}
	}
	return meas, m.RDTSC(), m.Counters.Snapshot(), readRegion(t, m)
}

// snapshotPoint is one snapshot of a round trip with the continuation
// recorded right after it was taken.
type snapshotPoint struct {
	snap Snapshot
	meas []float64
	tsc  uint64
	ctr  perf.Counters
	data []byte
	// mutatedAfter reports that a page-table mutation ran after the
	// snapshot was taken, so Restore must refuse it.
	mutatedAfter bool
}

// checkContinuation requires m's continuation to be p's, bit for bit.
func checkContinuation(t testing.TB, label string, m *Machine, p *snapshotPoint) {
	t.Helper()
	meas, tsc, ctr, data := continuation(t, m)
	if len(meas) != len(p.meas) {
		t.Fatalf("%s: continuation lengths differ: %d vs %d", label, len(p.meas), len(meas))
	}
	for i := range meas {
		if meas[i] != p.meas[i] {
			t.Fatalf("%s: measurement %d differs: %v vs %v", label, i, p.meas[i], meas[i])
		}
	}
	if tsc != p.tsc {
		t.Fatalf("%s: clock differs after the continuation: %d vs %d", label, p.tsc, tsc)
	}
	if ctr != p.ctr {
		t.Fatalf("%s: counters differ after the continuation", label)
	}
	if string(data) != string(p.data) {
		t.Fatalf("%s: user memory differs", label)
	}
}

// snapshotRoundTrip drives the property the whole session layer rests on,
// across frames that snapshots and machines share. It warms m up with an
// arbitrary op sequence and takes a first snapshot; it writes every frame,
// rewinds, and records the continuation that follows the snapshot. A
// same-seed sibling with the same image adopts that snapshot and must
// reproduce the same continuation bit for bit — timings, clock, counters
// and user memory — and then writes every frame and churns. m churns,
// takes a second snapshot, and churns more. Then m rewinds to each
// snapshot, oldest first, and must reproduce its continuation bit for
// bit — or, if a page-table mutation ran after the snapshot, Restore must
// refuse — and writes every frame after each rewind. The sibling's writes
// and m's own writes after a rewind must reach neither a snapshot nor the
// other machine.
func snapshotRoundTrip(t testing.TB, seed uint64, warm, churn []byte) {
	m := snapshotTestMachine(t, seed)
	applyOps(m, warm)
	var points []*snapshotPoint
	take := func() {
		t.Helper()
		p := &snapshotPoint{snap: m.Snapshot()}
		image := readRegion(t, m)
		scribble(t, m, 0x5a) // must copy the frames, not write the snapshot's
		if err := m.Restore(p.snap); err != nil {
			t.Fatalf("Restore right after data writes: %v", err)
		}
		p.meas, p.tsc, p.ctr, p.data = continuation(t, m)
		if string(p.data) != string(image) {
			t.Fatal("writes right after Snapshot reached the snapshot")
		}
		if err := m.Restore(p.snap); err != nil {
			t.Fatalf("Restore right after a probe-only continuation: %v", err)
		}
		points = append(points, p)
	}
	churnOps := func(ops []byte) {
		if applyOps(m, ops) {
			for _, p := range points {
				p.mutatedAfter = true
			}
		}
	}

	take()
	sib := snapshotTestMachine(t, seed)
	applyOps(sib, warm)
	sib.Adopt(points[0].snap)
	checkContinuation(t, "adopting sibling", sib, points[0])
	scribble(t, sib, 0xa5)
	applyOps(sib, churn)
	if string(readRegion(t, m)) != string(points[0].data) {
		t.Fatal("a sibling's writes after Adopt reached the original machine")
	}

	half := len(churn) / 2 &^ 1
	churnOps(churn[:half])
	take()
	churnOps(churn[half:])

	for i, p := range points {
		label := fmt.Sprintf("snapshot %d", i)
		err := m.Restore(p.snap)
		if p.mutatedAfter {
			if err == nil {
				t.Fatalf("%s: Restore accepted a snapshot across a page-table mutation", label)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: Restore: %v", label, err)
		}
		checkContinuation(t, label, m, p)
		scribble(t, m, byte(i))
	}
}

// The deterministic property pass: a spread of op mixes, including
// data-writing and AS-mutating churn.
func TestSnapshotRoundTripProperty(t *testing.T) {
	cases := [][2][]byte{
		{{}, {}},
		{{0, 1, 1, 2, 5, 3}, {2, 0, 6, 9, 7, 3}},
		{{8, 4, 8, 9, 1, 7}, {8, 1, 8, 200, 1, 9}},
		{{9, 0, 9, 1, 0, 2}, {9, 5}}, // store churn: must refuse
		{{5, 1, 5, 2, 1, 9}, {3, 3, 4, 0, 2, 1, 8, 77}},
		{{8, 0, 8, 33}, {8, 2, 8, 3, 9, 4, 8, 5}}, // writes, then a store after the second snapshot
		{{8, 7, 9, 7}, {8, 7, 8, 8, 8, 7, 0, 7}},  // rewrites of the frames the snapshots share
	}
	for i, c := range cases {
		snapshotRoundTrip(t, uint64(100+i), c[0], c[1])
	}
}

// FuzzSnapshotRoundTrip lets the fuzzer search for op sequences that break
// the replay-purity contract.
func FuzzSnapshotRoundTrip(f *testing.F) {
	f.Add(uint64(1), []byte{0, 1, 2, 3}, []byte{4, 5, 6, 7})
	f.Add(uint64(2), []byte{8, 0, 9, 9}, []byte{9, 1, 8, 2})
	f.Add(uint64(3), []byte{}, []byte{7, 200, 6, 100, 3, 50})
	f.Add(uint64(4), []byte{8, 3, 8, 4}, []byte{8, 3, 1, 1, 8, 5, 9, 3})
	f.Fuzz(func(t *testing.T, seed uint64, warm, churn []byte) {
		if len(warm) > 64 {
			warm = warm[:64]
		}
		if len(churn) > 64 {
			churn = churn[:64]
		}
		snapshotRoundTrip(t, seed, warm, churn)
	})
}

// Machines on different goroutines may adopt one snapshot and write to it
// at the same time: each copies the frames it writes, so no machine sees
// another's writes and the snapshot stays as taken. Run it under -race.
func TestSnapshotConcurrentAdopters(t *testing.T) {
	const seed = 5
	src := snapshotTestMachine(t, seed)
	scribble(t, src, 0x11)
	snap := src.Snapshot()
	want := readRegion(t, src)

	machines := make([]*Machine, 4)
	for i := range machines {
		machines[i] = snapshotTestMachine(t, seed)
	}
	errs := make([]error, len(machines))
	var wg sync.WaitGroup
	for i, m := range machines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m.Adopt(snap)
			m.SetVector([8]uint32{uint32(i), 1, 2, 3, 4, 5, 6, 7})
			for round := 0; round < 4; round++ {
				for pg := 0; pg < 32; pg++ {
					va := snapshotTestRegion + paging.VirtAddr(uint64(pg)*paging.Page4K)
					if err := m.WriteUser(va+64, []byte{byte(i), byte(round)}); err != nil {
						errs[i] = err
						return
					}
					m.ExecMasked(avx.MaskedStore(va+128, avx.AllMask(8)))
					m.ExecMasked(avx.MaskedLoad(va, avx.AllMask(8)))
				}
			}
			got, err := m.ReadUser(snapshotTestRegion, testRegionBytes)
			if err != nil {
				errs[i] = err
				return
			}
			for pg := 0; pg < 32; pg++ {
				off := pg * paging.Page4K
				if got[off+64] != byte(i) || got[off+65] != 3 || got[off+128] != byte(i) {
					errs[i] = fmt.Errorf("machine %d page %d: lost its own writes", i, pg)
					return
				}
				if string(got[off:off+64]) != string(want[off:off+64]) {
					errs[i] = fmt.Errorf("machine %d page %d: snapshot data changed under it", i, pg)
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	fresh := snapshotTestMachine(t, seed)
	fresh.Adopt(snap)
	if string(readRegion(t, fresh)) != string(want) {
		t.Fatal("concurrent adopters' writes reached the shared snapshot")
	}
	if string(readRegion(t, src)) != string(want) {
		t.Fatal("concurrent adopters' writes reached the machine the snapshot was taken on")
	}
}

// Restore re-points the write shadow at the snapshot's frames: with 32
// written frames it allocates nothing.
func TestRestoreZeroAlloc(t *testing.T) {
	m := snapshotTestMachine(t, 3)
	scribble(t, m, 1)
	snap := m.Snapshot()
	if n := testing.AllocsPerRun(100, func() {
		if err := m.Restore(snap); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Restore with 32 written frames allocates %.1f/op, want 0", n)
	}
}

// Snapshot shares frames instead of copying them: the number of its
// allocations does not grow with the number of written frames, and its
// bytes grow by at most a frame reference per frame.
func TestSnapshotCostIndependentOfFrames(t *testing.T) {
	cost := func(pages int) (allocs, bytes float64) {
		m := snapshotTestMachine(t, 3)
		for pg := 0; pg < pages; pg++ {
			if err := m.WriteUser(snapshotTestRegion+paging.VirtAddr(uint64(pg)*paging.Page4K), []byte{1}); err != nil {
				t.Fatal(err)
			}
		}
		m.Snapshot()
		allocs = testing.AllocsPerRun(20, func() { m.Snapshot() })
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		const runs = 20
		for i := 0; i < runs; i++ {
			m.Snapshot()
		}
		runtime.ReadMemStats(&after)
		return allocs, float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	a1, b1 := cost(1)
	a32, b32 := cost(32)
	if a32 != a1 {
		t.Errorf("Snapshot allocates %.1f/op with 32 written frames, %.1f with 1", a32, a1)
	}
	if grown := b32 - b1; grown > 31*64 {
		t.Errorf("Snapshot bytes grow by %.0f from 1 to 32 written frames, want <= %d (a frame reference each)", grown, 31*64)
	}
}

// After a restore the machine shares every frame with the snapshot, so
// one write copies exactly that one frame, and the snapshot keeps the old
// contents.
func TestRestoreThenWriteCopiesOneFrame(t *testing.T) {
	m := snapshotTestMachine(t, 3)
	scribble(t, m, 1)
	snap := m.Snapshot()
	before := readRegion(t, m)
	va := snapshotTestRegion + 5*paging.Page4K
	buf := []byte{0xee}
	if n := testing.AllocsPerRun(50, func() {
		if err := m.Restore(snap); err != nil {
			t.Fatal(err)
		}
		if err := m.WriteUser(va, buf); err != nil {
			t.Fatal(err)
		}
	}); n != 1 {
		t.Errorf("Restore + one write allocates %.1f/op, want exactly 1 (one frame copy)", n)
	}
	if data, _ := m.ReadUser(va, 1); data[0] != 0xee {
		t.Fatal("the write after Restore is not visible")
	}
	if err := m.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if string(readRegion(t, m)) != string(before) {
		t.Fatal("a write after Restore changed the snapshot")
	}
}

// Reading a mapped page that was never written sees the shared zero frame
// and creates no frame: ReadUser allocates only the slice it returns, and
// a data-moving masked load allocates nothing.
func TestReadOfUnwrittenPageAllocatesNoFrame(t *testing.T) {
	m := snapshotTestMachine(t, 3)
	va := snapshotTestRegion + 7*paging.Page4K
	if n := testing.AllocsPerRun(50, func() {
		data, err := m.ReadUser(va, 8)
		if err != nil || string(data) != string(make([]byte, 8)) {
			t.Fatalf("ReadUser of an unwritten page = %v, %v; want zeros", data, err)
		}
	}); n > 1 {
		t.Errorf("ReadUser of an unwritten page allocates %.1f/op, want 1 (the result slice)", n)
	}
	op := avx.MaskedLoad(va, avx.AllMask(8))
	m.ExecMasked(op)
	if n := testing.AllocsPerRun(50, func() {
		if r := m.ExecMasked(op); r.Data != ([8]uint32{}) {
			t.Fatalf("masked load of an unwritten page read %v", r.Data)
		}
	}); n != 0 {
		t.Errorf("masked load of an unwritten page allocates %.1f/op, want 0", n)
	}
	if len(m.frames) != 0 {
		t.Errorf("reads put %d frames in the write shadow", len(m.frames))
	}
}
