package machine

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/avx"
	"repro/internal/paging"
	"repro/internal/rng"
	"repro/internal/uarch"
)

// testOps builds a mixed batch over mapped and unmapped pages.
func testOps(n int) []avx.Op {
	ops := make([]avx.Op, 0, n)
	for i := 0; i < n; i++ {
		if i%3 == 2 {
			ops = append(ops, avx.MaskedLoad(0xffffffff81000000+paging.VirtAddr(i)*paging.Page4K, avx.ZeroMask))
		} else {
			ops = append(ops, avx.MaskedLoad(0x7e0000000000+paging.VirtAddr(i%16)*paging.Page4K, avx.ZeroMask))
		}
	}
	return ops
}

// batchConfig is one machine shape the batch ≡ loop tests cover.
type batchConfig struct {
	name    string
	preset  func() *uarch.Preset
	kpti    bool // separate kernel and user page tables
	enclave bool
	noPSC   bool
}

var batchConfigs = []batchConfig{
	{name: "intel", preset: uarch.IceLake1065G7},
	{name: "amd", preset: uarch.Zen3_5600X}, // no TLB fill for supervisor pages
	{name: "kpti", preset: uarch.AlderLake12400F, kpti: true},
	{name: "enclave", preset: uarch.IceLake1065G7, enclave: true},
	{name: "no-psc", preset: uarch.AlderLake12400F, noPSC: true},
}

const (
	batchUser   = paging.VirtAddr(0x7e0000000000)
	batchKernel = paging.VirtAddr(0xffffffff81000000)
	batchHuge   = paging.VirtAddr(0xffffffff82000000)
)

// build boots a small victim image for c: 16 writable user pages, 8 global
// supervisor 4 KiB pages, one supervisor 2 MiB page and, with KPTI, a user
// view that maps only the user pages.
func (c batchConfig) build(t *testing.T) *Machine {
	t.Helper()
	m := New(c.preset(), 33)
	kernel := m.KernelAS
	if c.kpti {
		kernel = paging.NewAddressSpace(m.Alloc)
		m.InstallAddressSpaces(kernel, paging.NewAddressSpace(m.Alloc))
	}
	if err := m.MapUser(batchUser, 16*paging.Page4K, paging.Writable); err != nil {
		t.Fatal(err)
	}
	if _, err := kernel.MapRange(batchKernel, 8*paging.Page4K, paging.Page4K, paging.Writable|paging.Global); err != nil {
		t.Fatal(err)
	}
	if _, err := kernel.MapRange(batchHuge, paging.Page2M, paging.Page2M, paging.Writable); err != nil {
		t.Fatal(err)
	}
	m.InEnclave = c.enclave
	m.PSC.Enabled = !c.noPSC
	m.SetVector([8]uint32{1, 2, 3, 4, 5, 6, 7, 8})
	return m
}

// batchTestOps builds a seeded mix of loads and stores with zero, partial
// and full masks over mapped and unmapped user pages, mapped and unmapped
// supervisor pages, the 2 MiB page, and ops that straddle two pages.
func batchTestOps(n int) []avx.Op {
	r := rng.New(0xba7c)
	ops := make([]avx.Op, n)
	for i := range ops {
		var va paging.VirtAddr
		switch r.Intn(6) {
		case 0, 1:
			va = batchUser + paging.VirtAddr(r.Intn(20))*paging.Page4K // 4 unmapped
		case 2:
			va = batchKernel + paging.VirtAddr(r.Intn(12))*paging.Page4K // 4 unmapped
		case 3:
			va = batchHuge + paging.VirtAddr(r.Intn(512))*paging.Page4K
		case 4:
			va = batchUser + paging.VirtAddr(r.Intn(16))*paging.Page4K + 0xff0 // straddles
		case 5:
			va = 0xffffffffc0000000 + paging.VirtAddr(r.Intn(64))*paging.Page4K // unmapped
		}
		var mask avx.Mask
		switch r.Intn(4) {
		case 0:
			mask = avx.AllMask(8)
		case 1:
			mask = avx.Mask(r.Intn(256))
		}
		if r.Intn(3) == 0 {
			ops[i] = avx.MaskedStore(va, mask)
		} else {
			ops[i] = avx.MaskedLoad(va, mask)
		}
	}
	return ops
}

// sameMachineState fails unless the two machines are in the same state:
// clock, counters and every part of a Snapshot — TLB, PSC and PTE-line
// contents with their LRU stamps and clocks, the noise stream and the
// write shadow.
func sameMachineState(t *testing.T, what string, loop, batch *Machine) {
	t.Helper()
	if loop.RDTSC() != batch.RDTSC() {
		t.Fatalf("%s: clocks differ: loop %d, batch %d", what, loop.RDTSC(), batch.RDTSC())
	}
	if loop.Counters != batch.Counters {
		t.Fatalf("%s: performance counters differ between loop and batch", what)
	}
	if !reflect.DeepEqual(loop.Snapshot(), batch.Snapshot()) {
		t.Fatalf("%s: snapshots differ between loop and batch", what)
	}
}

// sameSamples fails unless the loop's samples and fault count equal the
// batch's.
func sameSamples(t *testing.T, what string, want, got []float64, wantFaults, gotFaults int) {
	t.Helper()
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: measurement %d differs: loop %v, batch %v", what, i, want[i], got[i])
		}
	}
	if wantFaults != gotFaults {
		t.Fatalf("%s: fault counts differ: loop %d, batch %d", what, wantFaults, gotFaults)
	}
}

// MeasureBatch must be bit-identical to the equivalent per-op
// ExecMasked/Measure loop: same measurements, same clock, same counters
// and the same translation-cache state, LRU stamps and clocks included.
func TestMeasureBatchMatchesLoop(t *testing.T) {
	ops := batchTestOps(96)
	for _, c := range batchConfigs {
		for warmups := 0; warmups <= 2; warmups++ {
			for samples := 1; samples <= 3; samples++ {
				what := fmt.Sprintf("%s warmups=%d samples=%d", c.name, warmups, samples)
				loopM := c.build(t)
				var want []float64
				wantFaults := 0
				for _, op := range ops {
					for w := 0; w < warmups; w++ {
						loopM.ExecMasked(op)
					}
					for s := 0; s < samples; s++ {
						v, r := loopM.Measure(op)
						if r.Faulted {
							wantFaults++
						}
						want = append(want, v)
					}
				}

				batchM := c.build(t)
				got := make([]float64, len(ops)*samples)
				gotFaults := batchM.MeasureBatch(ops, warmups, samples, got)

				sameSamples(t, what, want, got, wantFaults, gotFaults)
				sameMachineState(t, what, loopM, batchM)
			}
		}
	}
}

// MeasureEvictedBatch must be bit-identical to the per-VA targeted-eviction
// loop of the AMD term-level attack: same measurements, same fault count,
// same clock, same counters and the same translation-cache state — the
// hoisted eviction walk must change nothing observable.
func TestMeasureEvictedBatchMatchesLoop(t *testing.T) {
	ops := batchTestOps(64)
	for _, c := range batchConfigs {
		for samples := 1; samples <= 4; samples++ {
			what := fmt.Sprintf("%s samples=%d", c.name, samples)
			loopM := c.build(t)
			var want []float64
			wantFaults := 0
			for _, op := range ops {
				for s := 0; s < samples; s++ {
					loopM.EvictTranslation(op.Addr)
					v, r := loopM.Measure(op)
					if r.Faulted {
						wantFaults++
					}
					want = append(want, v)
				}
			}

			batchM := c.build(t)
			got := make([]float64, len(ops)*samples)
			gotFaults := batchM.MeasureEvictedBatch(ops, samples, got)

			sameSamples(t, what, want, got, wantFaults, gotFaults)
			sameMachineState(t, what, loopM, batchM)
		}
	}
}

// The batched eviction+measure path must not allocate in steady state.
func TestMeasureEvictedBatchZeroAlloc(t *testing.T) {
	m := New(uarch.Zen3_5600X(), 3)
	if err := m.MapUser(0x7e0000000000, 16*paging.Page4K, paging.Writable); err != nil {
		t.Fatal(err)
	}
	ops := testOps(32)
	out := make([]float64, 2*len(ops))
	m.MeasureEvictedBatch(ops, 2, out) // warm the eviction walk buffer
	if n := testing.AllocsPerRun(200, func() { m.MeasureEvictedBatch(ops, 2, out) }); n > 0 {
		t.Errorf("MeasureEvictedBatch: %v allocs/op, want 0", n)
	}
}

// Snapshot/Restore must rewind the execution state exactly: a machine
// restored to a snapshot replays the identical measurement stream a
// second time.
func TestSnapshotRestoreReplays(t *testing.T) {
	m := New(uarch.IceLake1065G7(), 9)
	if err := m.MapUser(0x7e0000000000, 16*paging.Page4K, paging.Writable); err != nil {
		t.Fatal(err)
	}
	ops := testOps(24)
	cp := m.Snapshot()
	first := make([]float64, len(ops))
	m.MeasureBatch(ops, 1, 1, first)
	tscAfter := m.RDTSC()
	countersAfter := m.Counters.Snapshot()

	if err := m.Restore(cp); err != nil {
		t.Fatal(err)
	}
	second := make([]float64, len(ops))
	m.MeasureBatch(ops, 1, 1, second)
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("measurement %d differs after restore: %v vs %v", i, first[i], second[i])
		}
	}
	if m.RDTSC() != tscAfter {
		t.Fatalf("clock differs after restored replay: %d vs %d", m.RDTSC(), tscAfter)
	}
	if m.Counters != countersAfter {
		t.Fatal("counters differ after restored replay")
	}
}

// The batched measurement path must stay allocation-free — it is the inner
// loop of every sharded sweep.
func TestMeasureBatchZeroAlloc(t *testing.T) {
	m := New(uarch.IceLake1065G7(), 1)
	if err := m.MapUser(0x7e0000000000, 16*paging.Page4K, paging.Writable); err != nil {
		t.Fatal(err)
	}
	ops := testOps(32)
	out := make([]float64, len(ops))
	if n := testing.AllocsPerRun(200, func() { m.MeasureBatch(ops, 1, 1, out) }); n > 0 {
		t.Errorf("MeasureBatch: %v allocs/op, want 0", n)
	}
}

// SwapNoise must route measurement noise through the caller's stream and
// restore cleanly: two machines measuring the same op sequence, one
// through swapped-in sources and one through ReseedNoise, see identical
// values — and ReseedNoise must always reinstate the machine-owned stream.
func TestSwapNoiseStreams(t *testing.T) {
	build := func() *Machine {
		m := New(uarch.IceLake1065G7(), 11)
		if err := m.MapUser(0x7e0000000000, 8*paging.Page4K, paging.Writable); err != nil {
			t.Fatal(err)
		}
		return m
	}
	op := avx.MaskedLoad(0x7e0000000000, avx.ZeroMask)

	ref := build()
	var want []float64
	for _, seed := range []uint64{100, 200, 100} {
		ref.ReseedNoise(seed)
		for i := 0; i < 8; i++ {
			v, _ := ref.Measure(op)
			want = append(want, v)
		}
	}

	m := build()
	var a, b rng.Source
	a.Reseed(100)
	b.Reseed(200)
	var got []float64
	orig := m.SwapNoise(&a)
	for i := 0; i < 8; i++ {
		v, _ := m.Measure(op)
		got = append(got, v)
	}
	m.SwapNoise(&b)
	for i := 0; i < 8; i++ {
		v, _ := m.Measure(op)
		got = append(got, v)
	}
	m.SwapNoise(&a)
	a.Reseed(100)
	for i := 0; i < 8; i++ {
		v, _ := m.Measure(op)
		got = append(got, v)
	}
	m.SwapNoise(orig)

	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("swapped-stream measurement %d differs: %v vs %v", i, want[i], got[i])
		}
	}
	// ReseedNoise restores the machine-owned stream even after swaps.
	m.ReseedNoise(300)
	ref.ReseedNoise(300)
	v1, _ := m.Measure(op)
	v2, _ := ref.Measure(op)
	if v1 != v2 {
		t.Fatal("ReseedNoise did not reinstate the machine-owned stream")
	}
}

// The flat PFN backing must behave exactly like the old map: lazily
// created frames, data round-trips, clone isolation, and an emptied write
// shadow on Rebind.
func TestFlatBackingSemantics(t *testing.T) {
	m := New(uarch.AlderLake12400F(), 3)
	if err := m.MapUser(0x7e0000000000, 4*paging.Page4K, paging.Writable); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteUser(0x7e0000000123, []byte{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	got, err := m.ReadUser(0x7e0000000123, 4)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string([]byte{1, 2, 3, 4}) {
		t.Fatalf("backing round-trip failed: %v", got)
	}

	// A clone starts with an empty write shadow of its own.
	c := m.Clone(9)
	if data, err := c.ReadUser(0x7e0000000123, 4); err != nil || data[0] != 0 {
		t.Fatalf("clone inherited the parent's write shadow: %v, %v", data, err)
	}
	if err := c.WriteUser(0x7e0000000123, []byte{9}); err != nil {
		t.Fatal(err)
	}
	if data, _ := m.ReadUser(0x7e0000000123, 1); data[0] != 1 {
		t.Fatal("clone write leaked into the parent's backing")
	}

	// Rebind clears the replica's shadow in place.
	c.Rebind(m)
	if data, err := c.ReadUser(0x7e0000000123, 1); err != nil || data[0] != 0 {
		t.Fatalf("Rebind did not clear the write shadow: %v, %v", data, err)
	}
}

// Steady-state frame writes must not allocate once the frame exists, and
// repeated Rebind must not reallocate the backing slice.
func TestFlatBackingSteadyStateAllocs(t *testing.T) {
	m := New(uarch.AlderLake12400F(), 7)
	if err := m.MapUser(0x7e0000000000, 4*paging.Page4K, paging.Writable); err != nil {
		t.Fatal(err)
	}
	buf := []byte{42}
	if err := m.WriteUser(0x7e0000000000, buf); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := m.WriteUser(0x7e0000000000, buf); err != nil {
			t.Fatal(err)
		}
	}); n > 0 {
		t.Errorf("steady-state frame write allocates %.1f/op, want 0", n)
	}
	c := m.Clone(1)
	if err := c.WriteUser(0x7e0000000000, buf); err != nil {
		t.Fatal(err)
	}
	c.Rebind(m)
	if n := testing.AllocsPerRun(50, func() { c.Rebind(m) }); n > 0 {
		t.Errorf("Rebind allocates %.1f/op with a warm backing slice, want 0", n)
	}
}
