package behavior

import (
	"reflect"
	"testing"

	"repro/internal/linux"
	"repro/internal/machine"
	"repro/internal/rng"
	"repro/internal/uarch"
)

func TestIntervalContains(t *testing.T) {
	iv := Interval{Start: 2, End: 5}
	if iv.Contains(1.9) || !iv.Contains(2) || !iv.Contains(4.9) || iv.Contains(5) {
		t.Fatal("interval containment wrong")
	}
}

func TestFixedTimeline(t *testing.T) {
	tl := FixedTimeline(BluetoothAudio(), Interval{0, 10}, Interval{20, 30})
	for tm, want := range map[float64]bool{5: true, 15: false, 25: true, 35: false} {
		if tl.ActiveAt(tm) != want {
			t.Errorf("ActiveAt(%v) = %v", tm, !want)
		}
	}
}

func TestRandomTimelineBounds(t *testing.T) {
	r := rng.New(1)
	tl := RandomTimeline(MouseMovement(), 100, 8, 6, r)
	if len(tl.On) == 0 {
		t.Fatal("no activity windows generated")
	}
	last := 0.0
	for _, iv := range tl.On {
		if iv.Start < last || iv.End <= iv.Start || iv.End > 100 {
			t.Fatalf("bad interval %+v", iv)
		}
		last = iv.End
	}
}

func TestRandomTimelineDeterministic(t *testing.T) {
	a := RandomTimeline(BluetoothAudio(), 100, 8, 6, rng.New(7))
	b := RandomTimeline(BluetoothAudio(), 100, 8, 6, rng.New(7))
	if len(a.On) != len(b.On) {
		t.Fatal("same seed, different timelines")
	}
	for i := range a.On {
		if a.On[i] != b.On[i] {
			t.Fatal("same seed, different intervals")
		}
	}
}

func TestActivityPresets(t *testing.T) {
	for _, act := range []Activity{BluetoothAudio(), MouseMovement(), Keystrokes()} {
		if act.Module == "" || act.PagesTouched <= 0 || act.EventHz <= 0 {
			t.Errorf("bad preset %+v", act)
		}
	}
	if BluetoothAudio().Module != "bluetooth" || MouseMovement().Module != "psmouse" {
		t.Fatal("§IV-E target modules wrong")
	}
}

func TestDriverRejectsUnloadedModule(t *testing.T) {
	m := machine.New(uarch.IceLake1065G7(), 1)
	k, err := linux.Boot(m, linux.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	bad := Activity{Name: "x", Module: "definitely_not_loaded", PagesTouched: 1, EventHz: 1}
	if _, err := NewDriver(k, FixedTimeline(bad, Interval{0, 1})); err == nil {
		t.Fatal("driver accepted unloaded module")
	}
}

func TestDriverStepTouchesModuleTLB(t *testing.T) {
	m := machine.New(uarch.IceLake1065G7(), 2)
	k, err := linux.Boot(m, linux.Config{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	tl := FixedTimeline(BluetoothAudio(), Interval{0, 10})
	d, err := NewDriver(k, tl)
	if err != nil {
		t.Fatal(err)
	}
	lm, _ := k.Module("bluetooth")
	if res, _ := m.TLB.Lookup(lm.Base, m.KernelAS.ASID); res != 0 {
		t.Fatal("module TLB-resident before any event")
	}
	step(d, m, 5) // active window
	if res, _ := m.TLB.Lookup(lm.Base, m.KernelAS.ASID); res == 0 {
		t.Fatal("active module not TLB-resident after step")
	}
	m.EvictTLB()
	step(d, m, 15) // inactive
	if res, _ := m.TLB.Lookup(lm.Base, m.KernelAS.ASID); res != 0 {
		t.Fatal("inactive module touched the TLB")
	}
}

// step fires the events of the single instant t on m: the legacy spy-loop
// entry point, kept as the reference the ReplayWindow event grid is checked
// against (for grid-aligned t it equals ReplayWindow(m, t, t+resolution)).
func step(d *Driver, m *machine.Machine, t float64) {
	for ti, tl := range d.timelines {
		if tl.ActiveAt(t) {
			m.KernelTouch(d.touch[ti]...)
		}
	}
}

// bootDriver builds a deterministic kernel + driver pair for the
// event-source tests.
func bootDriver(t *testing.T, seed uint64, timelines ...*Timeline) (*machine.Machine, *linux.Kernel, *Driver) {
	t.Helper()
	m := machine.New(uarch.IceLake1065G7(), seed)
	k, err := linux.Boot(m, linux.Config{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDriver(k, timelines...)
	if err != nil {
		t.Fatal(err)
	}
	return m, k, d
}

// Advancing the victim through a window must be chunk-composable:
// replaying it in arbitrary pieces leaves the machine in exactly the state
// one ReplayWindow over the whole window produces (the property chunked
// scan workers rely on when they replay disjoint windows).
func TestDriverAdvanceToComposes(t *testing.T) {
	tl := FixedTimeline(BluetoothAudio(), Interval{3, 9}, Interval{14, 20})
	_, kA, dA := bootDriver(t, 33, tl)
	_, kB, dB := bootDriver(t, 33, FixedTimeline(BluetoothAudio(), Interval{3, 9}, Interval{14, 20}))
	mA, mB := kA.Machine(), kB.Machine()

	dA.ReplayWindow(mA, 0, 25)
	prev := 0.0
	for _, cut := range []float64{4, 9.5, 10, 17, 25} {
		dB.ReplayWindow(mB, prev, cut)
		prev = cut
	}
	if !reflect.DeepEqual(tlbResidency(mA, dA), tlbResidency(mB, dB)) {
		t.Fatal("chunked ReplayWindow leaves different TLB residency than one window")
	}
	if mA.TLB.EntryCount() != mB.TLB.EntryCount() {
		t.Fatal("chunked ReplayWindow leaves different TLB entry count")
	}
}

// tlbResidency reports which of the driver's touched pages are
// TLB-resident (the observable driver effects; raw snapshots differ across
// boots on globally allocated ASIDs).
func tlbResidency(m *machine.Machine, d *Driver) []bool {
	var out []bool
	for _, vas := range d.touch {
		for _, va := range vas {
			res, _ := m.TLB.Lookup(va, m.KernelAS.ASID)
			out = append(out, res != 0)
		}
	}
	return out
}

// ReplayWindow must be stateless: replaying other windows on another
// machine leaves the driver's later replays, and the bound machine,
// untouched, so a window replays identically whatever ran before it.
func TestDriverReplayWindowStateless(t *testing.T) {
	tl := FixedTimeline(MouseMovement(), Interval{0, 12})
	_, kA, dA := bootDriver(t, 34, tl)
	_, kB, dB := bootDriver(t, 34, FixedTimeline(MouseMovement(), Interval{0, 12}))
	mA, mB := kA.Machine(), kB.Machine()

	before := mB.Snapshot()
	other := mB.Clone(99)
	dB.ReplayWindow(other, 0, 12)
	dB.ReplayWindow(other, 6, 9)
	if !reflect.DeepEqual(before, mB.Snapshot()) {
		t.Fatal("replaying on another machine mutated the bound machine")
	}

	dA.ReplayWindow(mA, 2, 8)
	dB.ReplayWindow(mB, 2, 8)
	if !reflect.DeepEqual(tlbResidency(mA, dA), tlbResidency(mB, dB)) {
		t.Fatal("a window replays differently after other windows ran elsewhere")
	}
	if mA.TLB.EntryCount() != mB.TLB.EntryCount() {
		t.Fatal("a window leaves a different TLB entry count after other windows ran elsewhere")
	}
}

// An unbounded timeline must materialize to the same schedule however it
// is queried: one big EnsureCoverage, many small ones, or pointwise
// ActiveAt probes in any order all append the same intervals.
func TestUnboundedTimelineMaterializationOrderIrrelevant(t *testing.T) {
	const horizon = 10000.0
	mk := func(seed uint64) *Timeline {
		return UnboundedTimeline(BluetoothAudio(), 12, 18, rng.New(seed))
	}

	eager := mk(9)
	eager.EnsureCoverage(horizon)

	chunked := mk(9)
	for h := 100.0; h <= horizon; h += 100 {
		chunked.EnsureCoverage(h)
	}
	chunked.EnsureCoverage(horizon)

	// Query back-to-front, then front-to-back, interleaved — worst case
	// for any order dependence.
	probed := mk(9)
	for tm := horizon; tm >= 0; tm -= 37.5 {
		probed.ActiveAt(tm)
	}
	probed.EnsureCoverage(horizon)

	if !reflect.DeepEqual(eager.On, chunked.On) {
		t.Fatal("chunked materialization built a different schedule than eager")
	}
	if !reflect.DeepEqual(eager.On, probed.On) {
		t.Fatal("pointwise probing built a different schedule than eager")
	}
	for _, tm := range []float64{0, 1, 4095, 4096, 4097, 8191.5, horizon - 1} {
		if eager.ActiveAt(tm) != probed.ActiveAt(tm) {
			t.Fatalf("ActiveAt(%v) differs across materialization orders", tm)
		}
	}
}

// The lazy generator must agree with RandomTimeline on the shared prefix:
// same seed and parameters produce the same bursts up to RandomTimeline's
// horizon (modulo its final-interval clip).
func TestUnboundedTimelinePrefixMatchesRandomTimeline(t *testing.T) {
	const dur = 2000.0
	bounded := RandomTimeline(MouseMovement(), dur, 12, 18, rng.New(41))
	lazy := UnboundedTimeline(MouseMovement(), 12, 18, rng.New(41))
	lazy.EnsureCoverage(dur)

	if len(bounded.On) == 0 {
		t.Fatal("no bursts generated")
	}
	for i, iv := range bounded.On {
		if i >= len(lazy.On) {
			t.Fatalf("lazy timeline has only %d bursts, bounded has %d", len(lazy.On), len(bounded.On))
		}
		got := lazy.On[i]
		if got.Start != iv.Start {
			t.Fatalf("burst %d starts at %v lazily, %v bounded", i, got.Start, iv.Start)
		}
		// RandomTimeline clips the last burst at its duration; the lazy
		// schedule keeps the full draw.
		if got.End != iv.End && iv.End != dur {
			t.Fatalf("burst %d ends at %v lazily, %v bounded", i, got.End, iv.End)
		}
	}
}

// The horizon-bug reproducer at the timeline level: bursts must keep
// appearing arbitrarily far past the old 4096-tick truncation point.
func TestUnboundedTimelineActivePastOldHorizon(t *testing.T) {
	tl := UnboundedTimeline(BluetoothAudio(), 12, 18, rng.New(7))
	active := 0
	for tick := 4096; tick < 4096+600; tick++ {
		if tl.ActiveAt(float64(tick)) {
			active++
		}
	}
	// meanOn=18 vs meanOff=12 → ~60% duty cycle; anything near zero means
	// the schedule still truncates.
	if active < 100 {
		t.Fatalf("only %d/600 active ticks past t=4096 — timeline still truncated", active)
	}
	if !tl.Unbounded() {
		t.Fatal("Unbounded() false on a lazily extended timeline")
	}
	if bounded := FixedTimeline(BluetoothAudio(), Interval{0, 1}); bounded.Unbounded() {
		t.Fatal("Unbounded() true on a fixed timeline")
	}
}

// EnsureCoverage must guarantee pure reads below the covered horizon (the
// contract concurrent worker replicas rely on).
func TestEnsureCoverageMakesReadsPure(t *testing.T) {
	tl := UnboundedTimeline(Keystrokes(), 12, 18, rng.New(3))
	tl.EnsureCoverage(500)
	cov := tl.CoveredUntil()
	if cov <= 500 {
		t.Fatalf("CoveredUntil %v after EnsureCoverage(500)", cov)
	}
	n := len(tl.On)
	for tm := 0.0; tm <= 500; tm += 0.5 {
		tl.ActiveAt(tm)
	}
	if len(tl.On) != n || tl.CoveredUntil() != cov {
		t.Fatal("reads below the covered horizon mutated the timeline")
	}
}

// The event grid must match the legacy step loop: for grid-aligned ticks,
// ReplayWindow(m, t, t+1) fires exactly what step(t) fires.
func TestDriverReplayWindowMatchesStepLoop(t *testing.T) {
	tl := FixedTimeline(BluetoothAudio(), Interval{2, 5}, Interval{7, 8})
	mA, _, dA := bootDriver(t, 35, tl)
	mB, _, dB := bootDriver(t, 35, FixedTimeline(BluetoothAudio(), Interval{2, 5}, Interval{7, 8}))

	for tick := 0; tick < 10; tick++ {
		step(dA, mA, float64(tick))
		dB.ReplayWindow(mB, float64(tick), float64(tick)+1)
	}
	if !reflect.DeepEqual(tlbResidency(mA, dA), tlbResidency(mB, dB)) {
		t.Fatal("windowed replay differs from the legacy step loop")
	}
	if mA.TLB.EntryCount() != mB.TLB.EntryCount() {
		t.Fatal("windowed replay leaves different TLB entry count")
	}
}
