package core

import (
	"reflect"
	"testing"

	"repro/internal/behavior"
	"repro/internal/linux"
	"repro/internal/uarch"
)

// The spy tick is the temporal hot path: driver replay, clock advance, one
// batched leading-page sweep per target, eviction. After the first tick has
// warmed the prober's batch windows and the machine's walk scratch, a tick
// must not allocate at all — ReplayWindow's kernel touches walk with the
// machine-owned scratch and the probes go through ProbeTLBBatch into
// prober-owned windows.
func TestSpyTickZeroAllocSteadyState(t *testing.T) {
	p, drv, targets, _ := temporalVictim(t, 611, Options{})
	spy := &BehaviorSpy{P: p, Targets: targets, PagesPerModule: 10, TickSec: 1}
	if err := spy.init(); err != nil {
		t.Fatal(err)
	}
	spy.tick(p, drv, 6) // warm scratch inside an active window
	if n := testing.AllocsPerRun(20, func() {
		spy.tick(p, drv, 6)
	}); n > 0 {
		t.Errorf("spy tick allocates %.1f/op at steady state, want 0", n)
	}
}

// The app fingerprinter runs the spy's tick sweep over its watch list
// and votes on the ticks, rebuilding the target list in reused buffers.
// An 8-tick window at Workers 0 on the 5-module standard watch costs 8
// allocations — the per-window sweep setup and result slices, the vote
// and the profile match, nothing per tick or per target.
func TestFingerprintWindowAllocs(t *testing.T) {
	p, k := bootedProber(t, uarch.IceLake1065G7(), 612, linux.Config{})
	profiles := StandardAppProfiles()
	watch, err := LocateWatch(Modules(p, SizeTable(k.ProcModules())), profiles)
	if err != nil {
		t.Fatal(err)
	}
	if len(watch) != 5 {
		t.Fatalf("standard watch has %d modules, want 5", len(watch))
	}
	drv, err := behavior.NewDriver(k, TimelinesFor(profiles[1], 1e6)...)
	if err != nil {
		t.Fatal(err)
	}
	fp := &AppFingerprinter{P: p, Watch: watch, Profiles: profiles, Ticks: 8, TickSec: 1}
	t0 := 0.0
	window := func() {
		if got, err := fp.ClassifyFrom(drv, t0); err != nil || got.Name != profiles[1].Name {
			t.Fatalf("window at %v: %q, %v", t0, got.Name, err)
		}
		t0 += 8
	}
	window() // warm scratch and the reused target buffers
	n := testing.AllocsPerRun(20, window)
	t.Logf("allocs/window %.0f", n)
	if n > 8 {
		t.Errorf("8-tick fingerprint window allocates %.1f/op, want <= 8", n)
	}
}

// The per-machine walk scratch must keep ReplayWindow stateless and
// replica-safe: replaying interleaved on the parent machine and on a clone
// touches only the machine each call runs on (so the interleaving allocates
// nothing once both scratches are warm), and leaves both machines in bit-identical victim state — probing them
// from the same noise position yields the same observations.
func TestReplayWindowStatelessReplicaSafe(t *testing.T) {
	p, drv, targets, _ := temporalVictim(t, 613, Options{})
	spy := &BehaviorSpy{P: p, Targets: targets, PagesPerModule: 10, TickSec: 1}
	if err := spy.init(); err != nil {
		t.Fatal(err)
	}
	m := p.M
	c := m.Clone(999) // replica: same state, private walk scratch
	rp := p.CloneTo(c)

	drv.ReplayWindow(m, 5, 6) // warm both machines' walk scratch
	drv.ReplayWindow(c, 5, 6)
	if n := testing.AllocsPerRun(10, func() {
		drv.ReplayWindow(m, 6, 7)
		drv.ReplayWindow(c, 6, 7)
	}); n > 0 {
		t.Errorf("interleaved parent/replica replay allocates %.1f/op at steady state, want 0", n)
	}

	// Both machines received the identical replay sequence; from the same
	// noise position the tick observations must be bit-identical.
	m.ReseedNoise(4242)
	c.ReseedNoise(4242)
	want := spy.tick(p, drv, 8)
	got := spy.tick(rp, drv, 8)
	if !reflect.DeepEqual(want, got) {
		t.Fatal("replica tick observations differ from parent after interleaved replays")
	}
}
