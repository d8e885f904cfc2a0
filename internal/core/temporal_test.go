package core

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/behavior"
	"repro/internal/linux"
	"repro/internal/machine"
	"repro/internal/uarch"
)

// temporalVictim boots the §IV-E victim used by the temporal parity suite:
// an Ice Lake Linux boot, a prober at the given engine options, the
// bluetooth+psmouse targets located with the module attack, and a driver
// with fixed activity windows. Everything is a pure function of seed, so
// every variant sees the identical victim.
func temporalVictim(t *testing.T, seed uint64, opt Options) (*Prober, *behavior.Driver, []linux.LoadedModule, []*behavior.Timeline) {
	t.Helper()
	m := machine.New(uarch.IceLake1065G7(), seed)
	k, err := linux.Boot(m, linux.Config{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProber(m, opt)
	if err != nil {
		t.Fatal(err)
	}
	targets, err := LocateTargets(Modules(p, SizeTable(k.ProcModules())), "bluetooth", "psmouse")
	if err != nil {
		t.Fatal(err)
	}
	bt := behavior.FixedTimeline(behavior.BluetoothAudio(), behavior.Interval{Start: 5, End: 18})
	ms := behavior.FixedTimeline(behavior.MouseMovement(), behavior.Interval{Start: 22, End: 34})
	drv, err := behavior.NewDriver(k, bt, ms)
	if err != nil {
		t.Fatal(err)
	}
	return p, drv, targets, []*behavior.Timeline{bt, ms}
}

// temporalVariants is the worker × pool matrix of the temporal parity
// suite. pooled=false leaves Options.Pool nil, so each prober makes its own
// pool on its first sharded scan; pooled=true shares one session pool
// across the suite's variants, so later variants run on rebound replicas.
func temporalVariants() []struct {
	workers int
	pooled  bool
} {
	return []struct {
		workers int
		pooled  bool
	}{
		{0, false}, {1, false}, {4, false}, {8, false},
		{0, true}, {1, true}, {4, true}, {8, true},
	}
}

// The engine-based behavior spy must be bit-identical to the sequential
// yardstick loop — full traces, simulated clock and counters — at workers
// 0/1/4/8 × own/shared pool for a fixed seed.
func TestBehaviorSpyEngineParity(t *testing.T) {
	const seed = 606
	const duration = 40.0

	pRef, drvRef, targetsRef, _ := temporalVictim(t, seed, Options{})
	spyRef := &BehaviorSpy{P: pRef, Targets: targetsRef, PagesPerModule: 10, TickSec: 1}
	want, err := spyRef.RunWindowSequential(drvRef, 0, duration)
	if err != nil {
		t.Fatal(err)
	}
	wantTSC := pRef.M.RDTSC()

	pool := NewScanPool()
	for _, v := range temporalVariants() {
		v := v
		t.Run(fmt.Sprintf("workers=%d/pooled=%v", v.workers, v.pooled), func(t *testing.T) {
			opt := Options{Workers: v.workers}
			if v.pooled {
				opt.Pool = pool
			}
			p, drv, targets, _ := temporalVictim(t, seed, opt)
			spy := &BehaviorSpy{P: p, Targets: targets, PagesPerModule: 10, TickSec: 1}
			got, err := spy.RunWindow(drv, 0, duration)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatal("engine spy traces differ from sequential yardstick")
			}
			if tsc := p.M.RDTSC(); tsc != wantTSC {
				t.Fatalf("simulated clock differs: %d, yardstick %d", tsc, wantTSC)
			}
		})
	}
}

// Consecutive spy windows on one prober must continue the victim timeline:
// a [0,20) then [20,40) pair observes the same activity pattern the ground
// truth describes, and both windows stay bit-identical across worker
// settings.
func TestBehaviorSpyWindowsCompose(t *testing.T) {
	const seed = 707
	run := func(opt Options) [][]SpyTrace {
		p, drv, targets, _ := temporalVictim(t, seed, opt)
		spy := &BehaviorSpy{P: p, Targets: targets, PagesPerModule: 10, TickSec: 1}
		var out [][]SpyTrace
		for _, w := range [][2]float64{{0, 20}, {20, 40}} {
			traces, err := spy.RunWindow(drv, w[0], w[1])
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, traces)
		}
		return out
	}

	want := run(Options{})
	got := run(Options{Workers: 4, Pool: NewScanPool()})
	if !reflect.DeepEqual(want, got) {
		t.Fatal("windowed spy runs differ between inline and pooled-parallel")
	}

	// The second window must start where the first ended (sample times are
	// victim-timeline absolute), and the activity verdicts must track the
	// ground truth across the boundary.
	if s := want[1][0].Samples[0]; s.TimeSec != 20 {
		t.Fatalf("second window starts at %v, want 20", s.TimeSec)
	}
	_, _, _, truth := temporalVictim(t, seed, Options{})
	for wi, traces := range want {
		for ti, tr := range traces {
			if acc := tr.Accuracy(truth[ti]); acc < 0.9 {
				t.Fatalf("window %d target %d accuracy %.2f", wi, ti, acc)
			}
		}
	}
}

// The engine-based app fingerprinter must match the sequential yardstick —
// same classification and same simulated clock — at workers 0/1/4/8 ×
// own/shared pool, for every profile in the standard population.
func TestAppFingerprintEngineParity(t *testing.T) {
	const seed = 808
	profiles := StandardAppProfiles()

	// Reference: sequential yardstick per profile.
	type ref struct {
		name string
		tsc  uint64
	}
	classify := func(truth AppProfile, opt Options, sequential bool) ref {
		m := machine.New(uarch.IceLake1065G7(), seed)
		k, err := linux.Boot(m, linux.Config{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		p, err := NewProber(m, opt)
		if err != nil {
			t.Fatal(err)
		}
		watch, err := LocateWatch(Modules(p, SizeTable(k.ProcModules())), profiles)
		if err != nil {
			t.Fatal(err)
		}
		drv, err := behavior.NewDriver(k, TimelinesFor(truth, 60)...)
		if err != nil {
			t.Fatal(err)
		}
		fp := &AppFingerprinter{P: p, Watch: watch, Profiles: profiles, Ticks: 8}
		var got AppProfile
		if sequential {
			got, err = fp.ClassifyFromSequential(drv, 0)
		} else {
			got, err = fp.ClassifyFrom(drv, 0)
		}
		if err != nil {
			t.Fatal(err)
		}
		return ref{name: got.Name, tsc: p.M.RDTSC()}
	}

	pool := NewScanPool()
	for _, truth := range profiles {
		want := classify(truth, Options{}, true)
		if want.name != truth.Name {
			t.Fatalf("yardstick misclassifies %s as %s", truth.Name, want.name)
		}
		for _, v := range temporalVariants() {
			opt := Options{Workers: v.workers}
			if v.pooled {
				opt.Pool = pool
			}
			got := classify(truth, opt, false)
			if got != want {
				t.Fatalf("%s at workers=%d pooled=%v: got %+v, yardstick %+v",
					truth.Name, v.workers, v.pooled, got, want)
			}
		}
	}
}
