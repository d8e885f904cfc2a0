package core

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/behavior"
	"repro/internal/linux"
	"repro/internal/uarch"
)

// TestKeystrokeInference exercises the §IV-E extension the paper predicts
// ("likely be extended … to monitor other events (e.g., keystroke)"): the
// usbhid module's TLB state tracks typing bursts.
func TestKeystrokeInference(t *testing.T) {
	p, k := bootedProber(t, uarch.IceLake1065G7(), 820, linux.Config{})
	lm, ok := k.Module("usbhid")
	if !ok {
		t.Fatal("usbhid not loaded")
	}
	targets := []linux.LoadedModule{lm}
	typing := behavior.FixedTimeline(behavior.Keystrokes(),
		behavior.Interval{Start: 5, End: 20}, behavior.Interval{Start: 40, End: 55})
	drv, err := behavior.NewDriver(k, typing)
	if err != nil {
		t.Fatal(err)
	}
	spy := &BehaviorSpy{P: p, Targets: targets, PagesPerModule: 4}
	traces, err := spy.RunWindow(drv, 0, 60)
	if err != nil {
		t.Fatal(err)
	}
	if acc := traces[0].Accuracy(typing); acc < 0.93 {
		t.Fatalf("keystroke inference accuracy %.2f", acc)
	}
}

// TestAppFingerprinting exercises the §IV-E application-fingerprinting
// extension: classify which app is in the foreground from the set of
// driver modules showing TLB activity.
func TestAppFingerprinting(t *testing.T) {
	profiles := StandardAppProfiles()
	for _, truth := range profiles {
		p, k := bootedProber(t, uarch.IceLake1065G7(), 830, linux.Config{})

		// Locate every module any profile watches (unique sizes: direct
		// classification from the module attack would work; ground-truth
		// location via Module() keeps this test focused on the spying).
		watch := make(map[string]linux.LoadedModule)
		for _, prof := range profiles {
			for _, mn := range prof.Modules {
				name := appModule(mn)
				lm, ok := k.Module(name)
				if !ok {
					t.Fatalf("module %q not loaded", name)
				}
				watch[name] = lm
			}
		}

		drv, err := behavior.NewDriver(k, TimelinesFor(truth, 60)...)
		if err != nil {
			t.Fatal(err)
		}
		f := &AppFingerprinter{P: p, Watch: watch, Profiles: profiles, Ticks: 8}
		got, err := f.ClassifyFrom(drv, 0)
		if err != nil {
			t.Fatalf("classifying %q: %v", truth.Name, err)
		}
		if got.Name != truth.Name {
			t.Fatalf("classified %q as %q", truth.Name, got.Name)
		}
	}
}

// A watch list longer than the spy tick's fixed observation record is an
// error, not an out-of-range panic inside the sweep.
func TestAppFingerprintWatchBound(t *testing.T) {
	p, k := bootedProber(t, uarch.IceLake1065G7(), 831, linux.Config{})
	lm, ok := k.Module("bluetooth")
	if !ok {
		t.Fatal("bluetooth not loaded")
	}
	watch := make(map[string]linux.LoadedModule)
	for i := 0; i <= MaxSpyTargets; i++ {
		watch[fmt.Sprintf("m%d", i)] = lm
	}
	drv, err := behavior.NewDriver(k)
	if err != nil {
		t.Fatal(err)
	}
	f := &AppFingerprinter{P: p, Watch: watch, Profiles: StandardAppProfiles(), Ticks: 4}
	_, err = f.ClassifyFrom(drv, 0)
	if err == nil || errors.Is(err, ErrNoProfileMatch) {
		t.Fatalf("%d watched modules: err %v, want a watch-bound error", len(watch), err)
	}
}

// TestAppProfilesDistinct guards the demo population: profiles must have
// distinct module sets or classification is ill-posed.
func TestAppProfilesDistinct(t *testing.T) {
	seen := map[string]string{}
	for _, prof := range StandardAppProfiles() {
		mods := make([]string, len(prof.Modules))
		for i, mn := range prof.Modules {
			mods[i] = appModule(mn)
		}
		slices.Sort(mods)
		key := strings.Join(mods, "|")
		if other, dup := seen[key]; dup {
			t.Fatalf("%s and %s share a module set", prof.Name, other)
		}
		seen[key] = prof.Name
	}
}
