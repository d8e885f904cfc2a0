package core

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"repro/internal/behavior"
	"repro/internal/fault"
	"repro/internal/linux"
)

// AppProfile describes an application by the kernel modules its activity
// exercises — the fingerprinting extension §IV-E sketches ("not only to
// monitor other events (e.g., keystroke) but also to fingerprint
// applications or websites"). A music player drives bluetooth; a shooter
// drives psmouse+usbhid; a file sync tool drives the NIC driver; and so
// on.
type AppProfile struct {
	Name string
	// Modules lists the driver modules the app keeps active.
	Modules []string
}

// StandardAppProfiles returns a distinguishable demo population. Every
// referenced module has a unique mapped size on the default victim, so the
// spy can locate them all with the module attack alone (no ground truth
// needed).
func StandardAppProfiles() []AppProfile {
	return []AppProfile{
		{Name: "music-player", Modules: []string{"bluetooth"}},
		{Name: "fps-game", Modules: []string{"psmouse", "mac_hid"}},
		{Name: "video-call", Modules: []string{"bluetooth", "uvcvideo-like:video"}},
		{Name: "file-sync", Modules: []string{"e1000e"}},
		{Name: "idle-desktop", Modules: nil},
	}
}

// appModule resolves profile module names: entries of the form
// "alias:real" use the real module name (lets profiles stay readable while
// reusing the loaded-module DB).
func appModule(name string) string {
	return name[strings.IndexByte(name, ':')+1:]
}

// LocateWatch builds the watch map of a profile population: every module a
// profile references, keyed by its real name and located via a prior
// Modules attack result (LocateTargets' unique-size classification).
func LocateWatch(res ModulesResult, profiles []AppProfile) (map[string]linux.LoadedModule, error) {
	watch := make(map[string]linux.LoadedModule)
	for _, prof := range profiles {
		for _, mn := range prof.Modules {
			name := appModule(mn)
			if _, ok := watch[name]; ok {
				continue
			}
			targets, err := LocateTargets(res, name)
			if err != nil {
				return nil, err
			}
			watch[name] = targets[0]
		}
	}
	return watch, nil
}

// AppFingerprinter observes a set of module addresses and classifies the
// foreground application by which modules show TLB activity. It runs the
// behavior spy's tick sweep over the watched modules and votes on its
// per-tick verdicts.
type AppFingerprinter struct {
	P *Prober
	// Watch maps module name → located module (from the Modules attack, see
	// LocateWatch). At most MaxSpyTargets modules: each one is a target of
	// the behavior spy's tick.
	Watch map[string]linux.LoadedModule
	// Profiles is the candidate population.
	Profiles []AppProfile
	// Ticks and TickSec control the observation window.
	Ticks   int
	TickSec float64

	// spy sweeps the watched modules; names[i] is the Watch key of
	// spy.Targets[i]. Both are rebuilt per window in reused buffers.
	spy   BehaviorSpy
	names []string
}

// init fills defaults and freezes the watch list in sorted-name order as
// the spy's targets: the per-tick probe sequence (and therefore the
// noise-draw assignment) must be deterministic, which iterating the Watch
// map never was.
func (f *AppFingerprinter) init() error {
	if f.Ticks <= 0 {
		f.Ticks = 10
	}
	if f.TickSec <= 0 {
		f.TickSec = 1
	}
	f.names = f.names[:0]
	for name := range f.Watch {
		f.names = append(f.names, name)
	}
	slices.Sort(f.names)
	targets := f.spy.Targets[:0]
	for _, name := range f.names {
		targets = append(targets, f.Watch[name])
	}
	f.spy = BehaviorSpy{P: f.P, Targets: targets, PagesPerModule: 4, TickSec: f.TickSec}
	return f.spy.init()
}

// ClassifyFrom observes the window [t0, t0 + Ticks*TickSec) with the
// behavior spy's sweep and classifies the foreground app by majority vote
// over the ticks. Output is bit-identical at any worker setting and pool
// history, and to the sequential yardstick loop of the parity suite.
// Windows compose like the behavior spy's: consecutive calls continue the
// victim's timeline.
func (f *AppFingerprinter) ClassifyFrom(d *behavior.Driver, t0 float64) (AppProfile, error) {
	if err := f.P.M.Fire(fault.Probe); err != nil {
		return AppProfile{}, err
	}
	if err := f.init(); err != nil {
		return AppProfile{}, err
	}
	return f.match(f.spy.sweep(d, t0, f.Ticks))
}

// match tallies the per-tick verdicts — a module counts as active when hot
// in a majority of ticks (single-tick transients are noise) — and matches
// the active set exactly against the profile population.
func (f *AppFingerprinter) match(obs []tickObs) (AppProfile, error) {
	var active []string // in the sorted order of names
	for wi, name := range f.names {
		votes := 0
		for i := range obs {
			if obs[i].active[wi] {
				votes++
			}
		}
		if votes > f.Ticks/2 {
			active = append(active, name)
		}
	}
	for _, prof := range f.Profiles {
		if namesExactly(prof, active) {
			return prof, nil
		}
	}
	return AppProfile{}, fmt.Errorf("%w active set %v", ErrNoProfileMatch, active)
}

// namesExactly reports whether the profile names exactly the modules of
// the duplicate-free set active: as many modules, and every active one
// among them.
func namesExactly(prof AppProfile, active []string) bool {
	if len(prof.Modules) != len(active) {
		return false
	}
	for _, name := range active {
		if !slices.ContainsFunc(prof.Modules, func(mn string) bool { return appModule(mn) == name }) {
			return false
		}
	}
	return true
}

// ErrNoProfileMatch reports an observed active set that matches no profile
// in the population: an attack outcome (the app was not recognized), as
// opposed to a failure to observe.
var ErrNoProfileMatch = errors.New("core: no profile matches")

// TimelinesFor builds always-on timelines for an app profile over a
// window, for driving the victim in tests and demos.
func TimelinesFor(prof AppProfile, duration float64) []*behavior.Timeline {
	var tls []*behavior.Timeline
	for _, mn := range prof.Modules {
		act := behavior.Activity{
			Name:         prof.Name + "/" + mn,
			Module:       appModule(mn),
			PagesTouched: 4,
			EventHz:      30,
		}
		tls = append(tls, behavior.FixedTimeline(act, behavior.Interval{Start: 0, End: duration}))
	}
	return tls
}
