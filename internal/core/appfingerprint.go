package core

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/behavior"
	"repro/internal/fault"
	"repro/internal/linux"
	"repro/internal/paging"
	"repro/internal/scan"
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

// Signature returns the sorted module list (the classification key).
func (a AppProfile) Signature() []string {
	s := append([]string(nil), a.Modules...)
	sort.Strings(s)
	return s
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
	for i := 0; i < len(name); i++ {
		if name[i] == ':' {
			return name[i+1:]
		}
	}
	return name
}

// AppFingerprinter observes a set of module addresses and classifies the
// foreground application by which modules show TLB activity.
type AppFingerprinter struct {
	P *Prober
	// Watch maps module name → located module (from the Modules attack).
	// At most 64 modules (one vote bit each per tick).
	Watch map[string]linux.LoadedModule
	// Profiles is the candidate population.
	Profiles []AppProfile
	// Ticks and TickSec control the observation window.
	Ticks   int
	TickSec float64
}

// watchEntry is one watched module with its fixed probe order position.
type watchEntry struct {
	name string
	lm   linux.LoadedModule
}

// init fills defaults and freezes the watch list in sorted-name order: the
// per-tick probe sequence (and therefore the noise-draw assignment) must be
// deterministic, which iterating the Watch map never was.
func (f *AppFingerprinter) init() ([]watchEntry, error) {
	if f.Ticks <= 0 {
		f.Ticks = 10
	}
	if f.TickSec <= 0 {
		f.TickSec = 1
	}
	if len(f.Watch) > 64 {
		return nil, fmt.Errorf("core: %d watched modules, max 64", len(f.Watch))
	}
	watch := make([]watchEntry, 0, len(f.Watch))
	for name, lm := range f.Watch {
		watch = append(watch, watchEntry{name: name, lm: lm})
	}
	sort.Slice(watch, func(i, j int) bool { return watch[i].name < watch[j].name })
	return watch, nil
}

// tick runs one observation tick at victim time t on p's machine and
// returns the bitmask of watched modules (in sorted-name order) whose
// leading pages probed TLB-hot. Same canonical tick shape as the behavior
// spy's: reset, driver replay, clock advance, probes, eviction — and the
// same batched per-target sweep (ProbeTLBBatch into prober-owned windows,
// bit-identical to the per-page loop, zero steady-state allocations).
func (f *AppFingerprinter) tick(p *Prober, d *behavior.Driver, watch []watchEntry, t float64) uint64 {
	m := p.M
	m.ResetTranslationState()
	d.ReplayWindow(m, t, t+f.TickSec)
	m.AdvanceSeconds(f.TickSec)
	var mask uint64
	for wi := range watch {
		lm := &watch[wi].lm
		n := leadingPages(4, lm.Size)
		best := 0.0
		if n > 0 {
			cyc, fast := p.tickWindows(n)
			p.ProbeTLBBatch(lm.Base, n, paging.Page4K, cyc, fast)
			best = cyc[0]
			for _, c := range cyc[1:] {
				if c < best {
					best = c
				}
			}
		}
		if p.Threshold.Classify(best) {
			mask |= 1 << wi
		}
	}
	m.EvictTLB()
	return mask
}

// fpWorker shards the fingerprinter's observation window exactly like
// spyWorker shards the behavior spy's: probe index = tick, verdict = the
// tick's hot-module bitmask, healing disabled.
type fpWorker struct {
	workerBase
	f     *AppFingerprinter
	d     *behavior.Driver
	watch []watchEntry
	t0    float64
}

func (w *fpWorker) Probe(va paging.VirtAddr) scan.Sample[uint64] {
	mask := w.f.tick(w.p, w.d, w.watch, w.t0+float64(uint64(va))*w.f.TickSec)
	return scan.Sample[uint64]{Cycles: float64(mask), Verdict: mask}
}

func (w *fpWorker) Classify(float64) uint64 { return 0 } // healing disabled

// Classify runs the observation loop against a victim driver from time 0
// and returns the best-matching profile.
func (f *AppFingerprinter) Classify(d *behavior.Driver) (AppProfile, error) {
	return f.ClassifyFrom(d, 0)
}

// ClassifyFrom observes the window [t0, t0 + Ticks*TickSec) on the scan
// engine — ticks fan out across Options.Workers replicas, each replaying
// its chunk's driver events privately — and classifies the foreground app
// by majority vote over the ticks. Output is bit-identical at any worker
// setting, pooled or fresh, and bit-identical to the sequential yardstick
// loop of the parity suite.
// Windows compose like the behavior spy's: consecutive calls continue the
// victim's timeline.
func (f *AppFingerprinter) ClassifyFrom(d *behavior.Driver, t0 float64) (AppProfile, error) {
	if err := f.P.M.Fire(fault.Probe); err != nil {
		return AppProfile{}, err
	}
	watch, err := f.init()
	if err != nil {
		return AppProfile{}, err
	}
	// Materialize unbounded victim timelines through the window before the
	// fan-out: worker replicas then replay events as pure reads.
	d.EnsureHorizon(t0 + float64(f.Ticks)*f.TickSec)
	res := runSweep(f.P, 0, f.Ticks, 1, tickChunk(f.P), -1, nil, uint64(0),
		func(rp *Prober) scan.Worker[uint64] {
			return &fpWorker{workerBase: workerBase{p: rp}, f: f, d: d, watch: watch, t0: t0}
		})
	return f.match(watch, res.Verdicts)
}

// match tallies the per-tick hot masks — a module counts as active when hot
// in a majority of ticks (single-tick transients are noise) — and matches
// the active set exactly against the profile population.
func (f *AppFingerprinter) match(watch []watchEntry, masks []uint64) (AppProfile, error) {
	var active []string
	for wi := range watch {
		votes := 0
		for _, mask := range masks {
			if mask&(1<<wi) != 0 {
				votes++
			}
		}
		if votes > f.Ticks/2 {
			active = append(active, watch[wi].name)
		}
	}
	sort.Strings(active)

	for _, prof := range f.Profiles {
		want := make([]string, 0, len(prof.Modules))
		for _, mn := range prof.Modules {
			want = append(want, appModule(mn))
		}
		sort.Strings(want)
		if equalStrings(active, want) {
			return prof, nil
		}
	}
	return AppProfile{}, fmt.Errorf("%w active set %v", ErrNoProfileMatch, active)
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

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// paging4k converts a page index to a byte offset.
func paging4k(pg int) paging.VirtAddr { return paging.VirtAddr(uint64(pg) << 12) }
