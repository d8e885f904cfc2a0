// Package behavior generates the victim-activity timelines of §IV-E: user
// actions (Bluetooth audio streaming, mouse movement, keystrokes) that make
// the kernel execute the corresponding driver module, leaving its address
// translations in the TLB — the observable the spy process samples.
package behavior

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/linux"
	"repro/internal/machine"
	"repro/internal/paging"
	"repro/internal/rng"
)

// Activity is one kind of user behavior and the module that services it.
type Activity struct {
	// Name labels the activity (for plots).
	Name string
	// Module is the kernel module whose code runs while active.
	Module string
	// PagesTouched is how many of the module's leading pages each event
	// touches (the spy probes "the first 10 pages", §IV-E).
	PagesTouched int
	// EventHz is the event rate while the activity is on (e.g. Bluetooth
	// audio ticks many times per second; mouse interrupts likewise).
	EventHz float64
}

// BluetoothAudio is the §IV-E Bluetooth audio-streaming activity.
func BluetoothAudio() Activity {
	return Activity{Name: "Bluetooth audio", Module: "bluetooth", PagesTouched: 10, EventHz: 50}
}

// MouseMovement is the §IV-E mouse-movement activity.
func MouseMovement() Activity {
	return Activity{Name: "Mouse movements", Module: "psmouse", PagesTouched: 6, EventHz: 60}
}

// Keystrokes models keyboard input through the HID stack (the extension
// the paper's §IV-E suggests).
func Keystrokes() Activity {
	return Activity{Name: "Keystrokes", Module: "usbhid", PagesTouched: 4, EventHz: 12}
}

// Interval is a half-open [Start, End) activity window in seconds.
type Interval struct{ Start, End float64 }

// Contains reports whether t falls inside the interval.
func (iv Interval) Contains(t float64) bool { return t >= iv.Start && t < iv.End }

// Timeline is one activity's on/off schedule over an experiment. On is
// kept sorted by start time with non-overlapping intervals (every
// constructor guarantees this), so lookups binary-search.
//
// A timeline is either bounded (On is the complete schedule — nothing
// happens outside it) or unbounded (built by UnboundedTimeline): unbounded
// timelines extend their burst schedule lazily from a private deterministic
// source, so the schedule reaches any horizon and is bit-identical no
// matter when — or in what order — it was materialized.
type Timeline struct {
	Activity Activity
	On       []Interval
	gen      *timelineGen
}

// timelineGen is the lazy burst generator of an unbounded timeline.
type timelineGen struct {
	r               *rng.Source
	meanOff, meanOn float64
	// frontier is the start of the next (not yet generated) burst: every
	// interval beginning before frontier exists in On, and [lastEnd,
	// frontier) is known-off. Extension only ever appends past it —
	// already-generated intervals never change, which is what makes lazy
	// materialization deterministic.
	frontier float64
}

// ActiveAt reports whether the activity is on at time t. On an unbounded
// timeline this lazily extends the schedule through t; concurrent readers
// (scan-engine worker replicas replaying windows) must materialize their
// horizon first via EnsureCoverage / Driver.EnsureHorizon, after which
// ActiveAt below that horizon is a pure read.
func (tl *Timeline) ActiveAt(t float64) bool {
	if tl.gen != nil && t >= tl.gen.frontier {
		tl.extend(t)
	}
	// First interval that ends after t; if any interval covers t it is
	// that one.
	i := sort.Search(len(tl.On), func(i int) bool { return tl.On[i].End > t })
	return i < len(tl.On) && tl.On[i].Contains(t)
}

// EnsureCoverage materializes an unbounded timeline's schedule so that
// every query strictly below t (and t itself) is a pure read. No-op on
// bounded timelines. Idempotent; not safe for concurrent use — call it
// before fanning replay out across goroutines.
func (tl *Timeline) EnsureCoverage(t float64) {
	if tl.gen != nil && t >= tl.gen.frontier {
		tl.extend(t)
	}
}

// extend generates bursts until the frontier passes t. Each burst consumes
// exactly two draws (on-length, next off-gap) in a fixed order, so the
// resulting schedule depends only on the source's seed, never on the query
// sequence that triggered generation.
func (tl *Timeline) extend(t float64) {
	g := tl.gen
	for g.frontier <= t {
		start := g.frontier
		end := start + g.r.Exponential(g.meanOn)
		tl.On = append(tl.On, Interval{Start: start, End: end})
		g.frontier = end + g.r.Exponential(g.meanOff)
	}
}

// RandomTimeline builds a timeline over [0, duration) with activity bursts:
// alternating off/on periods drawn from exponential holding times.
func RandomTimeline(act Activity, duration float64, meanOff, meanOn float64, r *rng.Source) *Timeline {
	tl := &Timeline{Activity: act}
	t := r.Exponential(meanOff)
	for t < duration {
		on := r.Exponential(meanOn)
		end := t + on
		if end > duration {
			end = duration
		}
		tl.On = append(tl.On, Interval{Start: t, End: end})
		t = end + r.Exponential(meanOff)
	}
	return tl
}

// UnboundedTimeline builds a timeline with no horizon: alternating
// off/on periods drawn from exponential holding times, generated lazily as
// queries (or EnsureCoverage calls) reach further into the future. The
// source must be private to this timeline — each burst consumes draws in a
// fixed order, so the schedule is a pure function of the source's seed and
// identical however the timeline is materialized. Prefix property: the
// first bursts match RandomTimeline with the same parameters and seed
// (modulo RandomTimeline's truncation at its duration).
func UnboundedTimeline(act Activity, meanOff, meanOn float64, src *rng.Source) *Timeline {
	tl := &Timeline{Activity: act, gen: &timelineGen{r: src, meanOff: meanOff, meanOn: meanOn}}
	tl.gen.frontier = src.Exponential(meanOff)
	return tl
}

// FixedTimeline builds a timeline from explicit windows (sorted here so
// lookups can binary-search; windows must not overlap).
func FixedTimeline(act Activity, on ...Interval) *Timeline {
	sort.Slice(on, func(i, j int) bool { return on[i].Start < on[j].Start })
	return &Timeline{Activity: act, On: on}
}

// DefaultResolution is the driver's event-grid spacing in seconds: victim
// activity fires once per grid point while a timeline is on (the paper's
// Figure 6 samples at 1 Hz, so one victim burst per spy tick).
const DefaultResolution = 1.0

// Driver is a deterministic event source replaying one or more
// timelines against a booted kernel. Victim events live on a fixed time
// grid (multiples of the resolution, DefaultResolution unless
// SetResolution changed it): event k fires at time k*resolution for
// every timeline on at that instant, touching the module's leading pages —
// which installs the module's translations in the TLB of whatever machine
// the events are replayed against.
//
// The event schedule is a pure function of (timelines, resolution): it can
// be replayed for any time window, on any machine sharing the victim's
// address space, any number of times, in any order — the property the scan
// engine's chunked workers rely on to reproduce driver-induced TLB fills
// per time-window chunk.
type Driver struct {
	timelines []*Timeline
	// touch caches each timeline's touched page VAs (module base through
	// PagesTouched, clipped to the module), resolved once at construction so
	// replay needs no per-event module lookups and cannot fail.
	touch [][]paging.VirtAddr
	res   float64
}

// NewDriver creates a driver for the kernel with the default event
// resolution. Every timeline's module must be loaded.
func NewDriver(k *linux.Kernel, timelines ...*Timeline) (*Driver, error) {
	d := &Driver{timelines: timelines, res: DefaultResolution}
	for _, tl := range timelines {
		lm, ok := k.Module(tl.Activity.Module)
		if !ok {
			return nil, fmt.Errorf("behavior: module %q not loaded", tl.Activity.Module)
		}
		var vas []paging.VirtAddr
		for i := 0; i < tl.Activity.PagesTouched && uint64(i)<<12 < lm.Size; i++ {
			vas = append(vas, lm.Base+paging.VirtAddr(uint64(i)<<12))
		}
		d.touch = append(d.touch, vas)
	}
	return d, nil
}

// SetResolution changes the event-grid spacing (call before any replay; it
// redefines the whole schedule).
func (d *Driver) SetResolution(res float64) {
	if res > 0 {
		d.res = res
	}
}

// EnsureHorizon materializes every unbounded timeline through time t, so
// that subsequent ReplayWindow calls below that horizon are pure reads and
// can safely run concurrently on worker replicas. No-op for bounded
// timelines. Call from the coordinating goroutine before fanning out.
func (d *Driver) EnsureHorizon(t float64) {
	for _, tl := range d.timelines {
		tl.EnsureCoverage(t)
	}
}

// ReplayWindow replays the events of the half-open window [t0, t1) against
// an arbitrary machine sharing the victim's address space — a scan-engine
// worker replica, the bound machine itself, anything. It is stateless,
// deterministic and idempotent-per-window, so chunked
// workers can replay disjoint windows concurrently on their private
// replicas: each replica's TLB sees exactly the fills the victim produced
// in that window.
func (d *Driver) ReplayWindow(m *machine.Machine, t0, t1 float64) {
	if t1 <= t0 {
		return
	}
	// First grid point >= t0.
	k := int(math.Ceil(t0/d.res - timeEps))
	if k < 0 {
		k = 0
	}
	for ; ; k++ {
		t := float64(k) * d.res
		if t >= t1-timeEps*d.res {
			return
		}
		for ti, tl := range d.timelines {
			if tl.ActiveAt(t) {
				m.KernelTouch(d.touch[ti]...)
			}
		}
	}
}

// timeEps absorbs float accumulation when tick times are reconstructed as
// t0 + i*tick: a grid point must not fall out of (or into) a window over a
// 1e-9-relative rounding wobble.
const timeEps = 1e-9
