// Package fault is the deterministic seeded fault-injection layer: it
// decides, as a pure function of a single fault seed, which operations in
// the scan service fail — victim boot errors, calibration corruption,
// snapshot-restore verification failures, executor stalls and panics, and
// transient probe errors — so the scheduler's self-healing machinery
// (retries, deadlines, quarantine, shedding) can be driven at a sustained
// fault rate and still be asserted bit-identical run over run.
//
// Determinism contract. Every injection site owns an independent seed,
// split off the injector seed in a fixed order at construction (the same
// rng.Source-split discipline the simulator uses everywhere else), and
// every consumer draws from a per-(site, key, attempt) stream derived from
// that site seed. A decision therefore depends only on
//
//	(injector seed, site, consumer key, attempt, draw index)
//
// — never on wall-clock, goroutine scheduling, or how many other
// consumers drew faults concurrently. Two jobs with identical keys see
// identical fault schedules; the same job retried sees a fresh stream per
// attempt, which is what makes capped retries heal injected faults
// deterministically.
//
// A nil *Injector (and the nil *Plan it hands out) is the disabled state:
// every method is a no-op on a nil receiver, so production paths carry the
// hooks at the cost of one pointer test.
package fault

import (
	"fmt"
	"sync/atomic"

	"repro/internal/rng"
)

// Site names one fault-injection point in the stack.
type Site uint8

// The injection sites, bottom of the stack to top.
const (
	// Boot fails victim construction (linux/winkernel/userspace boot, and
	// the in-scenario boot of cloud jobs).
	Boot Site = iota
	// Calibrate corrupts threshold calibration: the calibration aborts
	// with an error instead of producing poisoned thresholds silently.
	Calibrate
	// Restore fails the snapshot-restore verification that rewinds a
	// session between jobs (machine.Restore's mutation guard).
	Restore
	// Probe injects a transient measurement error at an attack entry
	// point.
	Probe
	// Stall wedges an executor: the job blocks until the scheduler's
	// watchdog deadline fails it.
	Stall
	// Panic makes the executor's job body panic.
	Panic

	numSites
)

var siteNames = [numSites]string{"boot", "calibrate", "restore", "probe", "stall", "panic"}

// String returns the site's stable lowercase name.
func (s Site) String() string {
	if int(s) < len(siteNames) {
		return siteNames[s]
	}
	return fmt.Sprintf("site(%d)", uint8(s))
}

// Sites lists every injection site in split order.
func Sites() []Site {
	out := make([]Site, numSites)
	for i := range out {
		out[i] = Site(i)
	}
	return out
}

// Rates holds the per-site fault probabilities in [0, 1]. The zero value
// injects nothing.
type Rates struct {
	Boot      float64 `json:"boot,omitempty"`
	Calibrate float64 `json:"calibrate,omitempty"`
	Restore   float64 `json:"restore,omitempty"`
	Probe     float64 `json:"probe,omitempty"`
	Stall     float64 `json:"stall,omitempty"`
	Panic     float64 `json:"panic,omitempty"`
}

// Uniform sets every site to probability p.
func Uniform(p float64) Rates {
	return Rates{Boot: p, Calibrate: p, Restore: p, Probe: p, Stall: p, Panic: p}
}

// of returns the rate for one site, clamped to [0, 1].
func (r Rates) of(s Site) float64 {
	var p float64
	switch s {
	case Boot:
		p = r.Boot
	case Calibrate:
		p = r.Calibrate
	case Restore:
		p = r.Restore
	case Probe:
		p = r.Probe
	case Stall:
		p = r.Stall
	case Panic:
		p = r.Panic
	}
	if p < 0 {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}

// Config seeds an injector.
type Config struct {
	// Seed is the fault seed: the entire fault schedule is a pure function
	// of it (plus each consumer's key and attempt number).
	Seed uint64 `json:"seed"`
	// Rates are the per-site fault probabilities.
	Rates Rates `json:"rates"`
}

// Enabled reports whether any site can ever fire.
func (c Config) Enabled() bool {
	for s := Site(0); s < numSites; s++ {
		if c.Rates.of(s) > 0 {
			return true
		}
	}
	return false
}

// Injector is a seeded fault source shared by every consumer (executor,
// session builder, machine) in one scheduler. It is immutable after
// New apart from the fired counters, so concurrent Plan/Fire use needs no
// locking.
type Injector struct {
	rates    [numSites]float64
	siteSeed [numSites]uint64
	fired    [numSites]atomic.Uint64
}

// New builds an injector from cfg, deriving one independent seed per site
// by splitting a source seeded with cfg.Seed in fixed site order. It
// returns nil — the disabled injector — when no site has a positive rate,
// so fault-free schedulers pay nothing beyond nil tests.
func New(cfg Config) *Injector {
	if !cfg.Enabled() {
		return nil
	}
	in := &Injector{}
	parent := rng.New(cfg.Seed)
	for s := Site(0); s < numSites; s++ {
		// One split per site in declaration order: each site's stream is
		// independent of every other's, so enabling or re-rating one site
		// never shifts the schedule of another.
		in.siteSeed[s] = parent.Split().Uint64()
		in.rates[s] = cfg.Rates.of(s)
	}
	return in
}

// Plan binds the injector to one consumer identity — in the scan service,
// one (job, attempt) pair. Draws made through the plan are a pure function
// of (injector seed, site, key, attempt, draw index) regardless of what
// any other plan draws concurrently. A nil injector returns a nil plan;
// both are safe to use.
func (in *Injector) Plan(key uint64, attempt int) *Plan {
	if in == nil {
		return nil
	}
	return &Plan{in: in, key: key, attempt: attempt}
}

// Fired returns how many faults the injector has injected at site s.
func (in *Injector) Fired(s Site) uint64 {
	if in == nil {
		return 0
	}
	return in.fired[s].Load()
}

// TotalFired returns the total injected-fault count across all sites.
func (in *Injector) TotalFired() uint64 {
	if in == nil {
		return 0
	}
	var t uint64
	for s := Site(0); s < numSites; s++ {
		t += in.fired[s].Load()
	}
	return t
}

// Plan is one consumer's deterministic view of the fault schedule: a lazy
// per-site rng.Source derived from (site seed, key, attempt). A plan is
// used by a single goroutine at a time (the executor running the attempt).
// In the scan service one plan serves one job attempt: the scheduler
// installs it as the session machine's Faults, where machine.Fire draws
// the boot, calibrate, restore and probe sites, and draws the stall and
// panic sites itself.
type Plan struct {
	in      *Injector
	key     uint64
	attempt int

	src    [numSites]rng.Source
	seeded [numSites]bool
}

// Fire draws the next decision for site s and returns the injected fault,
// or nil for "no fault". Successive calls at the same site advance that
// site's stream (an attempt that restores twice draws twice). Nil plans
// never fire.
func (p *Plan) Fire(s Site) *Fault {
	if p == nil {
		return nil
	}
	rate := p.in.rates[s]
	if rate <= 0 {
		return nil
	}
	if !p.seeded[s] {
		p.src[s].Reseed(mix3(p.in.siteSeed[s], p.key, uint64(p.attempt)))
		p.seeded[s] = true
	}
	if p.src[s].Float64() >= rate {
		return nil
	}
	p.in.fired[s].Add(1)
	return &Fault{Site: s, Key: p.key, Attempt: p.attempt}
}

// Fault is one injected failure. All injected faults are transient by
// construction: a retry draws a fresh per-attempt stream, so capped
// retries heal any fault whose rate is below one.
type Fault struct {
	// Site is where the fault was injected.
	Site Site
	// Key identifies the consumer (the job's fault key in the service).
	Key uint64
	// Attempt is the 1-based attempt the fault fired on.
	Attempt int
}

// Error describes the injected fault. The message is a pure function of
// the fault's identity, so error strings are stable across runs (the chaos
// suite compares them in traces).
func (f *Fault) Error() string {
	return fmt.Sprintf("fault: injected %s fault (key %#x, attempt %d)", f.Site, f.Key, f.Attempt)
}

// mix3 collapses (a, b, c) into one well-mixed 64-bit seed using the
// SplitMix64 finalizer twice, so structured inputs (small attempt numbers,
// similar keys) still land on uncorrelated streams.
func mix3(a, b, c uint64) uint64 {
	return mix(mix(a, b), c)
}

func mix(a, b uint64) uint64 {
	z := a ^ (b + 0x9e3779b97f4a7c15)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
