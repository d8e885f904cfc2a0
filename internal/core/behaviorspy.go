package core

import (
	"fmt"
	"math"

	"repro/internal/behavior"
	"repro/internal/fault"
	"repro/internal/linux"
	"repro/internal/paging"
)

// SpySample is one spy-tick observation of one monitored module.
type SpySample struct {
	TimeSec float64
	// MinCycles is the fastest probe over the module's leading pages; a
	// TLB-resident translation pulls it down to the assist-only latency.
	MinCycles float64
	// Active is the spy's verdict: the module was used since the last tick.
	Active bool
}

// SpyTrace is one module's observation series (one panel of Figure 6).
type SpyTrace struct {
	Module  string
	Samples []SpySample
}

// Accuracy scores the trace against ground truth activity windows.
func (t SpyTrace) Accuracy(tl *behavior.Timeline) float64 {
	if len(t.Samples) == 0 {
		return 0
	}
	ok := 0
	for _, s := range t.Samples {
		if s.Active == tl.ActiveAt(s.TimeSec) {
			ok++
		}
	}
	return float64(ok) / float64(len(t.Samples))
}

// MaxSpyTargets bounds the modules one spy — and so one app fingerprinter's
// watch — probes per sweep (the tick verdict is a fixed-size record so the
// sweep can merge it).
const MaxSpyTargets = 8

// tickObs is one tick's observation across all watched targets — the
// verdict type of the temporal sweep. Unused slots stay zero.
type tickObs struct {
	min    [MaxSpyTargets]float64
	active [MaxSpyTargets]bool
}

// windowTicks returns how many TickSec ticks the half-open window [t0, t1)
// holds (tick i sampling at t0 + i*tick, like the legacy 1 Hz loop).
func windowTicks(t0, t1, tick float64) int {
	if t1 <= t0 || tick <= 0 {
		return 0
	}
	return int(math.Ceil((t1-t0)/tick - 1e-9))
}

// BehaviorSpy mounts the §IV-E user-behavior inference: a spy process
// repeats the TLB attack (P4) against the leading pages of target kernel
// modules at tick intervals. When the victim uses the device (Bluetooth
// audio, mouse movement), the kernel executes the module and its
// translations become TLB-resident, so the spy's probes run fast.
//
// The spy needs the modules' addresses — obtained beforehand with the
// Modules attack; here they are passed in as located modules.
type BehaviorSpy struct {
	P *Prober
	// Targets are the monitored modules (at most MaxSpyTargets).
	Targets []linux.LoadedModule
	// PagesPerModule is how many leading pages each tick probes
	// ("the first 10 pages", §IV-E).
	PagesPerModule int
	// TickSec is the sampling interval (1 s in the paper).
	TickSec float64
}

// init fills defaults and validates the target list.
func (s *BehaviorSpy) init() error {
	if s.PagesPerModule <= 0 {
		s.PagesPerModule = 10
	}
	if s.TickSec <= 0 {
		s.TickSec = 1.0
	}
	if len(s.Targets) > MaxSpyTargets {
		return fmt.Errorf("core: %d spy targets, max %d", len(s.Targets), MaxSpyTargets)
	}
	return nil
}

// tick runs one spy tick at victim time t on p's machine: canonical tick
// state, victim events of the tick's window replayed by the driver, clock
// advance, one min-over-leading-pages TLB probe per target, full eviction
// so the next tick starts cold. The tick's outcome is a pure function of
// (victim image, driver schedule, t, p's noise position) — which machine
// runs it never matters, the property the sharded sweep rests on.
//
// Each target's leading-page sweep goes through ProbeTLBBatch into
// prober-owned windows, with the per-probe plumbing paid once per target
// and zero steady-state allocations (the alloc-guard tests pin this).
func (s *BehaviorSpy) tick(p *Prober, d *behavior.Driver, t float64) tickObs {
	m := p.M
	m.ResetTranslationState()
	d.ReplayWindow(m, t, t+s.TickSec)
	m.AdvanceSeconds(s.TickSec)
	var obs tickObs
	for ti := range s.Targets {
		target := &s.Targets[ti]
		n := leadingPages(s.PagesPerModule, target.Size)
		min := 0.0
		if n > 0 {
			cyc, fast := p.tickWindows(n)
			p.ProbeTLBBatch(target.Base, n, paging.Page4K, cyc, fast)
			min = cyc[0]
			for _, c := range cyc[1:] {
				if c < min {
					min = c
				}
			}
		}
		obs.min[ti] = min
		obs.active[ti] = p.Threshold.Classify(min)
	}
	m.EvictTLB()
	return obs
}

// leadingPages returns how many of a module's leading pages a tick probes:
// want pages, clipped to the pages the module actually maps.
func leadingPages(want int, size uint64) int {
	n := 0
	for pg := 0; pg < want && uint64(pg)<<12 < size; pg++ {
		n++
	}
	return n
}

// spyWorker shards the spy's time axis: probe index i is tick i of the
// window, and each chunk of ticks replays its own driver events against the
// worker's private machine replica (behavior.Driver.ReplayWindow is
// stateless), so a chunk's observations are bit-identical no matter which
// worker runs it. Healing is disabled for the temporal sweep — adjacent ticks
// legitimately disagree whenever the victim starts or stops an activity.
type spyWorker struct {
	workerBase
	spy *BehaviorSpy
	d   *behavior.Driver
	t0  float64
}

// ProbeChunk runs the chunk's ticks in order. Temporal sweeps ignore the
// address axis: index i is tick i.
func (w *spyWorker) ProbeChunk(_ paging.VirtAddr, _ uint64, lo, hi int,
	verdicts []tickObs, cycles []float64) {
	for i := lo; i < hi; i++ {
		obs := w.spy.tick(w.p, w.d, w.t0+float64(i)*w.spy.TickSec)
		verdicts[i-lo], cycles[i-lo] = obs, obs.min[0]
	}
}

// RunWindow runs the spy over the victim-time window [t0, t1) and returns
// one trace per target, aligned with the driver's timelines. Output is
// bit-identical at any worker setting, whichever pooled replicas serve it,
// and to the plain sequential tick loop the parity suite keeps as its
// yardstick.
//
// Windows compose: consecutive RunWindow calls on one prober continue the
// victim's timeline, which is what lets a service session carry spy state
// across jobs (checkpoint after each window, restore before the next).
func (s *BehaviorSpy) RunWindow(d *behavior.Driver, t0, t1 float64) ([]SpyTrace, error) {
	if err := s.P.M.Fire(fault.Probe); err != nil {
		return nil, err
	}
	if err := s.init(); err != nil {
		return nil, err
	}
	return s.assemble(t0, s.sweep(d, t0, windowTicks(t0, t1, s.TickSec))), nil
}

// sweep runs n ticks from victim time t0 through runSweep — the one
// temporal sweep, which the app fingerprinter also votes on. Ticks become
// probe indices, chunks of ticks fan out across Options.Workers machine
// replicas, and each worker replays the driver events of its chunk's
// window against its replica. The spy must be initialized.
func (s *BehaviorSpy) sweep(d *behavior.Driver, t0 float64, n int) []tickObs {
	// Materialize unbounded victim timelines through the window before the
	// fan-out: worker replicas then replay events as pure reads.
	d.EnsureHorizon(t0 + float64(n)*s.TickSec)
	obs, _ := runSweep(s.P, 0, n, 1, tickChunk,
		func(rp *Prober) *spyWorker {
			return &spyWorker{workerBase: workerBase{p: rp}, spy: s, d: d, t0: t0}
		}, nil)
	return obs
}

// assemble splits the merged per-tick observations into per-target traces.
func (s *BehaviorSpy) assemble(t0 float64, obs []tickObs) []SpyTrace {
	traces := make([]SpyTrace, len(s.Targets))
	for ti, target := range s.Targets {
		traces[ti].Module = target.Name
		traces[ti].Samples = make([]SpySample, len(obs))
		for i, o := range obs {
			traces[ti].Samples[i] = SpySample{
				TimeSec:   t0 + float64(i)*s.TickSec,
				MinCycles: o.min[ti],
				Active:    o.active[ti],
			}
		}
	}
	return traces
}

// LocateTargets resolves target module names to loaded modules via a prior
// Modules attack result, using unique-size classification; it falls back to
// ground truth being unnecessary — an error is returned if a target was not
// uniquely identified.
func LocateTargets(res ModulesResult, names ...string) ([]linux.LoadedModule, error) {
	var out []linux.LoadedModule
	for _, name := range names {
		found := false
		for _, r := range res.Regions {
			if r.Unique() && r.Names[0] == name {
				out = append(out, linux.LoadedModule{
					ModuleSpec: linux.ModuleSpec{Name: name, Size: r.Size},
					Base:       r.Base,
				})
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("core: target module %q not uniquely identified", name)
		}
	}
	return out, nil
}
