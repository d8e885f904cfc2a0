package core

import (
	"fmt"

	"repro/internal/linux"
	"repro/internal/machine"
	"repro/internal/stats"
	"repro/internal/uarch"
)

// TrialReport aggregates an n-trial evaluation of one attack on one CPU —
// one cell group of Table I.
type TrialReport struct {
	CPU     string
	Target  string
	Trials  int
	Correct int
	// ItemAccuracy, when non-zero, overrides the trial-success rate with a
	// per-item mean (the module attack scores per-module detection).
	ItemAccuracy float64
	// ProbeSec and TotalSec are the mean runtimes in seconds.
	ProbeSec, TotalSec float64
	// ProbeStats collects per-trial probing runtimes for dispersion.
	ProbeStats stats.Stream
}

// Accuracy returns the success fraction.
func (r TrialReport) Accuracy() float64 {
	if r.ItemAccuracy > 0 {
		return r.ItemAccuracy
	}
	if r.Trials == 0 {
		return 0
	}
	return float64(r.Correct) / float64(r.Trials)
}

// String renders a Table I row.
func (r TrialReport) String() string {
	return fmt.Sprintf("%-28s %-8s probe=%10.3gs total=%10.3gs acc=%6.2f%% (n=%d)",
		r.CPU, r.Target, r.ProbeSec, r.TotalSec, 100*r.Accuracy(), r.Trials)
}

// EvaluateKernelBase reboots the victim n times with fresh KASLR and runs
// the base-derandomization attack each time, scoring exact base recovery
// (the paper's Table I methodology: reboot, attack, check
// /proc/kallsyms). opt configures each trial's prober (notably
// Options.Workers, the slot scan's engine parallelism, and Options.Pool:
// each trial boots a fresh victim, but a shared pool rebinds the same
// worker replicas to it, so the clone cost is paid once per session
// instead of once per trial).
func EvaluateKernelBase(preset *uarch.Preset, n int, seed uint64, opt Options) (TrialReport, error) {
	rep := TrialReport{CPU: preset.Name, Target: "Base", Trials: n}
	var probeSum, totalSum float64
	for i := 0; i < n; i++ {
		s := seed + uint64(i)*0x9e37
		m := machine.New(preset, s)
		k, err := linux.Boot(m, linux.Config{Seed: s})
		if err != nil {
			return rep, err
		}
		p, err := NewProber(m, opt)
		if err != nil {
			return rep, err
		}
		res, err := KernelBase(p)
		if err == nil && res.Base == k.Base {
			rep.Correct++
		}
		if p.Faults() != 0 {
			return rep, fmt.Errorf("core: attack faulted (trial %d)", i)
		}
		probeSum += res.ProbeSeconds(preset)
		totalSum += res.TotalSeconds(preset)
		rep.ProbeStats.Add(res.ProbeSeconds(preset))
	}
	rep.ProbeSec = probeSum / float64(n)
	rep.TotalSec = totalSum / float64(n)
	return rep, nil
}

// EvaluateModules reboots n times and scores module detection: the trial
// accuracy is the fraction of loaded modules whose base and size were
// recovered exactly (the Table I "Modules" rows). opt configures each
// trial's prober, as in EvaluateKernelBase.
func EvaluateModules(preset *uarch.Preset, n int, seed uint64, opt Options) (TrialReport, error) {
	rep := TrialReport{CPU: preset.Name, Target: "Modules", Trials: n}
	var probeSum, totalSum, accSum float64
	for i := 0; i < n; i++ {
		s := seed + uint64(i)*0x517c
		m := machine.New(preset, s)
		k, err := linux.Boot(m, linux.Config{Seed: s})
		if err != nil {
			return rep, err
		}
		p, err := NewProber(m, opt)
		if err != nil {
			return rep, err
		}
		table := SizeTable(k.ProcModules())
		res := Modules(p, table)
		score := ScoreModules(res, k.Modules, table)
		accSum += score.DetectionAccuracy()
		if score.DetectionAccuracy() >= 0.99 {
			rep.Correct++
		}
		probeSum += preset.CyclesToSeconds(res.ProbeCycles)
		totalSum += preset.CyclesToSeconds(res.TotalCycles)
		rep.ProbeStats.Add(preset.CyclesToSeconds(res.ProbeCycles))
	}
	rep.ProbeSec = probeSum / float64(n)
	rep.TotalSec = totalSum / float64(n)
	// Table I's module accuracy is per-module, not per-trial.
	rep.ItemAccuracy = accSum / float64(n)
	return rep, nil
}
