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
// Options.Workers, the slot scan's sweep parallelism, and Options.Pool:
// each trial boots a fresh victim, but a shared pool rebinds the same
// worker replicas to it, so the clone cost is paid once per session
// instead of once per trial).
func EvaluateKernelBase(preset *uarch.Preset, n int, seed uint64, opt Options) (TrialReport, error) {
	return evaluate(preset, "Base", n, seed, 0x9e37, opt,
		func(p *Prober, k *linux.Kernel, rep *TrialReport) (float64, float64) {
			res, err := KernelBase(p)
			if err == nil && res.Base == k.Base {
				rep.Correct++
			}
			return res.ProbeSeconds(preset), res.TotalSeconds(preset)
		})
}

// EvaluateModules reboots n times and scores module detection: the trial
// accuracy is the fraction of loaded modules whose base and size were
// recovered exactly (the Table I "Modules" rows). opt configures each
// trial's prober, as in EvaluateKernelBase.
func EvaluateModules(preset *uarch.Preset, n int, seed uint64, opt Options) (TrialReport, error) {
	var accSum float64
	rep, err := evaluate(preset, "Modules", n, seed, 0x517c, opt,
		func(p *Prober, k *linux.Kernel, rep *TrialReport) (float64, float64) {
			table := SizeTable(k.ProcModules())
			res := Modules(p, table)
			acc := ScoreModules(res, k.Modules, table).DetectionAccuracy()
			accSum += acc
			if acc >= 0.99 {
				rep.Correct++
			}
			return preset.CyclesToSeconds(res.ProbeCycles), preset.CyclesToSeconds(res.TotalCycles)
		})
	if err != nil {
		return rep, err
	}
	// Table I's module accuracy is per-module, not per-trial.
	rep.ItemAccuracy = accSum / float64(n)
	return rep, nil
}

// evaluate is the Table I trial loop: trial i boots a fresh victim on
// preset with seed seed + i*stride, calibrates a prober with opt, and runs
// attack, which scores the trial into rep and returns its probing and
// total runtimes in seconds. A trial whose attack delivered a page fault
// ends the evaluation with an error: suppression is the attack's point.
func evaluate(preset *uarch.Preset, target string, n int, seed, stride uint64, opt Options,
	attack func(p *Prober, k *linux.Kernel, rep *TrialReport) (probeSec, totalSec float64)) (TrialReport, error) {
	rep := TrialReport{CPU: preset.Name, Target: target, Trials: n}
	var probeSum, totalSum float64
	for i := 0; i < n; i++ {
		s := seed + uint64(i)*stride
		m := machine.New(preset, s)
		k, err := linux.Boot(m, linux.Config{Seed: s})
		if err != nil {
			return rep, err
		}
		p, err := NewProber(m, opt)
		if err != nil {
			return rep, err
		}
		probeSec, totalSec := attack(p, k, &rep)
		if p.Faults() != 0 {
			return rep, fmt.Errorf("core: attack faulted (trial %d)", i)
		}
		probeSum += probeSec
		totalSum += totalSec
		rep.ProbeStats.Add(probeSec)
	}
	rep.ProbeSec = probeSum / float64(n)
	rep.TotalSec = totalSum / float64(n)
	return rep, nil
}
