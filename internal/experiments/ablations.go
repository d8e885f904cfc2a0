package experiments

import (
	"fmt"

	"repro/internal/avx"
	"repro/internal/core"
	"repro/internal/defense"
	"repro/internal/linux"
	"repro/internal/machine"
	"repro/internal/paging"
	"repro/internal/trace"
	"repro/internal/uarch"
)

// ablation is one design choice measured in two configurations, with the
// direction the attack relies on.
type ablation struct {
	name    string
	configs [2]string
	values  [2]string
	claim   string
	holds   bool
}

// Ablations measures the attack's design choices one at a time: timing the
// second of two executions, min-of-k sampling, the paging-structure caches,
// targeted eviction, the estimator under heavy jitter and the
// re-randomization period. The rows run on fixed victims (their own seeds,
// machines and trial counts), so the Scale does not size them. The shape
// holds only if every row's direction holds.
func Ablations(Scale) Report {
	tab := &trace.Table{Header: []string{"ablation", "configuration", "value", "verdict"}}
	runs := []func() (ablation, error){
		ablateDoubleExec, ablateMinOfK, ablatePSC, ablateEviction, ablateEstimator, ablateRerandPeriod,
	}
	held := 0
	for _, run := range runs {
		a, err := run()
		if err != nil {
			return Report{ID: "ablations", Measured: err.Error()}
		}
		v := "holds: " + a.claim
		if a.holds {
			held++
		} else {
			v = "FAILS: " + a.claim
		}
		for i := range a.configs {
			tab.AddRow(a.name, a.configs[i], a.values[i], v)
		}
	}
	return Report{
		ID:    "ablations",
		Title: "Ablations of the attack's design choices",
		PaperClaim: "timing the second execution separates the classes (§III-B); evicting one translation " +
			"beats sweeping (Table I, AMD); the attack outruns re-randomization (§V-A)",
		Measured: fmt.Sprintf("%d/%d directions hold", held, len(runs)),
		OK:       held == len(runs),
		Text:     tab.Render(),
	}
}

// ablateDoubleExec compares the mapped/unmapped class separation of a
// single-shot probe, which pays the walk, with the double-execution probe
// that times the second run's TLB hit.
func ablateDoubleExec() (ablation, error) {
	sep := func(double bool) (float64, error) {
		m := machine.New(uarch.AlderLake12400F(), 7)
		k, err := linux.Boot(m, linux.Config{Seed: 7})
		if err != nil {
			return 0, err
		}
		var mapped, unmapped float64
		for i := 0; i < 200; i++ {
			m.EvictTLB()
			if double {
				m.ExecMasked(avx.MaskedLoad(k.Base, avx.ZeroMask))
			}
			t1, _ := m.Measure(avx.MaskedLoad(k.Base, avx.ZeroMask))
			mapped += t1
			t2, _ := m.Measure(avx.MaskedLoad(k.Base-8*paging.Page2M, avx.ZeroMask))
			unmapped += t2
		}
		return (unmapped - mapped) / 200, nil
	}
	single, err := sep(false)
	if err != nil {
		return ablation{}, err
	}
	double, err := sep(true)
	if err != nil {
		return ablation{}, err
	}
	return ablation{
		name:    "double execution",
		configs: [2]string{"single execution", "double execution"},
		values:  [2]string{fmt.Sprintf("%.2f cycles separation", single), fmt.Sprintf("%.2f cycles separation", double)},
		claim:   "double > single",
		holds:   double > single,
	}, nil
}

// kernelBaseAccuracy runs the kernel-base attack with opt on trials victims
// of preset (victim t boots with seed(t)) and returns the share it breaks,
// in percent.
func kernelBaseAccuracy(preset *uarch.Preset, opt core.Options, trials int, seed func(t int) uint64) (float64, error) {
	ok := 0
	for t := 0; t < trials; t++ {
		s := seed(t)
		m := machine.New(preset, s)
		k, err := linux.Boot(m, linux.Config{Seed: s})
		if err != nil {
			return 0, err
		}
		p, err := core.NewProber(m, opt)
		if err != nil {
			return 0, err
		}
		res, err := core.KernelBase(p)
		if err == nil && res.Base == k.Base {
			ok++
		}
	}
	return 100 * float64(ok) / float64(trials), nil
}

// ablateMinOfK compares base-attack accuracy with one and with three
// second-execution samples per probe under the same noise.
func ablateMinOfK() (ablation, error) {
	const trials = 60
	seed := func(t int) uint64 { return uint64(t)*13 + 5 }
	var acc [2]float64
	for i, k := range []int{1, 3} {
		a, err := kernelBaseAccuracy(uarch.AlderLake12400F(), core.Options{ProbeSamples: k}, trials, seed)
		if err != nil {
			return ablation{}, err
		}
		acc[i] = a
	}
	return ablation{
		name:    "min-of-k",
		configs: [2]string{"k=1", "k=3"},
		values:  [2]string{fmt.Sprintf("%.0f%% (n=%d)", acc[0], trials), fmt.Sprintf("%.0f%% (n=%d)", acc[1], trials)},
		claim:   "k=3 ≥ k=1",
		holds:   acc[1] >= acc[0],
	}, nil
}

// ablatePSC compares the cost of a kernel-page walk with and without the
// paging-structure caches. The TLB and the PTE lines are flushed before
// every probe but the PSC is left intact, which isolates the PSC's
// contribution (skipped upper-level line fetches): a simulator ablation,
// not an attack variant.
func ablatePSC() (ablation, error) {
	cost := func(psc bool) (float64, error) {
		m := machine.New(uarch.Zen3_5600X(), 3)
		k, err := linux.Boot(m, linux.Config{Seed: 3})
		if err != nil {
			return 0, err
		}
		m.PSC.Enabled = psc
		var sum float64
		for i := 0; i < 500; i++ {
			m.TLB.Flush(false)
			m.PTELines.Flush()
			sum += m.ExecMasked(avx.MaskedLoad(k.Base, avx.ZeroMask)).Cycles
		}
		return sum / 500, nil
	}
	with, err := cost(true)
	if err != nil {
		return ablation{}, err
	}
	without, err := cost(false)
	if err != nil {
		return ablation{}, err
	}
	return ablation{
		name:    "paging-structure caches",
		configs: [2]string{"with PSC", "without PSC"},
		values:  [2]string{fmt.Sprintf("%.1f cycles/walk", with), fmt.Sprintf("%.1f cycles/walk", without)},
		claim:   "with < without",
		holds:   with < without,
	}, nil
}

// ablateEviction compares a full TLB and PTE-line sweep with evicting the
// one probed translation, per AMD probe (Table I's AMD runtime driver).
func ablateEviction() (ablation, error) {
	m := machine.New(uarch.Zen3_5600X(), 9)
	k, err := linux.Boot(m, linux.Config{Seed: 9})
	if err != nil {
		return ablation{}, err
	}
	t0 := m.RDTSC()
	for j := 0; j < 100; j++ {
		m.EvictTLB()
		m.EvictPTELines()
		m.ExecMasked(avx.MaskedLoad(k.Base, avx.ZeroMask))
	}
	full := float64(m.RDTSC()-t0) / 100
	t0 = m.RDTSC()
	for j := 0; j < 100; j++ {
		m.EvictTranslation(k.Base)
		m.ExecMasked(avx.MaskedLoad(k.Base, avx.ZeroMask))
	}
	targeted := float64(m.RDTSC()-t0) / 100
	return ablation{
		name:    "eviction",
		configs: [2]string{"targeted (one translation)", "full sweep"},
		values:  [2]string{fmt.Sprintf("%.0f cycles/probe", targeted), fmt.Sprintf("%.0f cycles/probe", full)},
		claim:   "targeted < full",
		holds:   targeted < full,
	}, nil
}

// ablateEstimator compares the paper's single-sample min estimator with
// the robust trimmed-mean, two-sided configuration under heavy jitter
// (σ=4 cycles, about a third of the class gap).
func ablateEstimator() (ablation, error) {
	const trials = 25
	preset := uarch.AlderLake12400F()
	preset.NoiseSigma = 4.0
	seed := func(t int) uint64 { return uint64(t)*7 + 31 }
	paper, err := kernelBaseAccuracy(preset, core.Options{}, trials, seed)
	if err != nil {
		return ablation{}, err
	}
	robust, err := kernelBaseAccuracy(preset,
		core.Options{ProbeSamples: 16, Estimator: core.EstTrimmedMean, TwoSided: true}, trials, seed)
	if err != nil {
		return ablation{}, err
	}
	return ablation{
		name:    "estimator at σ=4",
		configs: [2]string{"paper (1 sample, min, one-sided)", "robust (16 samples, trimmed mean, two-sided)"},
		values:  [2]string{fmt.Sprintf("%.0f%% (n=%d)", paper, trials), fmt.Sprintf("%.0f%% (n=%d)", robust, trials)},
		claim:   "robust ≥ paper",
		holds:   robust >= paper,
	}, nil
}

// ablateRerandPeriod sweeps the §V-A re-randomization period from 1 s down
// to 100 µs against the attack runtime: the exploitation window closes
// only when the period approaches the sub-millisecond attack.
func ablateRerandPeriod() (ablation, error) {
	points, attackSec, err := defense.RerandomizationSweep(uarch.AlderLake12400F(), 5,
		[]float64{1, 0.1, 0.01, 0.001, 0.0001})
	if err != nil {
		return ablation{}, err
	}
	var shortest float64
	for _, pt := range points {
		if pt.Exploitable {
			shortest = pt.PeriodSec
		}
	}
	return ablation{
		name:    "re-randomization period",
		configs: [2]string{"attack runtime", "shortest exploitable period"},
		values:  [2]string{fmt.Sprintf("%.2f µs", attackSec*1e6), fmt.Sprintf("%.0f µs", shortest*1e6)},
		claim:   "runtime < period ≤ 10× runtime",
		holds:   shortest > attackSec && shortest <= 10*attackSec,
	}, nil
}
