package main

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/avx"
	"repro/internal/behavior"
	"repro/internal/core"
	"repro/internal/defense"
	"repro/internal/linux"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/paging"
	"repro/internal/rng"
	"repro/internal/sgx"
	"repro/internal/uarch"
	"repro/internal/userspace"
	"repro/internal/winkernel"
)

// probeVictim is the victim seed of every layer probe. The probes time
// layers, not workloads, so they run on one victim whatever the run's
// seed; their simulated times then repeat exactly on every run.
const probeVictim = 1

// layerProbes times direct calls into each layer below the scheduler, one
// bench span per timed call, and reports each layer's median.
type layerProbes struct {
	start time.Time
	spans []*obs.Span
	out   metrics
}

// timed runs prep (untimed, may be nil) and then call, n times, records
// each call as a span and returns the median call duration.
func (lp *layerProbes) timed(name string, n int, prep, call func() error) (time.Duration, error) {
	ds := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		if prep != nil {
			if err := prep(); err != nil {
				return 0, fmt.Errorf("%s: %w", name, err)
			}
		}
		t0 := time.Now()
		err := call()
		t1 := time.Now()
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		ds = append(ds, t1.Sub(t0))
		lp.spans = append(lp.spans, &obs.Span{
			Name:    "probe." + name,
			StartNs: int64(t0.Sub(lp.start)),
			EndNs:   int64(t1.Sub(lp.start)),
		})
	}
	return medianDuration(ds), nil
}

// run measures every layer and sets its metrics.
func (lp *layerProbes) run() error {
	lp.start = time.Now()
	for _, step := range []func() error{lp.victims, lp.machineOps, lp.proberState, lp.scanScaling, lp.attacks} {
		if err := step(); err != nil {
			return err
		}
	}
	return nil
}

// bootLinux boots a Linux victim on a fresh machine.
func bootLinux(cpu string, cfg linux.Config) (*machine.Machine, *linux.Kernel, error) {
	m := machine.New(uarch.ByName(cpu), cfg.Seed)
	k, err := linux.Boot(m, cfg)
	return m, k, err
}

// victims times the victim builders: linux.Boot, userspace.Build,
// winkernel.Boot, each on a fresh machine.
func (lp *layerProbes) victims() error {
	var m *machine.Machine
	fresh := func() error { m = machine.New(uarch.ByName("12400F"), probeVictim); return nil }
	booted := func() error {
		var err error
		m, _, err = bootLinux("1065G7", linux.Config{Seed: probeVictim})
		return err
	}
	d, err := lp.timed("linux.boot", 9, fresh, func() error {
		_, err := linux.Boot(m, linux.Config{Seed: probeVictim})
		return err
	})
	if err != nil {
		return err
	}
	lp.out.set("linux.boot_ms", ms(d), "ms")
	d, err = lp.timed("userspace.build", 9, booted, func() error {
		_, err := userspace.Build(m, userspace.Config{Seed: probeVictim, EntropyBits: 12, HideLastRWPage: true})
		return err
	})
	if err != nil {
		return err
	}
	lp.out.set("userspace.build_ms", ms(d), "ms")
	d, err = lp.timed("winkernel.boot", 9, fresh, func() error {
		_, err := winkernel.Boot(m, winkernel.Config{Seed: probeVictim, Drivers: 24})
		return err
	})
	if err != nil {
		return err
	}
	lp.out.set("winkernel.boot_ms", ms(d), "ms")
	return nil
}

// machineOps times the simulator's hot path: one masked load, the batched
// double-execution probe, and a machine snapshot and restore.
func (lp *layerProbes) machineOps() error {
	m, _, err := bootLinux("1065G7", linux.Config{Seed: probeVictim})
	if err != nil {
		return err
	}
	op := avx.MaskedLoad(linux.TextRegionBase, avx.ZeroMask)
	const loads = 20000
	d, err := lp.timed("machine.exec_masked", 9, nil, func() error {
		for i := 0; i < loads; i++ {
			m.ExecMasked(op)
		}
		return nil
	})
	if err != nil {
		return err
	}
	lp.out.set("machine.exec_masked_ns", float64(d)/loads, "ns")
	lp.out.set("machine.exec_masked_allocs", testing.AllocsPerRun(1000, func() { m.ExecMasked(op) }), "allocs/op")

	const batch, rounds = 512, 20
	ops := make([]avx.Op, batch)
	for i := range ops {
		ops[i] = avx.MaskedLoad(linux.ModuleRegionBase+paging.VirtAddr(i*paging.Page4K), avx.ZeroMask)
	}
	meas := make([]float64, batch)
	d, err = lp.timed("machine.measure_batch", 9, nil, func() error {
		for r := 0; r < rounds; r++ {
			m.MeasureBatch(ops, 1, 1, meas)
		}
		return nil
	})
	if err != nil {
		return err
	}
	lp.out.set("machine.measure_batch_ns_per_op", float64(d)/(batch*rounds), "ns")

	var snap machine.Snapshot
	d, err = lp.timed("machine.snapshot", 51, nil, func() error { snap = m.Snapshot(); return nil })
	if err != nil {
		return err
	}
	lp.out.set("machine.snapshot_us", us(d), "us")
	d, err = lp.timed("machine.restore", 51, nil, func() error { return m.Restore(snap) })
	if err != nil {
		return err
	}
	lp.out.set("machine.restore_us", us(d), "us")
	return nil
}

// proberState times calibration (core.NewProber on a fresh boot) and the
// session checkpoint/restore pair every scheduler job pays.
func (lp *layerProbes) proberState() error {
	var m *machine.Machine
	var p *core.Prober
	d, err := lp.timed("core.calibrate", 9, func() error {
		var err error
		m, _, err = bootLinux("12400F", linux.Config{Seed: probeVictim})
		return err
	}, func() error {
		var err error
		p, err = core.NewProber(m, core.Options{})
		return err
	})
	if err != nil {
		return err
	}
	lp.out.set("core.calibrate_ms", ms(d), "ms")
	if _, err := core.KernelBase(p); err != nil {
		return err
	}
	var st core.SessionState
	d, err = lp.timed("core.checkpoint", 51, nil, func() error { st = p.Checkpoint(); return nil })
	if err != nil {
		return err
	}
	lp.out.set("core.checkpoint_us", us(d), "us")
	d, err = lp.timed("core.restore", 51, nil, func() error { return p.Restore(st) })
	if err != nil {
		return err
	}
	lp.out.set("core.restore_us", us(d), "us")
	return nil
}

// scanScaling sweeps the 16 384-page module region with the pooled scan
// engine at 1 and 2 workers.
func (lp *layerProbes) scanScaling() error {
	pages := int(linux.ModuleRegionSize / paging.Page4K)
	var rate [3]float64
	for _, workers := range []int{1, 2} {
		m, _, err := bootLinux("12400F", linux.Config{Seed: probeVictim})
		if err != nil {
			return err
		}
		p, err := core.NewProber(m, core.Options{Workers: workers, Pool: core.NewScanPool()})
		if err != nil {
			return err
		}
		p.ScanMapped(linux.ModuleRegionBase, pages, paging.Page4K) // fills the pool
		d, err := lp.timed(fmt.Sprintf("scan.w%d", workers), 7, nil, func() error {
			p.ScanMapped(linux.ModuleRegionBase, pages, paging.Page4K)
			return nil
		})
		if err != nil {
			return err
		}
		rate[workers] = float64(pages) / d.Seconds()
		lp.out.set(fmt.Sprintf("scan.probes_per_s_w%d", workers), rate[workers], "probes/s")
	}
	lp.out.set("scan.speedup_w2", rate[2]/rate[1], "x")
	return nil
}

// attack is one job kind called directly on a calibrated prober; it
// returns the simulated attacker time.
type attack func() (simSec float64, err error)

// attacks times one call of each job kind's core attack, restoring the
// prober to its post-set-up checkpoint before every call, the way a
// scheduler session does. Scans use the scheduler's two pooled workers.
func (lp *layerProbes) attacks() error {
	opt := core.Options{Workers: 2, Pool: core.NewScanPool()}
	kinds := []struct {
		name  string
		calls int
		setup func() (*core.Prober, attack, error)
	}{
		{"kernelbase_intel", 15, func() (*core.Prober, attack, error) { return kernelBase("12400F", opt) }},
		{"kernelbase_amd", 15, func() (*core.Prober, attack, error) { return kernelBase("5600X", opt) }},
		{"kpti", 15, func() (*core.Prober, attack, error) {
			m, _, err := bootLinux("12400F", linux.Config{Seed: probeVictim, KPTI: true, TrampolineOffset: linux.DefaultTrampolineOffset})
			if err != nil {
				return nil, nil, err
			}
			p, err := core.NewProber(m, opt)
			return p, func() (float64, error) {
				res, err := core.KPTIBreak(p, linux.DefaultTrampolineOffset)
				return m.Preset.CyclesToSeconds(res.TotalCycles), err
			}, err
		}},
		{"modules", 15, func() (*core.Prober, attack, error) {
			m, k, err := bootLinux("1065G7", linux.Config{Seed: probeVictim})
			if err != nil {
				return nil, nil, err
			}
			p, err := core.NewProber(m, opt)
			table := core.SizeTable(k.ProcModules())
			return p, func() (float64, error) {
				return m.Preset.CyclesToSeconds(core.Modules(p, table).TotalCycles), nil
			}, err
		}},
		{"userscan", 15, func() (*core.Prober, attack, error) { return userScan(false, opt) }},
		{"userscan_sgx", 15, func() (*core.Prober, attack, error) { return userScan(true, opt) }},
		{"windows", 7, func() (*core.Prober, attack, error) {
			m := machine.New(uarch.ByName("12400F"), probeVictim)
			if _, err := winkernel.Boot(m, winkernel.Config{Seed: probeVictim, Drivers: 24}); err != nil {
				return nil, nil, err
			}
			p, err := core.NewProber(m, opt)
			return p, func() (float64, error) {
				res, err := core.WindowsKernel(p, winkernel.ImageSlots)
				return m.Preset.CyclesToSeconds(res.TotalCycles), err
			}, err
		}},
		{"behaviorspy_window", 15, func() (*core.Prober, attack, error) { return behaviorSpy(opt) }},
		{"appfingerprint_window", 15, func() (*core.Prober, attack, error) { return appFingerprint(opt) }},
		{"flare", 15, func() (*core.Prober, attack, error) {
			m, k, err := bootLinux("12400F", linux.Config{Seed: probeVictim, FLARE: true})
			if err != nil {
				return nil, nil, err
			}
			p, err := core.NewProber(m, opt)
			return p, func() (float64, error) {
				t0 := m.RDTSC()
				defense.FlareAttack(p, k)
				return m.Preset.CyclesToSeconds(m.RDTSC() - t0), nil
			}, err
		}},
		{"cloud_gce", 7, func() (*core.Prober, attack, error) {
			// CloudBreak boots and calibrates its own guest on every call.
			return nil, func() (float64, error) {
				res, err := core.CloudBreak(core.GoogleGCE, probeVictim, core.CloudBreakOptions{Probe: opt})
				return core.Scenario(core.GoogleGCE).Preset.CyclesToSeconds(res.BaseCycles + res.ModuleCycles), err
			}, nil
		}},
	}
	for _, k := range kinds {
		p, run, err := k.setup()
		if err != nil {
			return fmt.Errorf("core.%s set-up: %w", k.name, err)
		}
		var st core.SessionState
		var restore func() error
		if p != nil {
			st = p.Checkpoint()
			restore = func() error { return p.Restore(st) }
		}
		var sims []float64
		d, err := lp.timed("core."+k.name, k.calls, restore, func() error {
			sim, err := run()
			sims = append(sims, sim)
			return err
		})
		if err != nil {
			return err
		}
		for _, s := range sims[1:] {
			if s != sims[0] {
				return fmt.Errorf("core.%s: simulated time differs between calls from one checkpoint", k.name)
			}
		}
		lp.out.set("core."+k.name+".host_ms", ms(d), "ms")
		lp.out.set("core."+k.name+".sim_ms", sims[0]*1e3, "sim_ms")
	}
	return nil
}

func kernelBase(cpu string, opt core.Options) (*core.Prober, attack, error) {
	m, _, err := bootLinux(cpu, linux.Config{Seed: probeVictim})
	if err != nil {
		return nil, nil, err
	}
	p, err := core.NewProber(m, opt)
	return p, func() (float64, error) {
		res, err := core.KernelBase(p)
		return res.TotalSeconds(m.Preset), err
	}, err
}

// userScan builds the scheduler's userscan victim (12-bit ASLR entropy,
// optionally scanned from inside an enclave) and scans its library area.
func userScan(inEnclave bool, opt core.Options) (*core.Prober, attack, error) {
	m, _, err := bootLinux("1065G7", linux.Config{Seed: probeVictim})
	if err != nil {
		return nil, nil, err
	}
	proc, err := userspace.Build(m, userspace.Config{Seed: probeVictim, EntropyBits: 12, HideLastRWPage: true})
	if err != nil {
		return nil, nil, err
	}
	if inEnclave {
		if _, err := sgx.Enter(m, sgx.RDTSC); err != nil {
			return nil, nil, err
		}
	}
	p, err := core.NewProber(m, opt)
	libs := proc.Libs
	lo, hi := libs[0].Base-16*paging.Page4K, libs[len(libs)-1].End()+8*paging.Page4K
	return p, func() (float64, error) {
		res := core.UserScan(p, lo, hi)
		core.FingerprintLibraries(res.Regions, userspace.StandardLibraries())
		return m.Preset.CyclesToSeconds(res.TotalCycles), nil
	}, err
}

// behaviorSpy locates the bluetooth and psmouse modules and observes one
// 10 s window of their seeded activity at 1 Hz.
func behaviorSpy(opt core.Options) (*core.Prober, attack, error) {
	m, k, err := bootLinux("1065G7", linux.Config{Seed: probeVictim})
	if err != nil {
		return nil, nil, err
	}
	p, err := core.NewProber(m, opt)
	if err != nil {
		return nil, nil, err
	}
	targets, err := core.LocateTargets(core.Modules(p, core.SizeTable(k.ProcModules())), "bluetooth", "psmouse")
	if err != nil {
		return nil, nil, err
	}
	r := rng.New(probeVictim)
	drv, err := behavior.NewDriver(k,
		behavior.UnboundedTimeline(behavior.BluetoothAudio(), 12, 18, r.Split()),
		behavior.UnboundedTimeline(behavior.MouseMovement(), 12, 18, r.Split()))
	if err != nil {
		return nil, nil, err
	}
	drv.SetResolution(1)
	spy := &core.BehaviorSpy{P: p, Targets: targets, PagesPerModule: 10, TickSec: 1}
	return p, func() (float64, error) {
		t0 := m.RDTSC()
		_, err := spy.RunWindow(drv, 0, 10)
		return m.Preset.CyclesToSeconds(m.RDTSC() - t0), err
	}, nil
}

// appFingerprint watches every module of the standard app profiles and
// classifies an fps-game victim from one 8-tick window.
func appFingerprint(opt core.Options) (*core.Prober, attack, error) {
	m, k, err := bootLinux("1065G7", linux.Config{Seed: probeVictim})
	if err != nil {
		return nil, nil, err
	}
	p, err := core.NewProber(m, opt)
	if err != nil {
		return nil, nil, err
	}
	located := core.Modules(p, core.SizeTable(k.ProcModules()))
	profiles := core.StandardAppProfiles()
	watch := map[string]linux.LoadedModule{}
	var truth core.AppProfile
	for _, prof := range profiles {
		if prof.Name == "fps-game" {
			truth = prof
		}
		for _, mod := range prof.Modules {
			if i := strings.IndexByte(mod, ':'); i >= 0 {
				mod = mod[i+1:] // "alias:module"
			}
			targets, err := core.LocateTargets(located, mod)
			if err != nil {
				return nil, nil, err
			}
			watch[mod] = targets[0]
		}
	}
	if truth.Name == "" {
		return nil, nil, errors.New("no fps-game app profile")
	}
	drv, err := behavior.NewDriver(k, core.TimelinesFor(truth, math.Inf(1))...)
	if err != nil {
		return nil, nil, err
	}
	drv.SetResolution(1)
	fp := &core.AppFingerprinter{P: p, Watch: watch, Profiles: profiles, Ticks: 8, TickSec: 1}
	return p, func() (float64, error) {
		t0 := m.RDTSC()
		fp.ClassifyFrom(drv, 0) // an unmatched window is an attack outcome, not an error
		return m.Preset.CyclesToSeconds(m.RDTSC() - t0), nil
	}, nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }
