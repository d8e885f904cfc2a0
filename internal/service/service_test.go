package service

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/linux"
	"repro/internal/machine"
	"repro/internal/paging"
	"repro/internal/sgx"
	"repro/internal/uarch"
	"repro/internal/userspace"
	"repro/internal/winkernel"
)

// directResult mounts the spec's attack with plain core.* calls — the
// exact recipe cmd/experiments and the examples use, independent of the
// service's session/checkpoint machinery — and maps it to a Result.
func directResult(t *testing.T, spec JobSpec) *Result {
	t.Helper()
	spec, err := spec.normalized()
	if err != nil {
		t.Fatal(err)
	}
	if spec.Kind == KindCloud {
		res, err := execute(nil, spec, core.Options{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	preset := uarch.ByName(spec.CPU)
	m := machine.New(preset, spec.Seed)
	v := victim{m: m}
	switch spec.Kind {
	case KindKernelBase, KindModules, KindKPTI:
		k, err := linux.Boot(m, linux.Config{
			Seed: spec.Seed, KPTI: spec.Kind == KindKPTI,
			FLARE: spec.FLARE, TrampolineOffset: spec.Trampoline,
		})
		if err != nil {
			t.Fatal(err)
		}
		v.kernel = k
	case KindWindows:
		wk, err := winkernel.Boot(m, winkernel.Config{Seed: spec.Seed, Drivers: spec.Drivers})
		if err != nil {
			t.Fatal(err)
		}
		v.win = wk
	case KindUserScan:
		if _, err := linux.Boot(m, linux.Config{Seed: spec.Seed}); err != nil {
			t.Fatal(err)
		}
		proc, err := userspace.Build(m, userspace.Config{
			Seed: spec.Seed, EntropyBits: spec.EntropyBits, HideLastRWPage: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		v.proc = proc
		if spec.SGX {
			if _, err := sgx.Enter(m, sgx.RDTSC); err != nil {
				t.Fatal(err)
			}
		}
	}
	p, err := core.NewProber(m, core.Options{})
	if err != nil {
		t.Fatal(err)
	}

	switch spec.Kind {
	case KindKernelBase:
		res, err := core.KernelBase(p)
		if err != nil {
			t.Fatal(err)
		}
		return &Result{
			Kind: spec.Kind, Correct: res.Base == v.kernel.Base, Base: uint64(res.Base),
			ProbeSimSec: res.ProbeSeconds(preset), TotalSimSec: res.TotalSeconds(preset),
		}
	case KindKPTI:
		res, err := core.KPTIBreak(p, spec.Trampoline)
		if err != nil {
			t.Fatal(err)
		}
		return &Result{
			Kind: spec.Kind, Correct: res.Base == v.kernel.Base, Base: uint64(res.Base),
			ProbeSimSec: preset.CyclesToSeconds(res.ProbeCycles),
			TotalSimSec: preset.CyclesToSeconds(res.TotalCycles),
		}
	case KindModules:
		table := core.SizeTable(v.kernel.ProcModules())
		res := core.Modules(p, table)
		score := core.ScoreModules(res, v.kernel.Modules, table)
		regions := make([]Region, len(res.Regions))
		for i, r := range res.Regions {
			regions[i] = Region{Start: uint64(r.Base), End: uint64(r.End()), Class: strings.Join(r.Names, "|")}
		}
		return &Result{
			Kind: spec.Kind, Correct: score.DetectionAccuracy() >= 0.99,
			Regions: regions, Accuracy: score.DetectionAccuracy(),
			ProbeSimSec: preset.CyclesToSeconds(res.ProbeCycles),
			TotalSimSec: preset.CyclesToSeconds(res.TotalCycles),
		}
	case KindWindows:
		res, err := core.WindowsKernel(p, winkernel.ImageSlots)
		if err != nil {
			t.Fatal(err)
		}
		return &Result{
			Kind: spec.Kind, Correct: res.RegionBase == v.win.Base,
			Base: uint64(res.RegionBase), RunSlots: res.RunSlots,
			ProbeSimSec: preset.CyclesToSeconds(res.ProbeCycles),
			TotalSimSec: preset.CyclesToSeconds(res.TotalCycles),
		}
	case KindUserScan:
		libs := v.proc.Libs
		start := libs[0].Base - 16*paging.Page4K
		end := libs[len(libs)-1].End() + 8*paging.Page4K
		res := core.UserScan(p, start, end)
		regions := make([]Region, len(res.Regions))
		for i, r := range res.Regions {
			regions[i] = Region{Start: uint64(r.Start), End: uint64(r.End), Class: r.Class.String()}
		}
		found := core.FingerprintLibraries(res.Regions, userspace.StandardLibraries())
		fm := make(map[string]uint64, len(found))
		for name, va := range found {
			fm[name] = uint64(va)
		}
		correct := len(libs) > 0
		for _, lib := range libs {
			if fm[lib.Image.Name] != uint64(lib.Base) {
				correct = false
			}
		}
		return &Result{
			Kind: spec.Kind, Correct: correct, Regions: regions, Found: fm,
			ProbeSimSec: preset.CyclesToSeconds(res.LoadCycles + res.StoreCycles),
			TotalSimSec: preset.CyclesToSeconds(res.TotalCycles),
		}
	}
	t.Fatalf("unhandled kind %q", spec.Kind)
	return nil
}

// paritySpecs is the attack-kind matrix of the service parity suite.
func paritySpecs() []JobSpec {
	return []JobSpec{
		{Kind: KindKernelBase, CPU: "12400F", Seed: 41},
		{Kind: KindKernelBase, CPU: "5600X", Seed: 42}, // AMD term-level path
		{Kind: KindKPTI, CPU: "12400F", Seed: 43},
		{Kind: KindModules, CPU: "1065G7", Seed: 44},
		{Kind: KindWindows, CPU: "12400F", Seed: 45},
		{Kind: KindUserScan, CPU: "1065G7", Seed: 46, EntropyBits: 10},
		{Kind: KindUserScan, CPU: "1065G7", Seed: 47, EntropyBits: 10, SGX: true},
		{Kind: KindCloud, Provider: "gce", Seed: 48},
	}
}

// The service determinism contract: every attack kind, submitted through
// the scheduler at scan workers 0/1/4, returns a Result bit-identical to
// the direct core.* call at the same seed — and a second submission of the
// same spec (which reuses the session and skips calibration) matches too.
func TestServiceParityWithDirectCalls(t *testing.T) {
	specs := paritySpecs()
	want := make([]*Result, len(specs))
	for i, spec := range specs {
		want[i] = directResult(t, spec)
		if !want[i].Correct {
			t.Fatalf("spec %+v: direct attack not correct — pick another seed", spec)
		}
	}

	for _, workers := range []int{0, 1, 4} {
		s := New(Config{Executors: 2, ScanWorkers: workers})
		for round := 0; round < 2; round++ {
			for i, spec := range specs {
				j, err := s.Submit(spec)
				if err != nil {
					t.Fatal(err)
				}
				got, err := s.Wait(j)
				if err != nil {
					t.Fatalf("workers=%d round=%d %s: %v", workers, round, spec.Kind, err)
				}
				if !reflect.DeepEqual(want[i], got) {
					t.Fatalf("workers=%d round=%d: %s result differs from direct call\nwant: %+v\ngot:  %+v",
						workers, round, spec.Kind, want[i], got)
				}
			}
		}
		s.Drain()
	}
}

// Session reuse must be visible in the job provenance and must not change
// results: with one executor, the second identical job runs on the
// released session of the first.
func TestSessionReuseProvenance(t *testing.T) {
	s := New(Config{Executors: 1})
	defer s.Drain()
	spec := JobSpec{Kind: KindKernelBase, CPU: "12400F", Seed: 7}

	j1, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := s.Wait(j1)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.Wait(j2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Fatalf("reused-session result differs:\nfirst:  %+v\nsecond: %+v", r1, r2)
	}
	s1, _ := s.Store().Snapshot(j1.ID)
	s2, _ := s.Store().Snapshot(j2.ID)
	if s1.ReusedSession {
		t.Fatal("first job claims a reused session")
	}
	if !s2.ReusedSession {
		t.Fatal("second job did not reuse the session")
	}
}

// The calibration cache must kick in when a known victim configuration
// needs a second session (first one busy): the new session skips Calibrate
// and still produces an identical prober.
func TestCalibrationCacheSkipsCalibrate(t *testing.T) {
	cache := newSessionCache(8)
	spec, err := JobSpec{Kind: KindKernelBase, CPU: "12400F", Seed: 11}.normalized()
	if err != nil {
		t.Fatal(err)
	}
	s1, reused1, err := cache.acquire(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Second acquire without releasing the first: same key, fresh boot.
	s2, reused2, err := cache.acquire(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if reused1 || reused2 {
		t.Fatal("no session should have been reused")
	}
	if s1.cachedCal {
		t.Fatal("first session claims a cached calibration")
	}
	if !s2.cachedCal {
		t.Fatal("second session did not use the cached calibration")
	}
	if s1.p.Threshold.Cycles != s2.p.Threshold.Cycles ||
		s1.p.StoreThreshold.Cycles != s2.p.StoreThreshold.Cycles {
		t.Fatal("cached-calibration prober thresholds differ")
	}
	if cs := cache.snapshot(); cs.SessionMisses != 2 || cs.CalibrationHits != 1 {
		t.Fatalf("stats: made=%d calHits=%d, want 2/1", cs.SessionMisses, cs.CalibrationHits)
	}
}
