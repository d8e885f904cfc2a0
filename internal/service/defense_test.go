package service

import (
	"reflect"
	"testing"

	"repro/internal/defense"
	"repro/internal/uarch"
)

// directDefenseResult evaluates the spec's defense with plain
// defense.Evaluate* calls — the yardstick every scheduler configuration
// must match in all attack-outcome fields. Simulated-runtime fields stay
// zero where the direct API does not expose them (the grid test separately
// holds them bit-identical across worker/pool settings).
func directDefenseResult(t *testing.T, spec JobSpec) *Result {
	t.Helper()
	spec, err := spec.normalized()
	if err != nil {
		t.Fatal(err)
	}
	preset := uarch.ByName(spec.CPU)
	res := &Result{Kind: spec.Kind, Defense: spec.Defense}

	switch spec.Defense {
	case DefenseFLARE:
		out, err := defense.EvaluateFLARE(preset, spec.Seed)
		if err != nil {
			t.Fatal(err)
		}
		res.Bypassed = out.Bypassed()
		res.PageSignal = out.PageTableDistinguishes
		res.Base = uint64(out.TLBBaseFound)
		res.Correct = !out.PageTableDistinguishes && out.Bypassed()

	case DefenseFGKASLR:
		out, err := defense.EvaluateFGKASLR(preset, spec.Seed, spec.Function)
		if err != nil {
			t.Fatal(err)
		}
		res.Bypassed = out.Bypassed()
		res.OffsetStable = out.OffsetStable
		res.Base = uint64(out.TemplateFoundPage)
		res.Correct = out.Bypassed() && !out.OffsetStable

	case DefenseRerand:
		out, err := defense.EvaluateRerandomization(preset, spec.Seed)
		if err != nil {
			t.Fatal(err)
		}
		res.StaleHit = out.StaleHit
		res.Base = uint64(out.RecoveredBase)
		res.Correct = !out.StaleHit
		if len(spec.RerandPeriodsSec) > 0 {
			pts, attackSec, err := defense.RerandomizationSweep(preset, spec.Seed, spec.RerandPeriodsSec)
			if err != nil {
				t.Fatal(err)
			}
			res.RerandSweep = make([]RerandPoint, len(pts))
			for i, pt := range pts {
				res.RerandSweep[i] = RerandPoint{PeriodSec: pt.PeriodSec, WindowSec: pt.WindowSec, Exploitable: pt.Exploitable}
			}
			res.ProbeSimSec = attackSec
		}

	case DefenseMaskedOp:
		pop := defense.UbuntuDefaultPopulation()
		res.AffectedExecutables = pop.UsingMaskedOps
		res.TotalExecutables = pop.TotalExecutables
		res.Correct = pop.UsingMaskedOps == 6 && pop.TotalExecutables == 4104

	default:
		t.Fatalf("unknown defense %q", spec.Defense)
	}
	return res
}

// A defense evaluation through the scheduler must be bit-identical to the
// direct internal/defense evaluation at the same seed, at every scan-worker
// setting — the KindDefenseEval half of the service determinism contract.
// The simulated runtimes (which the direct API does not return for most
// defenses) must at least be bit-identical across the whole grid.
func TestDefenseEvalServiceParity(t *testing.T) {
	specs := []JobSpec{
		{Kind: KindDefenseEval, CPU: "12400F", Seed: 77, Defense: DefenseFLARE},
		{Kind: KindDefenseEval, CPU: "1065G7", Seed: 77, Defense: DefenseFGKASLR},
		{Kind: KindDefenseEval, CPU: "9900", Seed: 77, Defense: DefenseRerand,
			RerandPeriodsSec: []float64{0.0001, 0.001, 0.1}},
		{Kind: KindDefenseEval, Seed: 77, Defense: DefenseMaskedOp},
	}
	for _, spec := range specs {
		want := directDefenseResult(t, spec)
		var ref *Result
		for _, workers := range []int{0, 1, 4, 8} {
			s := New(Config{Executors: 1, ScanWorkers: workers})
			j, err := s.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			got, err := s.Wait(j)
			s.Drain()
			if err != nil {
				t.Fatalf("%s workers=%d: %v", spec.Defense, workers, err)
			}

			// Outcome parity vs the direct evaluation: compare with the
			// runtime fields the direct API leaves unset masked out.
			cmp := *got
			cmp.TotalSimSec = 0
			if want.ProbeSimSec == 0 {
				cmp.ProbeSimSec = 0
			}
			if !reflect.DeepEqual(want, &cmp) {
				t.Fatalf("%s workers=%d differs from direct evaluation\nwant: %+v\ngot:  %+v",
					spec.Defense, workers, want, got)
			}

			// Full-result determinism (including runtimes) across the grid.
			if ref == nil {
				ref = got
			} else if !reflect.DeepEqual(ref, got) {
				t.Fatalf("%s workers=%d: full result differs across the grid\nref: %+v\ngot: %+v",
					spec.Defense, workers, ref, got)
			}
		}
	}
}

// A FLARE- or FGKASLR-booted victim has different mappings and timing
// surface than an undefended boot of the same CPU and seed: it must get its
// own session and its own calibration, never adopting the cached ones. The
// rerand evaluation attacks an *undefended* boot, so it must share the
// kernel-base session — both sides of the key design.
func TestDefendedBootsNeverAdoptUndefendedCalibrations(t *testing.T) {
	s := New(Config{Executors: 1})
	defer s.Drain()

	// Warm the session + calibration cache with an undefended boot.
	warm := JobSpec{Kind: KindKernelBase, CPU: "12400F", Seed: 5}
	j, err := s.Submit(warm)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Wait(j); err != nil {
		t.Fatal(err)
	}

	for _, d := range []string{DefenseFLARE, DefenseFGKASLR} {
		spec := JobSpec{Kind: KindDefenseEval, CPU: "12400F", Seed: 5, Defense: d}
		j, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Wait(j); err != nil {
			t.Fatal(err)
		}
		snap, ok := s.Store().Snapshot(j.ID)
		if !ok {
			t.Fatal("job evicted")
		}
		if snap.ReusedSession || snap.ReusedCalibration {
			t.Fatalf("%s eval adopted the undefended boot's cache (session=%v calibration=%v)",
				d, snap.ReusedSession, snap.ReusedCalibration)
		}

		// The isolation is structural: the defended key differs.
		norm, err := spec.normalized()
		if err != nil {
			t.Fatal(err)
		}
		warmNorm, err := warm.normalized()
		if err != nil {
			t.Fatal(err)
		}
		if norm.victimKey() == warmNorm.victimKey() {
			t.Fatalf("%s eval shares the undefended victim key %q", d, norm.victimKey())
		}
	}

	// The rerand evaluation runs against the undefended boot and must
	// multiplex onto the warmed kernel-base session.
	j, err = s.Submit(JobSpec{Kind: KindDefenseEval, CPU: "12400F", Seed: 5, Defense: DefenseRerand})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Wait(j); err != nil {
		t.Fatal(err)
	}
	snap, ok := s.Store().Snapshot(j.ID)
	if !ok {
		t.Fatal("job evicted")
	}
	if !snap.ReusedSession {
		t.Fatal("rerand eval did not share the undefended kernel-base session")
	}
}

// The calibration cache itself must honor the defense-aware key: a fresh
// session build for the undefended key adopts the cached calibration, a
// defended build for the same CPU/seed never does.
func TestCalibrationCacheDefenseKeying(t *testing.T) {
	c := newSessionCache(0)
	norm := func(spec JobSpec) JobSpec {
		n, err := spec.normalized()
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	warm := norm(JobSpec{Kind: KindKernelBase, CPU: "12400F", Seed: 5})

	// First build populates the calibration cache for the undefended key.
	warmSess, reused, err := c.acquire(warm, nil)
	if err != nil {
		t.Fatal(err)
	}
	if reused || warmSess.cachedCal {
		t.Fatalf("first build reused state (session=%v cal=%v)", reused, warmSess.cachedCal)
	}
	// Hold the warm session (not released): every acquire below must build.

	// Same undefended victim → the rebuild replays the cached calibration.
	rerand := norm(JobSpec{Kind: KindDefenseEval, CPU: "12400F", Seed: 5, Defense: DefenseRerand})
	sess, reused, err := c.acquire(rerand, nil)
	if err != nil {
		t.Fatal(err)
	}
	if reused || !sess.cachedCal {
		t.Fatalf("undefended rerand build did not replay the cached calibration (session=%v cal=%v)", reused, sess.cachedCal)
	}

	// Defended boots of the same CPU/seed → never adopt it.
	for _, d := range []string{DefenseFLARE, DefenseFGKASLR} {
		spec := norm(JobSpec{Kind: KindDefenseEval, CPU: "12400F", Seed: 5, Defense: d})
		sess, reused, err := c.acquire(spec, nil)
		if err != nil {
			t.Fatal(err)
		}
		if reused || sess.cachedCal {
			t.Fatalf("%s build adopted the undefended calibration (session=%v cal=%v)", d, reused, sess.cachedCal)
		}
	}
}

// Spy targets the module attack cannot uniquely identify must fail at
// submission — previously they silently ran against a fabricated generic
// activity and returned misleading traces.
func TestSpyTargetValidation(t *testing.T) {
	s := New(Config{Executors: 1, ScanWorkers: 2})
	defer s.Drain()

	// A typo and a shared-size module (usbhid collides with other module
	// sizes, so the module attack cannot locate it) are both rejected.
	for _, target := range []string{"no-such-module", "usbhid"} {
		if _, err := s.Submit(JobSpec{Kind: KindBehaviorSpy, Seed: 81, Targets: []string{target}}); err == nil {
			t.Fatalf("unwatchable target %q accepted at submission", target)
		}
	}

	// A uniquely-sized module is watchable end to end.
	j, err := s.Submit(JobSpec{Kind: KindBehaviorSpy, Seed: 81, Targets: []string{"nvme"}, DurationSec: 10})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Wait(j)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res.TargetAccuracy["nvme"]; !ok {
		t.Fatalf("no trace for watchable target nvme: %+v", res)
	}
}

// A long-lived spy session must keep observing real victim activity past
// the old fixed materialization horizon (4096 ticks): the victim timeline
// extends lazily without bound, and the extension is deterministic — the
// late window must be bit-identical to the same window of a direct run and
// must contain non-idle ground truth.
func TestSpySessionPastOldHorizon(t *testing.T) {
	spec := JobSpec{Kind: KindBehaviorSpy, Seed: 91, DurationSec: 1024}
	const windows = 5 // the last window spans ticks [4096, 5120)

	norm, err := spec.normalized()
	if err != nil {
		t.Fatal(err)
	}
	// Ground truth for the final window must be non-idle: a regression to a
	// fixed horizon would leave both truth and trace idle up there and let a
	// trivial all-idle accuracy of 1.0 slip through.
	active := 0
	for _, tl := range spyTimelines(norm) {
		for tick := 4096; tick < 5120; tick++ {
			if tl.ActiveAt(float64(tick)) {
				active++
			}
		}
	}
	if active < 100 {
		t.Fatalf("ground truth nearly idle past tick 4096 (%d active ticks)", active)
	}

	want := directSpyResults(t, spec, windows, 2)
	s := New(Config{Executors: 1, ScanWorkers: 2})
	defer s.Drain()
	for w := 0; w < windows; w++ {
		j, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.Wait(j)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want[w], got) {
			t.Fatalf("window %d diverged from the direct run\nwant: %+v\ngot:  %+v", w, want[w], got)
		}
	}
	last := want[windows-1]
	if last.WindowStartSec != 4096 || last.WindowEndSec != 5120 {
		t.Fatalf("final window is [%v, %v), want [4096, 5120)", last.WindowStartSec, last.WindowEndSec)
	}
	if !last.Correct || last.Accuracy < 0.9 {
		t.Fatalf("spy lost the victim past the old horizon: accuracy %v", last.Accuracy)
	}
}

// DefenseMatrix is the vendor × defense scenario fan-out: every §V
// countermeasure evaluated on every preset whose probe semantics support
// the evaluation's attacks. FLARE and FGKASLR rest on the Intel TLB-probe
// path (P4); AMD parts take the re-randomization row, whose base recovery
// uses the P3 term-level sweep. Seeds are assigned per submission, like
// DefaultMix.
func DefenseMatrix() []JobSpec {
	var specs []JobSpec
	for _, cpu := range []string{"12400F", "1065G7", "9900"} {
		specs = append(specs,
			JobSpec{Kind: KindDefenseEval, CPU: cpu, Defense: DefenseFLARE},
			JobSpec{Kind: KindDefenseEval, CPU: cpu, Defense: DefenseFGKASLR},
			JobSpec{Kind: KindDefenseEval, CPU: cpu, Defense: DefenseRerand},
		)
	}
	specs = append(specs,
		JobSpec{Kind: KindDefenseEval, CPU: "5600X", Defense: DefenseRerand,
			RerandPeriodsSec: []float64{0.0001, 0.001, 0.01, 0.1, 1}},
		JobSpec{Kind: KindDefenseEval, CPU: "12400F", Defense: DefenseRerand,
			RerandPeriodsSec: []float64{0.0001, 0.001, 0.01, 0.1, 1}},
		JobSpec{Kind: KindDefenseEval, Defense: DefenseMaskedOp},
	)
	return specs
}

// BenchmarkDefenseMatrix measures the defense-aware scenario matrix
// through the service scheduler: one pass submits every vendor × defense
// evaluation of DefenseMatrix (FLARE, FGKASLR, re-randomization +
// sweeps, masked-op restriction) and waits for all of them. jobs/s is the
// scheduler-level countermeasure-evaluation throughput; session and
// calibration reuse across b.N passes is the steady-state the daemon sees.
func BenchmarkDefenseMatrix(b *testing.B) {
	s := New(Config{Executors: 2, ScanWorkers: 2, QueueDepth: 64})
	defer s.Drain()
	matrix := DefenseMatrix()
	jobs := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		submitted := make([]*Job, 0, len(matrix))
		for mi, spec := range matrix {
			spec.Seed = uint64(1 + mi%4)
			j, err := s.Submit(spec)
			if err != nil {
				b.Fatal(err)
			}
			submitted = append(submitted, j)
		}
		for _, j := range submitted {
			res, err := s.Wait(j)
			if err != nil {
				b.Fatal(err)
			}
			if !res.Correct {
				b.Fatalf("defense %s on %s: incorrect result", j.Spec.Defense, j.Spec.CPU)
			}
		}
		jobs += len(submitted)
	}
	b.ReportMetric(float64(jobs)/b.Elapsed().Seconds(), "jobs/s")
}
