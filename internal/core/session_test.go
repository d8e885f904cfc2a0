package core

import (
	"reflect"
	"testing"

	"repro/internal/linux"
	"repro/internal/machine"
	"repro/internal/paging"
	"repro/internal/uarch"
)

// A prober restored to its post-calibration checkpoint must replay an
// attack bit-identically: this is the contract the service's session reuse
// rests on (job N on a session == job 1 on a fresh session).
func TestProberRestoreReplaysAttack(t *testing.T) {
	p, k := engineProber(t, 4242, 2)
	state := p.Checkpoint()

	first, err := KernelBase(p)
	if err != nil {
		t.Fatal(err)
	}
	if first.Base != k.Base {
		t.Fatalf("base %#x, truth %#x", uint64(first.Base), uint64(k.Base))
	}

	if err := p.Restore(state); err != nil {
		t.Fatal(err)
	}
	second, err := KernelBase(p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("restored replay differs:\nfirst:  %+v\nsecond: %+v", first, second)
	}
}

// A prober built from a cached calibration on a freshly booted replica of
// the same victim must be indistinguishable from a freshly calibrated one:
// same thresholds, same clock, and bit-identical attack results — both for
// an engine-sweep attack (kernel base) and for a direct-probe attack
// (KPTI trampoline search), which is sensitive to the exact post-
// calibration machine state.
func TestNewProberFromCalibrationMatchesFresh(t *testing.T) {
	boot := func(kpti bool) (*Prober, *linux.Kernel, *machine.Machine) {
		m := machine.New(uarch.AlderLake12400F(), 515)
		k, err := linux.Boot(m, linux.Config{Seed: 515, KPTI: kpti})
		if err != nil {
			t.Fatal(err)
		}
		p, err := NewProber(m, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return p, k, m
	}

	// Engine-sweep attack.
	pFresh, k, _ := boot(false)
	cal := pFresh.CalibrationSnapshot()
	want, err := KernelBase(pFresh)
	if err != nil {
		t.Fatal(err)
	}

	m2 := machine.New(uarch.AlderLake12400F(), 515)
	if _, err := linux.Boot(m2, linux.Config{Seed: 515}); err != nil {
		t.Fatal(err)
	}
	pCached := NewProberFromCalibration(m2, Options{}, cal)
	// One-sided calibration leaves SlowMean NaN, so compare the decision
	// values rather than the whole structs.
	if pCached.Threshold.Cycles != pFresh.Threshold.Cycles ||
		pCached.StoreThreshold.Cycles != pFresh.StoreThreshold.Cycles {
		t.Fatal("cached prober thresholds differ from fresh calibration")
	}
	got, err := KernelBase(pCached)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("cached-calibration kernel base differs from fresh:\nfresh:  %+v\ncached: %+v", want, got)
	}
	if got.Base != k.Base {
		t.Fatalf("base %#x, truth %#x", uint64(got.Base), uint64(k.Base))
	}

	// Direct-probe attack (no engine sweep between calibration and probes).
	pKF, kk, _ := boot(true)
	calK := pKF.CalibrationSnapshot()
	wantK, err := KPTIBreak(pKF, linux.DefaultTrampolineOffset)
	if err != nil {
		t.Fatal(err)
	}
	if wantK.Base != kk.Base {
		t.Fatalf("KPTI base %#x, truth %#x", uint64(wantK.Base), uint64(kk.Base))
	}
	m3 := machine.New(uarch.AlderLake12400F(), 515)
	if _, err := linux.Boot(m3, linux.Config{Seed: 515, KPTI: true}); err != nil {
		t.Fatal(err)
	}
	gotK, err := KPTIBreak(NewProberFromCalibration(m3, Options{}, calK), linux.DefaultTrampolineOffset)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(wantK, gotK) {
		t.Fatalf("cached-calibration KPTI break differs from fresh:\nfresh:  %+v\ncached: %+v", wantK, gotK)
	}
}

// The batched term-level window must be bit-identical to the reference
// per-VA ProbeTermLevel loop (reference_test.go): same minima, same
// verdicts, same simulated clock.
func TestProbeTermBatchMatchesPerVALoop(t *testing.T) {
	build := func() *Prober {
		m := machine.New(uarch.Zen3_5600X(), 888)
		if _, err := linux.Boot(m, linux.Config{Seed: 888}); err != nil {
			t.Fatal(err)
		}
		p, err := NewProber(m, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	const n = 96
	const samples = 5
	start := linux.TextRegionBase
	stride := uint64(paging.Page2M)

	pLoop := build()
	thr := pLoop.PTTermThreshold()
	pLoop.M.ReseedNoise(12345)
	pLoop.M.ResetTranslationState()
	ref := &refProber{Prober: pLoop}
	wantCycles := make([]float64, n)
	wantVerdicts := make([]bool, n)
	for i := 0; i < n; i++ {
		tp := ref.ProbeTermLevel(start+paging.VirtAddr(uint64(i)*stride), samples)
		wantCycles[i] = tp.Cycles
		wantVerdicts[i] = tp.Cycles > thr
	}

	pBatch := build()
	pBatch.M.ReseedNoise(12345)
	pBatch.M.ResetTranslationState()
	gotCycles := make([]float64, n)
	gotVerdicts := make([]bool, n)
	pBatch.probeTermBatchWindow(start, stride, 0, n, samples, thr, gotCycles, gotVerdicts)

	if !reflect.DeepEqual(wantCycles, gotCycles) {
		t.Fatal("batched term cycles differ from per-VA loop")
	}
	if !reflect.DeepEqual(wantVerdicts, gotVerdicts) {
		t.Fatal("batched term verdicts differ from per-VA loop")
	}
	if pLoop.M.RDTSC() != pBatch.M.RDTSC() {
		t.Fatalf("clocks differ: loop %d, batch %d", pLoop.M.RDTSC(), pBatch.M.RDTSC())
	}
	if pLoop.Faults() != pBatch.Faults() {
		t.Fatalf("fault counts differ: loop %d, batch %d", pLoop.Faults(), pBatch.Faults())
	}
}
