package machine_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/linux"
	"repro/internal/machine"
	"repro/internal/uarch"
)

// Calibration's 256 masked stores to the attacker's own scratch pages
// write the zero vector, and the pages are unmapped before it returns: a
// machine fresh from core.NewProber holds no written frame, and its
// calibration snapshot shares none, so a cached calibration pins no user
// memory. A machine that adopts the snapshot holds none either.
func TestCalibratedMachineHoldsNoFrame(t *testing.T) {
	for _, kpti := range []bool{false, true} {
		boot := func() *machine.Machine {
			m := machine.New(uarch.AlderLake12400F(), 7)
			if _, err := linux.Boot(m, linux.Config{Seed: 7, KPTI: kpti}); err != nil {
				t.Fatal(err)
			}
			return m
		}
		m := boot()
		p, err := core.NewProber(m, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if n := m.WrittenFrames(); n != 0 {
			t.Errorf("kpti=%v: a calibrated machine holds %d written frames, want 0", kpti, n)
		}
		cal := p.CalibrationSnapshot()
		m2 := boot()
		core.NewProberFromCalibration(m2, core.Options{}, cal)
		if n := m2.WrittenFrames(); n != 0 {
			t.Errorf("kpti=%v: the calibration snapshot shares %d frames, want 0", kpti, n)
		}
	}
}
