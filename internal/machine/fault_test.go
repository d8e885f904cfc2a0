package machine

import (
	"errors"
	"testing"

	"repro/internal/fault"
	"repro/internal/uarch"
)

// The fault plan belongs to the one job attempt running on a machine:
// Clone and Rebind replicas — the pooled scan workers that run on engine
// goroutines — never carry it, and a machine without a plan never fires.
func TestReplicasNeverCarryFaultPlan(t *testing.T) {
	m := snapshotTestMachine(t, 5)
	snap := m.Snapshot()
	m.Faults = fault.New(fault.Config{Seed: 1, Rates: fault.Rates{Restore: 1, Probe: 1}}).Plan(42, 1)

	var f *fault.Fault
	if err := m.Restore(snap); !errors.As(err, &f) || f.Site != fault.Restore {
		t.Fatalf("Restore under a rate-1 plan returned %v, want the injected restore fault", err)
	}
	if err := m.Fire(fault.Probe); !errors.As(err, &f) || f.Site != fault.Probe {
		t.Fatalf("Fire(Probe) under a rate-1 plan returned %v", err)
	}

	clone := m.Clone(7)
	pooled := New(uarch.IceLake1065G7(), 9)
	pooled.Rebind(m)
	for name, r := range map[string]*Machine{"clone": clone, "rebound": pooled} {
		if r.Faults != nil {
			t.Fatalf("%s replica carries the parent's fault plan", name)
		}
		if err := r.Fire(fault.Probe); err != nil {
			t.Fatalf("%s replica fired %v", name, err)
		}
	}

	m.Faults = nil
	if err := m.Restore(snap); err != nil {
		t.Fatalf("Restore without a plan: %v", err)
	}
}
