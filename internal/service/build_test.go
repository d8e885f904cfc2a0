package service

import (
	"testing"

	"repro/internal/core"
)

// coldBuildSpecs is the seven-spec spatial mix of bench/'s spatial-hot and
// spatial-cold workloads (every spatial probe path plus one defended
// boot), normalized the way Submit normalizes it.
func coldBuildSpecs(tb testing.TB) []JobSpec {
	tb.Helper()
	raw := []JobSpec{
		{Kind: KindKernelBase, CPU: "12400F"},
		{Kind: KindKernelBase, CPU: "5600X"},
		{Kind: KindKPTI, CPU: "12400F"},
		{Kind: KindModules, CPU: "1065G7"},
		{Kind: KindUserScan, CPU: "1065G7"},
		{Kind: KindUserScan, CPU: "1065G7", SGX: true},
		{Kind: KindDefenseEval, CPU: "12400F", Defense: DefenseFLARE},
	}
	specs := make([]JobSpec, len(raw))
	for i, spec := range raw {
		spec.Seed = uint64(1 + i)
		n, err := spec.normalized()
		if err != nil {
			tb.Fatal(err)
		}
		specs[i] = n
	}
	return specs
}

// maxColdBuildAllocs bounds the average allocations of one cold session
// build over the spatial mix. A build allocates its page tables, its
// translation caches and the boot's bookkeeping; calibration's 256
// scratch stores and the boot's address walks allocate nothing. Before
// they stopped, a build made about 8,500 allocations.
const maxColdBuildAllocs = 400

// A cold build (boot plus calibration, the acquire path of a session-cache
// miss) allocates only the state the session keeps.
func TestColdBuildAllocs(t *testing.T) {
	specs := coldBuildSpecs(t)
	var total float64
	for _, spec := range specs {
		total += testing.AllocsPerRun(3, func() {
			if _, err := buildSession(spec, core.Calibration{}, false, nil); err != nil {
				t.Fatal(err)
			}
		})
	}
	if avg := total / float64(len(specs)); avg > maxColdBuildAllocs {
		t.Errorf("a cold session build allocates %.0f times on average over the spatial mix, want <= %d", avg, maxColdBuildAllocs)
	}
}

// BenchmarkSessionBuild times one cold session build per spatial spec:
// boot plus calibration, the work behind an acquire that misses both the
// session and the calibration cache.
func BenchmarkSessionBuild(b *testing.B) {
	for _, spec := range coldBuildSpecs(b) {
		name := string(spec.Kind) + "/" + spec.CPU
		if spec.SGX {
			name += "/sgx"
		}
		if spec.Defense != "" {
			name += "/" + string(spec.Defense)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := buildSession(spec, core.Calibration{}, false, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
