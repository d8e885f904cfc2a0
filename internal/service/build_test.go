package service

import (
	"testing"
)

// coldBuildSpecs is the seven-spec spatial mix of bench/'s spatial-hot and
// spatial-cold workloads (every spatial probe path plus one defended
// boot), normalized the way Submit normalizes it.
func coldBuildSpecs(tb testing.TB) []JobSpec {
	return seededSpecs(tb, []JobSpec{
		{Kind: KindKernelBase, CPU: "12400F"},
		{Kind: KindKernelBase, CPU: "5600X"},
		{Kind: KindKPTI, CPU: "12400F"},
		{Kind: KindModules, CPU: "1065G7"},
		{Kind: KindUserScan, CPU: "1065G7"},
		{Kind: KindUserScan, CPU: "1065G7", SGX: true},
		{Kind: KindDefenseEval, CPU: "12400F", Defense: DefenseFLARE},
	})
}

// temporalBuildSpecs is the two temporal specs of DefaultMix, normalized:
// their builds add the module reconnaissance to boot and calibration.
func temporalBuildSpecs(tb testing.TB) []JobSpec {
	return seededSpecs(tb, []JobSpec{
		{Kind: KindBehaviorSpy, CPU: "1065G7", DurationSec: 10},
		{Kind: KindAppFingerprint, CPU: "1065G7", App: "fps-game"},
	})
}

// seededSpecs gives spec i the seed 1+i and normalizes it.
func seededSpecs(tb testing.TB, raw []JobSpec) []JobSpec {
	tb.Helper()
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
			if _, err := buildSession(spec, nil, nil); err != nil {
				t.Fatal(err)
			}
		})
	}
	if avg := total / float64(len(specs)); avg > maxColdBuildAllocs {
		t.Errorf("a cold session build allocates %.0f times on average over the spatial mix, want <= %d", avg, maxColdBuildAllocs)
	}
}

// BenchmarkSessionBuild times one session build per spec. Each spatial
// spec builds cold: boot plus calibration, the work behind an acquire
// that misses both the session and the build record. Each temporal spec
// builds cold (boot, calibration and the module reconnaissance) and
// replayed from its cache record (boot and the adoption of the recorded
// state), the two builds behind a temporal session-cache miss.
func BenchmarkSessionBuild(b *testing.B) {
	for _, spec := range coldBuildSpecs(b) {
		name := string(spec.Kind) + "/" + spec.CPU
		if spec.SGX {
			name += "/sgx"
		}
		if spec.Defense != "" {
			name += "/" + string(spec.Defense)
		}
		b.Run(name, func(b *testing.B) { benchBuild(b, spec, nil) })
	}
	for _, spec := range temporalBuildSpecs(b) {
		cold, err := buildSession(spec, nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		rec := cold.record()
		name := string(spec.Kind) + "/" + spec.CPU
		b.Run(name+"/cold", func(b *testing.B) { benchBuild(b, spec, nil) })
		b.Run(name+"/replayed", func(b *testing.B) { benchBuild(b, spec, rec) })
	}
}

func benchBuild(b *testing.B, spec JobSpec, rec *buildRecord) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := buildSession(spec, rec, nil); err != nil {
			b.Fatal(err)
		}
	}
}
