package service

import (
	"reflect"
	"testing"
)

// The zipfian victim assignment must be a pure function of the config
// (interleaving-independent by construction) and actually skewed: the
// hottest victim draws a multiple of the coldest's share.
func TestZipfianAssignmentDeterministicAndSkewed(t *testing.T) {
	cfg := LoadConfig{Jobs: 1000, Victims: 8, Seed: 5, Dist: DistZipfian}
	a := victimAssignment(cfg)
	b := victimAssignment(cfg)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("zipfian assignment differs across calls with one config")
	}
	counts := make([]int, cfg.Victims)
	for _, v := range a {
		if v < 0 || v >= cfg.Victims {
			t.Fatalf("victim index %d out of pool range", v)
		}
		counts[v]++
	}
	if counts[0] < 3*counts[cfg.Victims-1] {
		t.Fatalf("distribution not zipfian: hottest %d vs coldest %d (%v)", counts[0], counts[cfg.Victims-1], counts)
	}
	uni := victimAssignment(LoadConfig{Jobs: 10, Victims: 4, Dist: DistUniform})
	for i, v := range uni {
		if v != i%4 {
			t.Fatalf("uniform assignment[%d] = %d, want %d", i, v, i%4)
		}
	}
}
