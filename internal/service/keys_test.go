package service

import (
	"fmt"
	"os"
	"strings"
	"testing"
)

// keyLines renders every key a spec derives — victim key (session and
// calibration sharing) and fault key (fault schedule) — for the DefaultMix, DefenseMatrix and parity specs at
// two seeds, plus the order of Kinds() and Defenses(), which fixes the
// /metrics exposition order.
func keyLines(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	kinds := make([]string, 0, len(Kinds()))
	for _, k := range Kinds() {
		kinds = append(kinds, string(k))
	}
	fmt.Fprintf(&b, "kinds=%s\n", strings.Join(kinds, ","))
	fmt.Fprintf(&b, "defenses=%s\n", strings.Join(Defenses(), ","))
	for _, list := range []struct {
		name  string
		specs []JobSpec
	}{
		{"mix", DefaultMix()},
		{"defense", DefenseMatrix()},
		{"parity", paritySpecs()},
	} {
		for i, spec := range list.specs {
			for _, seed := range []uint64{1, 0xdeadbeef} {
				spec.Seed = seed
				norm, err := spec.normalized()
				if err != nil {
					t.Fatalf("%s[%d]: %v", list.name, i, err)
				}
				fmt.Fprintf(&b, "%s[%d] seed=%d\tvictim=%s\tfault=%#016x\n",
					list.name, i, seed, norm.victimKey(), norm.faultKey())
			}
		}
	}
	return b.String()
}

// The keys are a compatibility surface: a changed victim key silently
// splits or merges session sharing, a changed fault key reshuffles every
// fault schedule. testdata/keys.golden pins both, so any such change has to
// be made on purpose, by editing the golden file.
func TestKeysGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/keys.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := keyLines(t); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("line %d differs from testdata/keys.golden\nwant: %s\ngot:  %s", i+1, wl[i], gl[i])
			}
		}
		t.Fatalf("key listing has %d lines, testdata/keys.golden %d", len(gl), len(wl))
	}
}
