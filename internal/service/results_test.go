package service

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

var updateResults = flag.Bool("update-results", false, "rewrite testdata/results.golden from the current code")

// resultLines runs DefaultMix, DefenseMatrix and one windows spec at seeds
// 1–2 through a Scheduler, twice: the second pass reuses the parked
// sessions and continues the temporal timelines the first pass advanced.
// Each job renders as one line holding the SHA-256 of its JSON result (or
// of its error text).
//
// One executor runs the jobs in submission order. Each pass touches more
// victim keys than the 16 sessions the idle cap parks, so which sessions
// the cap drops depends on the order jobs finish. A dropped temporal
// session is rebuilt from its cache record in pass 2, and its timeline
// restarts at t=0 in exactly the state of its cold build in pass 1: such
// a window must hash the same as its pass-1 line. Which sessions are
// dropped still decides which pass-2 lines continue their timeline; with
// two executors that is a race, with one it is fixed, and the golden pins
// it.
func resultLines(t *testing.T) string {
	t.Helper()
	type item struct {
		name string
		spec JobSpec
	}
	var items []item
	for _, list := range []struct {
		name  string
		specs []JobSpec
	}{
		{"mix", DefaultMix()},
		{"defense", DefenseMatrix()},
		{"windows", []JobSpec{{Kind: KindWindows, CPU: "12400F"}}},
	} {
		for i, spec := range list.specs {
			for _, seed := range []uint64{1, 2} {
				spec.Seed = seed
				items = append(items, item{fmt.Sprintf("%s[%d]", list.name, i), spec})
			}
		}
	}

	s := New(Config{Executors: 1, ScanWorkers: 1, QueueDepth: len(items)})
	defer s.Drain()
	var b strings.Builder
	first := make([][32]byte, len(items)) // pass-1 hash per item
	for pass := 1; pass <= 2; pass++ {
		jobs := make([]*Job, len(items))
		for i, it := range items {
			j, err := s.Submit(it.spec)
			if err != nil {
				t.Fatalf("%s seed=%d: %v", it.name, it.spec.Seed, err)
			}
			jobs[i] = j
		}
		for i, j := range jobs {
			res, err := s.Wait(j)
			var payload []byte
			if err != nil {
				payload = []byte("error: " + err.Error())
			} else if payload, err = json.Marshal(res); err != nil {
				t.Fatal(err)
			}
			it := items[i]
			sum := sha256.Sum256(payload)
			if pass == 1 {
				first[i] = sum
			} else if err == nil && kindOf(it.spec.Kind).initTemporal != nil && res.WindowStartSec == 0 && sum != first[i] {
				t.Errorf("%s %s seed=%d: rebuilt session's window at t=0 differs from its cold build's in pass 1",
					it.name, it.spec.Kind, it.spec.Seed)
			}
			fmt.Fprintf(&b, "%s %s seed=%d pass=%d %x\n",
				it.name, it.spec.Kind, it.spec.Seed, pass, sum)
		}
	}
	return b.String()
}

// Job results are a pure function of (victim, session state, spec), so
// they must not move across commits unless a change means them to.
// testdata/results.golden pins a hash of every result of the mixed,
// defense and windows workloads over two passes; the first differing line
// names the first job that diverges. Regenerate on purpose with
// go test ./internal/service -run TestResultsGolden -update-results.
func TestResultsGolden(t *testing.T) {
	got := resultLines(t)
	if *updateResults {
		if err := os.WriteFile("testdata/results.golden", []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile("testdata/results.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("line %d differs from testdata/results.golden\nwant: %s\ngot:  %s", i+1, wl[i], gl[i])
			}
		}
		t.Fatalf("result listing has %d lines, testdata/results.golden %d", len(gl), len(wl))
	}
}
