package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/service"
)

// declared reads the metric declarations of BENCHMARK.json.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &doc); err != nil {
		t.Fatal(err)
	}
	for _, w := range doc.Workloads {
		if _, err := workloadByName(w.Name); err != nil {
			t.Errorf("BENCHMARK.json declares %v", err)
		}
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range doc.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range doc.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// checkMetrics asserts that got holds exactly the metrics of want, each
// with its declared unit.
func checkMetrics(t *testing.T, got metrics, want map[string]string) {
	t.Helper()
	for name, unit := range want {
		m, ok := got[name]
		if !ok {
			t.Errorf("metric %s missing", name)
		} else if m.Unit != unit {
			t.Errorf("metric %s has unit %q, declared %q", name, m.Unit, unit)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("metric %s is not declared", name)
		}
	}
}

// smallPlan is a short job list: two passes over the workload's mix per
// client.
func smallPlan(w *workload, seed uint64) plan {
	return w.plan(w, seed, 2*w.clients*len(w.specs))
}

func TestWorkloadsSmoke(t *testing.T) {
	endToEnd, _ := declared(t)
	// Below minTailSamples jobs there is no p99 to report.
	delete(endToEnd, "latency_p99_ms")
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			o := options{workload: w, seed: 7}
			res, err := endToEndRun(o, smallPlan(w, o.seed), io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 || !res.Correct {
				t.Fatalf("failed %d of %d jobs (correct=%v)", res.Failed, res.Attempted, res.Correct)
			}
			checkMetrics(t, res.Metrics, endToEnd)
		})
	}
}

func TestEndToEndMetricsAtFullSampleCount(t *testing.T) {
	endToEnd, _ := declared(t)
	w, _ := workloadByName("temporal-stateful")
	o := options{workload: w, seed: 3}
	res, err := endToEndRun(o, w.plan(w, o.seed, minTailSamples), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 {
		t.Fatalf("failed %d of %d jobs", res.Failed, res.Attempted)
	}
	checkMetrics(t, res.Metrics, endToEnd)
	line, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(line, &keys); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 4 {
		t.Errorf("result line has keys %v, want correct, attempted, failed, metrics", keys)
	}
}

func TestLayerRun(t *testing.T) {
	if testing.Short() {
		t.Skip("layer probes take seconds")
	}
	_, perLayer := declared(t)
	w, _ := workloadByName("temporal-stateful")
	o := options{workload: w, seed: 5, trace: true, spans: filepath.Join(t.TempDir(), "spans.json")}
	res, err := layerRun(o, smallPlan(w, o.seed), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 || !res.Correct {
		t.Fatalf("failed %d of %d jobs", res.Failed, res.Attempted)
	}
	checkMetrics(t, res.Metrics, perLayer)
	if c := res.Metrics["service.trace_coverage"].Value; c <= 0 || c > 1 {
		t.Errorf("stage self times cover %v of the client latency", c)
	}
	buf, err := os.ReadFile(o.spans)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Jobs   []*obs.Span
		Probes []*obs.Span
	}
	if err := json.Unmarshal(buf, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Jobs) != res.Attempted/2 || len(doc.Probes) == 0 {
		t.Fatalf("span file has %d job trees and %d probe spans", len(doc.Jobs), len(doc.Probes))
	}
	var names []string
	for _, c := range doc.Jobs[0].Children {
		names = append(names, c.Name)
	}
	if strings.Join(names, ",") != "bench.submit,job,bench.wait" {
		t.Errorf("job span tree children %v", names)
	}
}

// TestSessionCounters pins the cache behaviour the workloads are built
// on: spatial-hot never builds a session after its warm-up, spatial-cold
// builds one for every job.
func TestSessionCounters(t *testing.T) {
	for _, tc := range []struct {
		name  string
		built func(jobs int) int
	}{
		{"spatial-hot", func(int) int { return 0 }},
		{"spatial-cold", func(jobs int) int { return jobs }},
	} {
		w, _ := workloadByName(tc.name)
		ph, err := runPhase(w, smallPlan(w, 11), false, 1)
		if err != nil {
			t.Fatal(err)
		}
		c := ph.counters
		if want := tc.built(ph.attempted); c.built != want {
			t.Errorf("%s: %d sessions built in %d jobs, want %d", tc.name, c.built, ph.attempted, want)
		}
		if c.calReused != 0 {
			t.Errorf("%s: %d calibrations reused, want 0", tc.name, c.calReused)
		}
		if c.hits+c.built != ph.attempted {
			t.Errorf("%s: %d hits + %d builds for %d jobs", tc.name, c.hits, c.built, ph.attempted)
		}
	}
}

// TestDeterminism runs every workload twice on one seed: the results, and
// so the counters that follow from them, must repeat exactly. On
// mixed-zipf, which sessions the idle cap drops depends on how the two
// clients interleave, so the session counters are not pinned there.
func TestDeterminism(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			p := smallPlan(w, 13)
			a, err := runPhase(w, p, false, 1)
			if err != nil {
				t.Fatal(err)
			}
			b, err := runPhase(w, p, false, 1)
			if err != nil {
				t.Fatal(err)
			}
			if a.failed != 0 || b.failed != 0 {
				t.Fatalf("failed jobs: %d, %d (%v %v)", a.failed, b.failed, a.errs, b.errs)
			}
			if a.correct != b.correct {
				t.Errorf("correct %d vs %d", a.correct, b.correct)
			}
			if a.simSec != b.simSec {
				t.Errorf("simulated attacker time %v vs %v", a.simSec, b.simSec)
			}
			if w.name == "mixed-zipf" {
				return
			}
			if a.counters != b.counters {
				t.Errorf("counters differ:\n%+v\n%+v", a.counters, b.counters)
			}
		})
	}
}

func TestPlans(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			const jobs = 200
			p := w.plan(w, 1, jobs)
			if p.jobs() != jobs || len(p.clients) != w.clients {
				t.Fatalf("%d jobs over %d clients, want %d over %d", p.jobs(), len(p.clients), jobs, w.clients)
			}
			// Each victim belongs to one client.
			owner := map[uint64]int{}
			for c, list := range p.clients {
				for _, jb := range list {
					if o, ok := owner[jb.victim]; ok && o != c {
						t.Fatalf("victim %d on clients %d and %d", jb.victim, o, c)
					}
					owner[jb.victim] = c
				}
			}
			// The clients carry about the same number of jobs.
			for _, list := range p.clients {
				if d := len(list) - jobs/w.clients; d < -jobs/10 || d > jobs/10 {
					t.Errorf("client lists of %d jobs, want about %d", len(list), jobs/w.clients)
				}
			}
			// Another seed scans other victims.
			q := w.plan(w, 2, jobs)
			if slices.Equal(victims(p), victims(q)) {
				t.Errorf("seeds 1 and 2 draw the same victims")
			}
			// The same seed draws the same plan.
			if r := w.plan(w, 1, jobs); !slices.EqualFunc(p.clients, r.clients, slices.Equal) {
				t.Errorf("one seed, two plans")
			}
		})
	}
}

// victims returns the distinct victim seeds of a plan's measured jobs.
func victims(p plan) []uint64 {
	var vs []uint64
	for _, list := range p.clients {
		for _, jb := range list {
			vs = append(vs, jb.victim)
		}
	}
	slices.Sort(vs)
	return slices.Compact(vs)
}

func TestSegments(t *testing.T) {
	w, _ := workloadByName("spatial-cold")
	p := w.plan(w, 1, 301)
	segs := p.segments(100)
	n := 0
	for _, seg := range segs {
		size := 0
		for _, list := range seg {
			size += len(list)
		}
		if size > 100 {
			t.Errorf("segment of %d jobs", size)
		}
		n += size
	}
	if len(segs) != 4 || n != 301 {
		t.Errorf("%d segments holding %d jobs", len(segs), n)
	}
	if got := p.segments(0); len(got) != 1 {
		t.Errorf("size 0 gives %d segments", len(got))
	}
}

func TestQuantileNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, tc := range []struct{ q, want float64 }{
		{0, 1}, {0.1, 1}, {0.11, 2}, {0.5, 5}, {0.9, 9}, {0.91, 10}, {0.99, 10}, {1, 10},
	} {
		if got := quantile(xs, tc.q); got != tc.want {
			t.Errorf("quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v", got)
	}
}

func TestLatencyP99NeedsThousandSamples(t *testing.T) {
	for _, n := range []int{999, 1000, 2000} {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending, so the helper must sort
		}
		m := metrics{}
		latencyMetrics(xs, m)
		p99, ok := m["latency_p99_ms"]
		if ok != (n >= minTailSamples) {
			t.Fatalf("n=%d: p99 reported %v", n, ok)
		}
		if ok && p99.Value != float64(n*99/100) {
			t.Errorf("n=%d: p99 = %v, want %v", n, p99.Value, n*99/100)
		}
		if m["latency_p50_ms"].Value != float64((n+1)/2) {
			t.Errorf("n=%d: p50 = %v", n, m["latency_p50_ms"].Value)
		}
	}
}

func TestSelfTimeUnionOfChildren(t *testing.T) {
	// job [0,100): queue [0,10), attempt [10,95) with acquire [12,20),
	// restore [20,30) and execute [25,90) overlapping restore, plus a
	// child that runs past its parent's end.
	attempt := &obs.Span{Name: "attempt", StartNs: 10, EndNs: 95, Children: []*obs.Span{
		{Name: "acquire", StartNs: 12, EndNs: 20},
		{Name: "restore", StartNs: 20, EndNs: 30},
		{Name: "execute", StartNs: 25, EndNs: 90},
		{Name: "late", StartNs: 92, EndNs: 120},
	}}
	root := &obs.Span{Name: "job", StartNs: 0, EndNs: 100, Children: []*obs.Span{
		{Name: "queue", StartNs: 0, EndNs: 10},
		attempt,
	}}
	// Covered in attempt: [12,90) and [92,95) = 81 of 85.
	if got := selfNs(attempt); got != 4 {
		t.Errorf("attempt self = %d, want 4", got)
	}
	if got := selfNs(root); got != 5 {
		t.Errorf("root self = %d, want 5", got)
	}
	stages := map[string]int64{}
	stageSelfNs(root, stages)
	want := map[string]int64{"queue": 10, "acquire": 8, "restore": 10, "execute": 65, "root": 5 + 4 + 28}
	for k, v := range want {
		if stages[k] != v {
			t.Errorf("stage %s = %d, want %d", k, stages[k], v)
		}
	}
}

func TestFlags(t *testing.T) {
	o, err := parseFlags(strings.Fields("--workload sweep-solo --seed 9 --seconds 12 --trace 1"), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if o.workload.name != "sweep-solo" || o.seed != 9 || o.seconds != 12 || !o.trace {
		t.Errorf("parsed %+v", o)
	}
	if jobCount(o.workload, o.seconds) != minTailSamples {
		t.Errorf("sweep-solo runs %d jobs in 12 s", jobCount(o.workload, o.seconds))
	}
	for _, bad := range []string{"--workload nope", "--workload spatial-hot --trace 2", "--workload spatial-hot --seconds 0"} {
		if _, err := parseFlags(strings.Fields(bad), io.Discard); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
}

// TestJudge pins how an outcome counts: an attack that errors is a
// deterministic miss that must repeat, a scheduler failure is a failure.
func TestJudge(t *testing.T) {
	w := &workload{specs: []service.JobSpec{
		// A trampoline offset no kernel uses: the KPTI scan finds nothing.
		{Kind: service.KindKPTI, CPU: "12400F", Trampoline: 0x1000},
		{Kind: service.KindKernelBase, CPU: "12400F"},
	}}
	s := service.New(programConfig(false))
	defer s.Drain()
	spec := w.specs[0]
	spec.Seed = 1
	j, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Wait(j); err == nil {
		t.Fatal("KPTI scan with a bogus trampoline offset succeeded")
	}
	or := newOracle()
	for i := 0; i < 2; i++ {
		if err := runJob(s, w, job{0, 1}, or); err != nil {
			t.Fatalf("attack error judged a failure: %v", err)
		}
	}

	faulty := service.New(service.Config{Executors: 1, MaxAttempts: 2, Fault: service.FaultConfig(1, 1)})
	defer faulty.Drain()
	if err := runJob(faulty, w, job{1, 1}, newOracle()); err == nil {
		t.Fatal("a job failed by injected faults was not judged a failure")
	}
}
