package service

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
)

// runTracedChaos drives the serialized chaos workload with every job
// traced and returns each job's canonical span-tree serialization, in
// submission order.
func runTracedChaos(t *testing.T, specs []JobSpec) []string {
	t.Helper()
	s := New(Config{
		Executors:   1,
		QueueDepth:  64,
		MaxAttempts: 3,
		JobDeadline: -1, // serialized determinism needs no watchdog races
		TraceSample: 1,
		Fault:       fault.Config{Seed: 7, Rates: chaosRates()},
	})
	var jobs []*Job
	for i, spec := range specs {
		j, err := s.Submit(spec)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		jobs = append(jobs, j)
	}
	out := make([]string, len(jobs))
	for i, j := range jobs {
		<-j.Done()
		tr, ok := s.Trace(j.ID)
		if !ok {
			t.Fatalf("job %d: no trace at sample rate 1", j.ID)
		}
		b, err := tr.CanonicalJSON()
		if err != nil {
			t.Fatalf("job %d: canonical: %v", j.ID, err)
		}
		out[i] = string(b)
	}
	s.Drain()
	return out
}

// Spans as determinism oracles: under serialized execution, identical
// seeds must produce byte-identical canonical span trees — same nesting,
// same attempt/retry/backoff structure, same fault and quarantine
// annotations, same sim-times — across two fully independent scheduler
// instances. This extends the chaos suite's retry/quarantine equality
// checks to the whole lifecycle.
func TestChaosSpanTreeDeterminism(t *testing.T) {
	specs := chaosTraceSpecs()
	a := runTracedChaos(t, specs)
	b := runTracedChaos(t, specs)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("job %d span tree diverged across identical runs:\nrun A: %s\nrun B: %s", i+1, a[i], b[i])
		}
	}
	// The trees must actually carry fault evidence: with seed-7 chaos
	// rates, at least one job's trace should show a retried attempt.
	any := strings.Join(a, "\n")
	if !strings.Contains(any, `"fault"`) && !strings.Contains(any, `"transient"`) {
		t.Fatalf("no fault annotations in any chaos trace — instrumentation lost the fault sites:\n%s", any)
	}
}

// A sealed trace must be observable the moment Done unblocks: the root
// span is ended (and the outcome annotated) before the store completion
// closes the done channel.
func TestTraceSealedBeforeDone(t *testing.T) {
	s := New(Config{Executors: 1, TraceSample: 1})
	defer s.Drain()
	j, err := s.Submit(JobSpec{Kind: KindKernelBase, CPU: "12400F", Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	<-j.Done()
	tr, ok := s.Trace(j.ID)
	if !ok {
		t.Fatal("no trace")
	}
	root := tr.Snapshot()
	if root.EndNs == 0 {
		t.Fatal("root span not sealed at Done")
	}
	var status string
	for _, a := range root.Attrs {
		if a.Key == "status" {
			status = a.Value
		}
	}
	if status != string(StatusDone) {
		t.Fatalf("root status = %q, want %q (attrs %+v)", status, StatusDone, root.Attrs)
	}
	// The lifecycle stages must be present as children.
	names := map[string]bool{}
	for _, c := range root.Children {
		names[c.Name] = true
		if c.Name == "attempt" {
			for _, g := range c.Children {
				names[g.Name] = true
			}
		}
	}
	for _, want := range []string{"queue", "attempt", "acquire", "restore", "execute"} {
		if !names[want] {
			t.Fatalf("missing %q span (got %v)", want, names)
		}
	}
}

// Unsampled jobs must cost nothing and serve 404s; sampled jobs must be
// retrievable in both JSON and ASCII form.
func TestTraceEndpoint(t *testing.T) {
	s := New(Config{Executors: 1, TraceSample: 2})
	defer s.Drain()
	srv := httptest.NewServer(NewHandler(s))
	defer srv.Close()

	var ids []uint64
	for i := 0; i < 2; i++ {
		j, err := s.Submit(JobSpec{Kind: KindKernelBase, CPU: "12400F", Seed: uint64(5 + i)})
		if err != nil {
			t.Fatal(err)
		}
		<-j.Done()
		ids = append(ids, j.ID)
	}
	// IDs 1 and 2 at sample 2: job 1 unsampled, job 2 sampled.
	r, err := http.Get(srv.URL + "/jobs/1/trace")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusNotFound {
		t.Fatalf("unsampled trace: status %d, want 404", r.StatusCode)
	}

	r, err = http.Get(srv.URL + "/jobs/2/trace")
	if err != nil {
		t.Fatal(err)
	}
	var body struct {
		JobID uint64    `json:"job_id"`
		Trace *obs.Span `json:"trace"`
	}
	if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusOK || body.JobID != 2 || body.Trace == nil || body.Trace.Name != "job" {
		t.Fatalf("sampled trace: status %d body %+v", r.StatusCode, body)
	}

	r, err = http.Get(srv.URL + "/jobs/2/trace?format=ascii")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(r.Body)
	r.Body.Close()
	if !strings.Contains(string(text), "job 2 lifecycle") || !strings.Contains(string(text), "execute") {
		t.Fatalf("ascii timeline missing expected rows:\n%s", text)
	}
	_ = ids
}

// The Prometheus surface: families from every subsystem, per-kind and
// per-defense labels, and histogram series — all present after a couple of
// jobs.
func TestMetricsEndpoint(t *testing.T) {
	s := New(Config{Executors: 2, TraceSample: 1})
	defer s.Drain()
	srv := httptest.NewServer(NewHandler(s))
	defer srv.Close()

	for _, spec := range []JobSpec{
		{Kind: KindKernelBase, CPU: "12400F", Seed: 4},
		{Kind: KindDefenseEval, CPU: "12400F", Defense: DefenseFLARE, Seed: 4},
	} {
		j, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		<-j.Done()
	}

	r, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	out, _ := io.ReadAll(r.Body)
	r.Body.Close()
	if ct := r.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	text := string(out)
	for _, want := range []string{
		"scand_jobs_submitted_total 2",
		"scand_jobs_completed_total 2",
		`scand_jobs_finished_total{kind="kernelbase"} 1`,
		`scand_defense_evals_total{defense="flare"} 1`,
		"scand_queue_depth 0",
		"scand_sessions_built_total",
		`scand_job_latency_seconds_count{kind="kernelbase"} 1`,
		`scand_stage_seconds_count{stage="execute"} 2`,
		`scand_stage_seconds_count{stage="queue"} 2`,
		"scand_traces_started_total 2",
		`scand_faults_injected_total{site="probe"} 0`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics output missing %q:\n%s", want, text)
		}
	}
}

// completeTimed finishes a fake job with a controlled end-to-end latency
// by back-dating its submission.
func completeTimed(st *Store, j *Job, lat time.Duration) {
	j.Submitted = time.Now().Add(-lat)
	st.complete(j, &Result{Kind: j.Spec.Kind, Correct: true, TotalSimSec: 1}, nil, 1)
}

// Store.Stats under eviction churn: the latency quantiles and aggregate
// counters live in histograms/counters, not the job map, so they must be
// unaffected by finished-job eviction — and the two latency populations
// land far enough apart (10ms vs 1s, ~two decades over the ~12.5% bucket
// resolution) that p50/p99 must separate them.
func TestStoreStatsHistogramUnderEviction(t *testing.T) {
	st := NewBoundedStore(StoreConfig{MaxJobs: 4})
	const fast, slow = 60, 4
	id := uint64(1)
	for i := 0; i < fast; i++ {
		j := fakeJob(st, id)
		j.Spec.Kind = KindKernelBase
		completeTimed(st, j, 10*time.Millisecond)
		id++
	}
	for i := 0; i < slow; i++ {
		j := fakeJob(st, id)
		j.Spec.Kind = KindModules
		completeTimed(st, j, time.Second)
		id++
	}
	s := st.Stats()
	if s.Completed != fast+slow || s.Submitted != fast+slow {
		t.Fatalf("counters lost under eviction: %+v", s)
	}
	if s.Evicted != fast+slow-4 || s.Retained != 4 {
		t.Fatalf("eviction accounting: evicted %d retained %d", s.Evicted, s.Retained)
	}
	// p50 ≈ 10ms (64 samples, rank 31 falls in the fast population);
	// p99 ≈ 1s (rank 62 falls in the slow tail). Bucketed quantiles may
	// overshoot by one bucket width (~12.5%).
	if s.P50Ms < 10 || s.P50Ms > 12 {
		t.Fatalf("p50 %.3f ms, want ~10ms", s.P50Ms)
	}
	if s.P99Ms < 1000 || s.P99Ms > 1250 {
		t.Fatalf("p99 %.3f ms, want ~1000ms", s.P99Ms)
	}
	if s.P99Ms < s.P50Ms {
		t.Fatalf("p99 %.3f < p50 %.3f", s.P99Ms, s.P50Ms)
	}
}

// Stats scrapes concurrent with TTL-churning completions must stay
// consistent (run under -race by make test-race): every counter monotonic, the
// quantiles always ordered, eviction never double-counted.
func TestStoreStatsConcurrentWithTTLChurn(t *testing.T) {
	st := NewBoundedStore(StoreConfig{MaxJobs: 8, TTL: time.Millisecond})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var lastDone int
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := st.Stats()
			done := s.Completed + s.Failed
			if done < lastDone {
				t.Errorf("finished count went backwards: %d -> %d", lastDone, done)
				return
			}
			lastDone = done
			if s.P99Ms < s.P50Ms {
				t.Errorf("quantiles unordered: p50 %.3f p99 %.3f", s.P50Ms, s.P99Ms)
				return
			}
			if s.Retained < 0 || s.Evicted < 0 {
				t.Errorf("negative retention: %+v", s)
				return
			}
		}
	}()
	for id := uint64(1); id <= 500; id++ {
		j := fakeJob(st, id)
		j.Spec.Kind = KindKernelBase
		lat := 5 * time.Millisecond
		if id%7 == 0 {
			lat = 80 * time.Millisecond
		}
		completeTimed(st, j, lat)
		if id%50 == 0 {
			time.Sleep(2 * time.Millisecond) // let the TTL bite mid-run
		}
	}
	close(stop)
	wg.Wait()
	s := st.Stats()
	if s.Completed != 500 {
		t.Fatalf("completed %d, want 500 (eviction must not eat counters)", s.Completed)
	}
	if s.Retained > 8 {
		t.Fatalf("retained %d over MaxJobs 8", s.Retained)
	}
}

// The per-kind latency histograms /metrics exports separate populations
// the aggregate blends.
func TestKindLatencies(t *testing.T) {
	st := NewBoundedStore(StoreConfig{})
	for id := uint64(1); id <= 20; id++ {
		j := fakeJob(st, id)
		if id%2 == 0 {
			j.Spec.Kind = KindKernelBase
			completeTimed(st, j, 10*time.Millisecond)
		} else {
			j.Spec.Kind = KindCloud
			completeTimed(st, j, 200*time.Millisecond)
		}
	}
	kb, cl := st.kindLatencyHistogram(KindKernelBase), st.kindLatencyHistogram(KindCloud)
	if kb == nil || cl == nil {
		t.Fatal("missing per-kind histogram")
	}
	if kb.Count() != 10 || cl.Count() != 10 {
		t.Fatalf("per-kind counts: kernelbase %d, cloud %d", kb.Count(), cl.Count())
	}
	kbP50, clP50 := float64(kb.Quantile(0.50))/1e6, float64(cl.Quantile(0.50))/1e6
	if kbP50 < 10 || kbP50 > 12 || clP50 < 200 || clP50 > 230 {
		t.Fatalf("per-kind quantiles blended: kernelbase p50 %.2f ms, cloud p50 %.2f ms", kbP50, clP50)
	}
	if n := st.kindLatencyHistogram(KindWindows).Count(); n != 0 {
		t.Fatalf("kind with no jobs recorded %d samples", n)
	}
}

// With tracing off (the default), the per-job span choreography in the
// scheduler must not allocate: every span call is a nil-receiver no-op.
// This is the service-level companion of the obs package's guard.
func TestSchedulerDisabledTraceZeroAlloc(t *testing.T) {
	var j Job // zero trace/qspan — exactly what an untraced job carries
	allocs := testing.AllocsPerRun(1000, func() {
		j.qspan.End()
		root := j.trace.Root()
		asp := root.Child("attempt")
		asp.Annotate("attempt", "1")
		annotateFailure(nil, nil)
		asp.End()
		root.End()
	})
	if allocs != 0 {
		t.Fatalf("disabled trace path allocated %v/run, want 0", allocs)
	}
}
