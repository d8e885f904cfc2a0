package service

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
)

// assertNoGoroutineLeak waits for the goroutine count to settle back to
// the pre-test baseline (plus a little slack for runtime helpers). Every
// chaos path — watchdog-orphaned bodies, aborted backoffs, drained stalls
// — must terminate its goroutines; "fails, not leaks" is the contract.
func assertNoGoroutineLeak(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= base+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak: %d goroutines, baseline %d\n%s", n, base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// chaosRates is the sustained fault mix of the chaos suite: every site
// enabled, rates high enough that multi-fault jobs are common.
func chaosRates() fault.Rates {
	return fault.Rates{Boot: 0.2, Calibrate: 0.15, Restore: 0.15, Probe: 0.25, Stall: 0.08, Panic: 0.12}
}

// TestChaosSustainedFaultMix drives the full DefaultMix through sustained
// seeded faults on concurrent executors: every job must terminate with a
// classified outcome, the accounting must balance, and nothing may leak.
// Run under -race by make test-race, this is the robustness gate.
func TestChaosSustainedFaultMix(t *testing.T) {
	base := runtime.NumGoroutine()
	s := New(Config{
		Executors:   4,
		QueueDepth:  64,
		MaxAttempts: 3,
		JobDeadline: 2 * time.Second, // generous: only injected stalls should ever hit it
		Fault:       fault.Config{Seed: 0xc4a05, Rates: chaosRates()},
	})
	mix := DefaultMix()
	var jobs []*Job
	for i := 0; i < 2*len(mix); i++ {
		spec := mix[i%len(mix)]
		spec.Seed = uint64(1 + i%8)
		j, err := s.Submit(spec)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		jobs = append(jobs, j)
	}
	for _, j := range jobs {
		<-j.Done()
	}
	s.Drain()

	st := s.Stats()
	if st.Completed+st.Failed != len(jobs) {
		t.Fatalf("accounted %d+%d jobs, want %d", st.Completed, st.Failed, len(jobs))
	}
	if st.FaultsInjected == 0 {
		t.Fatal("chaos run injected no faults")
	}
	for _, j := range jobs {
		snap, ok := s.Store().Snapshot(j.ID)
		if !ok {
			t.Fatalf("job %d vanished", j.ID)
		}
		switch snap.Status {
		case StatusDone:
		case StatusFailed:
			if snap.ErrClass != ClassTransient && snap.ErrClass != ClassPermanent {
				t.Fatalf("job %d failed unclassified: err=%q class=%q", j.ID, snap.Err, snap.ErrClass)
			}
		default:
			t.Fatalf("job %d terminated in state %q", j.ID, snap.Status)
		}
	}
	// At these rates the healing machinery must actually have been
	// exercised: some retries, and some successes despite faults.
	if st.Retries == 0 {
		t.Fatal("no retries at sustained fault rates")
	}
	if st.Completed == 0 {
		t.Fatal("nothing succeeded — retries are not healing")
	}
	assertNoGoroutineLeak(t, base)
}

// jobTrace is the per-job retry/quarantine trace the determinism tests
// compare: terminal status, error text and class, and attempt accounting.
type jobTrace struct {
	Status   Status
	Err      string
	ErrClass ErrorClass
	Attempts int
	Retries  int
}

// runChaosTrace runs the given specs through a fresh scheduler and returns
// the per-job traces plus the injector's per-site fired counts and the
// quarantine total.
func runChaosTrace(t *testing.T, cfg Config, specs []JobSpec) ([]jobTrace, [6]uint64, int) {
	t.Helper()
	s := New(cfg)
	var jobs []*Job
	for i, spec := range specs {
		j, err := s.Submit(spec)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		jobs = append(jobs, j)
	}
	for _, j := range jobs {
		<-j.Done()
	}
	traces := make([]jobTrace, len(jobs))
	for i, j := range jobs {
		snap, _ := s.Store().Snapshot(j.ID)
		tr := jobTrace{Status: snap.Status, Err: snap.Err, ErrClass: snap.ErrClass, Attempts: snap.Attempts}
		if snap.Result != nil {
			tr.Retries = snap.Result.Retries
		}
		traces[i] = tr
	}
	var fired [6]uint64
	for _, site := range fault.Sites() {
		fired[site] = s.inj.Fired(site)
	}
	quarantined := s.cache.snapshot().Quarantined
	s.Drain()
	return traces, fired, quarantined
}

// chaosTraceSpecs is the mix the determinism tests run: both vendors,
// KPTI, userscan, both stateful temporal kinds and both defense flavours
// (rerand's sweep draws a second restore per attempt).
func chaosTraceSpecs() []JobSpec {
	var specs []JobSpec
	base := []JobSpec{
		{Kind: KindKernelBase, CPU: "12400F"},
		{Kind: KindKernelBase, CPU: "5600X"},
		{Kind: KindKPTI, CPU: "12400F"},
		{Kind: KindUserScan, CPU: "1065G7", EntropyBits: 10},
		{Kind: KindBehaviorSpy, CPU: "1065G7", DurationSec: 5},
		{Kind: KindAppFingerprint, CPU: "1065G7", App: "fps-game"},
		{Kind: KindDefenseEval, CPU: "12400F", Defense: DefenseFLARE},
		{Kind: KindDefenseEval, CPU: "12400F", Defense: DefenseRerand, RerandPeriodsSec: []float64{0.01}},
	}
	for i := 0; i < 2*len(base); i++ {
		spec := base[i%len(base)]
		spec.Seed = uint64(1 + i%5)
		specs = append(specs, spec)
	}
	return specs
}

// An injected probe fault fails an appfingerprint attempt transiently, as
// on every other kind: it must never surface as a finished job with an
// incorrect classification and an unobserved window.
func TestAppFingerprintProbeFaultIsTransient(t *testing.T) {
	s := New(Config{
		Executors:   1,
		MaxAttempts: 2,
		JobDeadline: -1,
		Fault:       fault.Config{Seed: 1, Rates: fault.Rates{Probe: 1}},
	})
	defer s.Drain()
	j, err := s.Submit(JobSpec{Kind: KindAppFingerprint, Seed: 5, App: "fps-game"})
	if err != nil {
		t.Fatal(err)
	}
	<-j.Done()
	snap, _ := s.Store().Snapshot(j.ID)
	if snap.Status != StatusFailed || snap.ErrClass != ClassTransient || snap.Attempts != 2 {
		t.Fatalf("status %q class %q attempts %d (result %+v), want failed/transient/2",
			snap.Status, snap.ErrClass, snap.Attempts, snap.Result)
	}
	if !strings.Contains(snap.Err, "injected probe fault") {
		t.Fatalf("error %q does not name the probe fault", snap.Err)
	}
}

// A failed attempt on a stateful session must leave the session where it
// was: the next successful job observes the window the failed one would
// have, bit-identical to a fresh session's first window.
func TestFailedTemporalAttemptKeepsTimeline(t *testing.T) {
	opt := core.Options{}
	for _, raw := range []JobSpec{
		{Kind: KindAppFingerprint, Seed: 5, App: "fps-game"},
		{Kind: KindBehaviorSpy, Seed: 5, DurationSec: 4},
	} {
		spec, err := raw.normalized()
		if err != nil {
			t.Fatal(err)
		}
		sess, err := buildSession(spec, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		probeFault := fault.New(fault.Config{Seed: 1, Rates: fault.Rates{Probe: 1}})
		env := &attemptEnv{plan: probeFault.Plan(spec.faultKey(), 1)}
		if _, err := execute(sess, spec, opt, env); !errors.As(err, new(*fault.Fault)) {
			t.Fatalf("%s: probe-faulted attempt returned %v, want the injected fault", spec.Kind, err)
		}
		if sess.nextT0 != 0 {
			t.Fatalf("%s: failed attempt advanced the timeline to %v", spec.Kind, sess.nextT0)
		}
		got, err := execute(sess, spec, opt, nil)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := buildSession(spec, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, err := execute(fresh, spec, opt, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("%s: window after a failed attempt differs from a fresh first window\nwant: %+v\ngot:  %+v",
				spec.Kind, want, got)
		}
	}
}

// TestChaosTraceDeterminismSerialized: with one executor, identical fault
// seeds produce bit-identical retry/quarantine traces across runs — every
// site enabled, including the build-time boot/calibrate sites (serialized
// execution makes cache hits, and therefore build-site draws,
// reproducible).
func TestChaosTraceDeterminismSerialized(t *testing.T) {
	// The watchdog is disabled: with one armed, a slow machine could fail
	// a *legitimately running* body at the deadline, making the trace a
	// function of host speed. Without it, injected stalls fail fast —
	// still drawn deterministically — and the watchdog path keeps its own
	// deterministic coverage in TestDeadlineFailsStalledJob.
	cfg := Config{
		Executors:   1,
		QueueDepth:  64,
		MaxAttempts: 3,
		JobDeadline: -1,
		Fault:       fault.Config{Seed: 7, Rates: chaosRates()},
	}
	specs := chaosTraceSpecs()
	tr1, fired1, q1 := runChaosTrace(t, cfg, specs)
	tr2, fired2, q2 := runChaosTrace(t, cfg, specs)
	for i := range tr1 {
		if tr1[i] != tr2[i] {
			t.Fatalf("job %d trace diverged:\n run1 %+v\n run2 %+v", i, tr1[i], tr2[i])
		}
	}
	if fired1 != fired2 {
		t.Fatalf("per-site fault counts diverged: %v vs %v", fired1, fired2)
	}
	if q1 != q2 {
		t.Fatalf("quarantine counts diverged: %d vs %d", q1, q2)
	}
	if fired1 == ([6]uint64{}) {
		t.Fatal("serialized chaos run injected nothing")
	}
}

// TestChaosTraceDeterminismConcurrent: the per-attempt sites (restore,
// probe, stall, panic) are keyed by (job, attempt), so even with 4 racing
// executors the traces are identical run over run. Boot and calibrate are
// disabled here — their draws happen only on session *builds*, and which
// submission builds vs. adopts depends on execution order (the documented
// cache-dependence caveat; the serialized test above covers them).
func TestChaosTraceDeterminismConcurrent(t *testing.T) {
	// JobDeadline is disabled for the same host-speed reason as the
	// serialized test: a real watchdog racing real bodies is the one
	// nondeterminism the fault schedule cannot absorb.
	cfg := Config{
		Executors:   4,
		QueueDepth:  64,
		MaxAttempts: 3,
		JobDeadline: -1,
		Fault: fault.Config{Seed: 11, Rates: fault.Rates{
			Restore: 0.2, Probe: 0.3, Stall: 0.08, Panic: 0.12,
		}},
	}
	specs := chaosTraceSpecs()
	tr1, fired1, q1 := runChaosTrace(t, cfg, specs)
	tr2, fired2, q2 := runChaosTrace(t, cfg, specs)
	for i := range tr1 {
		if tr1[i] != tr2[i] {
			t.Fatalf("job %d trace diverged under concurrency:\n run1 %+v\n run2 %+v", i, tr1[i], tr2[i])
		}
	}
	if fired1 != fired2 || q1 != q2 {
		t.Fatalf("aggregate fault/quarantine counts diverged: %v/%d vs %v/%d", fired1, q1, fired2, q2)
	}
}

// TestChaosZeroFaultBitIdentical: a scheduler with a (non-zero-seeded but
// zero-rate) fault config produces results bit-identical to a plain
// scheduler — the disabled injector is exactly the production hot path.
func TestChaosZeroFaultBitIdentical(t *testing.T) {
	run := func(cfg Config) []*Result {
		s := New(cfg)
		defer s.Drain()
		var out []*Result
		for i, spec := range cheapMix() {
			spec.Seed = uint64(40 + i)
			j, err := s.Submit(spec)
			if err != nil {
				t.Fatalf("submit: %v", err)
			}
			res, err := s.Wait(j)
			if err != nil {
				t.Fatalf("job failed on zero-fault run: %v", err)
			}
			out = append(out, res)
		}
		return out
	}
	plain := run(Config{Executors: 2})
	zeroRate := run(Config{Executors: 2, Fault: fault.Config{Seed: 0xfeed}}) // seed set, all rates zero
	if !reflect.DeepEqual(plain, zeroRate) {
		t.Fatalf("zero-fault results diverged from plain scheduler:\n%+v\nvs\n%+v", plain, zeroRate)
	}
}

// TestPanicIsolationQuarantinesSession: a panicking job body is converted
// into a classified failure, never kills its executor, and every attempt's
// session is quarantined and dropped.
func TestPanicIsolationQuarantinesSession(t *testing.T) {
	base := runtime.NumGoroutine()
	s := New(Config{
		Executors:    2,
		MaxAttempts:  2,
		RetryBackoff: time.Millisecond,
		Fault:        fault.Config{Seed: 1, Rates: fault.Rates{Panic: 1}},
	})
	const n = 4
	var jobs []*Job
	for i := 0; i < n; i++ {
		j, err := s.Submit(JobSpec{Kind: KindKernelBase, CPU: "12400F", Seed: uint64(60 + i)})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	for _, j := range jobs {
		<-j.Done()
		snap, _ := s.Store().Snapshot(j.ID)
		if snap.Status != StatusFailed {
			t.Fatalf("job %d: panic-rate-1 job ended %q", j.ID, snap.Status)
		}
		if !strings.Contains(snap.Err, "panicked") {
			t.Fatalf("job %d error %q does not report the panic", j.ID, snap.Err)
		}
		if snap.ErrClass != ClassTransient {
			t.Fatalf("panic classified %q, want transient", snap.ErrClass)
		}
		if snap.Attempts != 2 {
			t.Fatalf("job %d ran %d attempts, want MaxAttempts=2", j.ID, snap.Attempts)
		}
	}
	st := s.Stats()
	// Every attempt bound a session and panicked on it: all quarantined.
	if st.Quarantined != 2*n {
		t.Fatalf("quarantined %d sessions, want %d (one per attempt)", st.Quarantined, 2*n)
	}
	s.Drain()
	assertNoGoroutineLeak(t, base)
}

// TestDeadlineFailsStalledJob: an injected stall wedges the body until the
// watchdog fails the attempt — the job fails with ErrJobDeadline instead
// of holding its executor forever, the orphaned body self-terminates, and
// the abandoned session is quarantined.
func TestDeadlineFailsStalledJob(t *testing.T) {
	base := runtime.NumGoroutine()
	s := New(Config{
		Executors:   1,
		MaxAttempts: 1,
		JobDeadline: 80 * time.Millisecond,
		Fault:       fault.Config{Seed: 2, Rates: fault.Rates{Stall: 1}},
	})
	j, err := s.Submit(JobSpec{Kind: KindKernelBase, CPU: "12400F", Seed: 70})
	if err != nil {
		t.Fatal(err)
	}
	<-j.Done()
	snap, _ := s.Store().Snapshot(j.ID)
	if snap.Status != StatusFailed || !strings.Contains(snap.Err, "deadline") {
		t.Fatalf("stalled job ended %q / %q, want a deadline failure", snap.Status, snap.Err)
	}
	if snap.ErrClass != ClassTransient {
		t.Fatalf("deadline classified %q, want transient", snap.ErrClass)
	}
	s.Drain()
	// The orphaned body quarantines its session asynchronously after the
	// watchdog fails the job; give it a moment to finish its cleanup.
	settle := time.Now().Add(5 * time.Second)
	for s.Stats().Quarantined == 0 {
		if time.Now().After(settle) {
			t.Fatal("watchdog-abandoned session was not quarantined")
		}
		time.Sleep(5 * time.Millisecond)
	}
	assertNoGoroutineLeak(t, base)
}

// TestRetryHealsTransientFaults: at probe rate 0.5 with 4 attempts, most
// jobs succeed — some only after retries, which their results record.
func TestRetryHealsTransientFaults(t *testing.T) {
	s := New(Config{
		Executors:    2,
		MaxAttempts:  4,
		RetryBackoff: time.Millisecond,
		Fault:        fault.Config{Seed: 5, Rates: fault.Rates{Probe: 0.5}},
	})
	defer s.Drain()
	var jobs []*Job
	for i := 0; i < 16; i++ {
		j, err := s.Submit(JobSpec{Kind: KindKernelBase, CPU: "12400F", Seed: uint64(80 + i)})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	healed := 0
	for _, j := range jobs {
		<-j.Done()
		snap, _ := s.Store().Snapshot(j.ID)
		if snap.Status == StatusDone && snap.Result.Retries > 0 {
			healed++
			if snap.Attempts != snap.Result.Retries+1 {
				t.Fatalf("job %d: attempts %d vs retries %d", j.ID, snap.Attempts, snap.Result.Retries)
			}
		}
		if snap.Status == StatusFailed && snap.ErrClass != ClassTransient {
			t.Fatalf("probe-fault job failed with class %q", snap.ErrClass)
		}
	}
	if healed == 0 {
		t.Fatal("no job recorded a healed retry at probe rate 0.5")
	}
	if st := s.Stats(); st.Retries == 0 || st.Completed == 0 {
		t.Fatalf("retry accounting broken: %+v", st)
	}
}

// TestDrainAbortsRetryBackoff: a drain arriving while a job sits in a long
// retry backoff must abort the wait immediately — the job fails with its
// last classified error and Drain returns without serving the backoff.
// Drain stays idempotent throughout.
func TestDrainAbortsRetryBackoff(t *testing.T) {
	base := runtime.NumGoroutine()
	s := New(Config{
		Executors:    1,
		MaxAttempts:  3,
		RetryBackoff: 30 * time.Second, // would outlive the test if honored
		Fault:        fault.Config{Seed: 3, Rates: fault.Rates{Boot: 1}},
	})
	j, err := s.Submit(JobSpec{Kind: KindKernelBase, CPU: "12400F", Seed: 90})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // let attempt 1 fail into the backoff
	start := time.Now()
	s.Drain()
	s.Drain() // idempotent
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("drain took %v — the backoff was not aborted", d)
	}
	<-j.Done()
	snap, _ := s.Store().Snapshot(j.ID)
	if snap.Status != StatusFailed {
		t.Fatalf("job ended %q, want failed", snap.Status)
	}
	if !strings.Contains(snap.Err, "drain") || !strings.Contains(snap.Err, "fault") {
		t.Fatalf("error %q should record both the drain and the underlying fault", snap.Err)
	}
	if snap.ErrClass != ClassTransient {
		t.Fatalf("classified %q, want transient", snap.ErrClass)
	}
	assertNoGoroutineLeak(t, base)
}

// TestDrainReleasesInjectedStall: a drain must also release a body wedged
// in an injected stall (watchdog far away) — the stall unblocks on the
// drain signal, the job terminates classified, nothing leaks.
func TestDrainReleasesInjectedStall(t *testing.T) {
	base := runtime.NumGoroutine()
	s := New(Config{
		Executors:   1,
		MaxAttempts: 2,
		JobDeadline: 30 * time.Second, // watchdog will not save us; drain must
		Fault:       fault.Config{Seed: 4, Rates: fault.Rates{Stall: 1}},
	})
	j, err := s.Submit(JobSpec{Kind: KindKernelBase, CPU: "12400F", Seed: 91})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // let the body enter the stall
	start := time.Now()
	s.Drain()
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("drain took %v against a stalled job", d)
	}
	<-j.Done()
	snap, _ := s.Store().Snapshot(j.ID)
	if snap.Status != StatusFailed || snap.ErrClass != ClassTransient {
		t.Fatalf("stalled job ended %q class %q", snap.Status, snap.ErrClass)
	}
	assertNoGoroutineLeak(t, base)
}

// TestQuarantineNeverReadopted: a quarantined session is dropped at
// release and the next acquire builds a fresh one — never the condemned
// session, even though its victim key matches.
func TestQuarantineNeverReadopted(t *testing.T) {
	cache := newSessionCache(8)
	spec, err := JobSpec{Kind: KindKernelBase, CPU: "12400F", Seed: 95}.normalized()
	if err != nil {
		t.Fatal(err)
	}
	s1, reused, err := cache.acquire(spec, nil)
	if err != nil || reused {
		t.Fatalf("first acquire: reused=%v err=%v", reused, err)
	}
	cache.quarantine(s1)
	cache.quarantine(s1) // counted once
	cache.release(s1)
	s2, reused, err := cache.acquire(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if reused || s2 == s1 {
		t.Fatal("quarantined session was re-adopted")
	}
	if cs := cache.snapshot(); cs.SessionMisses != 2 || cs.Quarantined != 1 {
		t.Fatalf("made=%d quarantined=%d, want 2/1", cs.SessionMisses, cs.Quarantined)
	}
	// The replacement must be bit-identical per the calibration contract
	// (compare the cutoffs — the threshold structs carry NaN sentinels,
	// which never compare equal to themselves).
	if s2.p.Threshold.Cycles != s1.p.Threshold.Cycles ||
		s2.p.StoreThreshold.Cycles != s1.p.StoreThreshold.Cycles {
		t.Fatal("rebuilt session's calibration diverged from the condemned one")
	}
	if !s2.cachedCal {
		t.Fatal("rebuild recalibrated instead of replaying the cached calibration")
	}
}

// TestWaitCtx covers both outcomes: a finished job returns its result, a
// wedged job returns the context error instead of hanging.
func TestWaitCtx(t *testing.T) {
	s := New(Config{Executors: 1})
	j, err := s.Submit(JobSpec{Kind: KindKernelBase, CPU: "12400F", Seed: 96})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.WaitCtx(context.Background(), j)
	if err != nil || res == nil {
		t.Fatalf("WaitCtx on finished job: res=%v err=%v", res, err)
	}
	s.Drain()

	wedged := New(Config{
		Executors:   1,
		JobDeadline: 30 * time.Second,
		Fault:       fault.Config{Seed: 6, Rates: fault.Rates{Stall: 1}},
	})
	j2, err := wedged.Submit(JobSpec{Kind: KindKernelBase, CPU: "12400F", Seed: 97})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if _, err := wedged.WaitCtx(ctx, j2); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("WaitCtx on wedged job returned %v, want deadline exceeded", err)
	}
	wedged.Drain()
}

// TestHTTPWaitLongPoll: GET /jobs/{id}?wait= long-polls until the job
// finishes (or the capped wait elapses) and returns its state either way;
// malformed waits are 400s.
func TestHTTPWaitLongPoll(t *testing.T) {
	s := New(Config{Executors: 1})
	defer s.Drain()
	srv := httptest.NewServer(NewHandler(s))
	defer srv.Close()

	body := strings.NewReader(`{"kind":"kernelbase","seed":98}`)
	resp, err := http.Post(srv.URL+"/jobs", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	var sub struct {
		ID uint64 `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	resp, err = http.Get(srv.URL + "/jobs/1?wait=10s")
	if err != nil {
		t.Fatal(err)
	}
	var snap Job
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if snap.Status != StatusDone {
		t.Fatalf("long-polled job still %q", snap.Status)
	}

	resp, err = http.Get(srv.URL + "/jobs/1?wait=bogus")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bogus wait returned %d, want 400", resp.StatusCode)
	}
}

// TestHTTPShedRetryAfter: with a shed watermark set and the executor
// deterministically wedged, admission control turns submissions away with
// 429 + Retry-After before the queue is full, and /stats counts the sheds.
func TestHTTPShedRetryAfter(t *testing.T) {
	s := New(Config{
		Executors:     1,
		QueueDepth:    8,
		ShedWatermark: 2,
		MaxAttempts:   1,
		JobDeadline:   30 * time.Second,
		Fault:         fault.Config{Seed: 8, Rates: fault.Rates{Stall: 1}},
	})
	srv := httptest.NewServer(NewHandler(s))
	defer srv.Close()

	var shed *http.Response
	for i := 0; i < 8; i++ {
		resp, err := http.Post(srv.URL+"/jobs", "application/json",
			strings.NewReader(`{"kind":"kernelbase","seed":99}`))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			shed = resp
			break
		}
		resp.Body.Close()
	}
	if shed == nil {
		t.Fatal("watermark 2 never shed within 8 submissions against a wedged executor")
	}
	if ra := shed.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 response carries no Retry-After")
	}
	shed.Body.Close()

	resp, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Shed == 0 || st.Rejected < st.Shed {
		t.Fatalf("shed accounting broken: %+v", st)
	}
	s.Drain()
}

// TestDrainDuringChaos: draining mid-fault-storm (retries, stalls,
// quarantines all in flight) terminates promptly with every job accounted
// for and no goroutines left behind — the satellite's drain-vs-faults
// race, leak-checked.
func TestDrainDuringChaos(t *testing.T) {
	base := runtime.NumGoroutine()
	s := New(Config{
		Executors:    4,
		QueueDepth:   64,
		MaxAttempts:  3,
		RetryBackoff: 20 * time.Millisecond,
		JobDeadline:  250 * time.Millisecond,
		Fault:        fault.Config{Seed: 9, Rates: chaosRates()},
	})
	var jobs []*Job
	for i := 0; i < 24; i++ {
		spec := cheapMix()[i%len(cheapMix())]
		spec.Seed = uint64(120 + i%6)
		j, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	time.Sleep(30 * time.Millisecond) // land mid-storm
	start := time.Now()
	s.Drain()
	if d := time.Since(start); d > 30*time.Second {
		t.Fatalf("drain took %v under chaos", d)
	}
	for _, j := range jobs {
		select {
		case <-j.Done():
		default:
			t.Fatalf("job %d still unterminated after drain", j.ID)
		}
		snap, _ := s.Store().Snapshot(j.ID)
		if snap.Status != StatusDone && snap.Status != StatusFailed {
			t.Fatalf("job %d in state %q after drain", j.ID, snap.Status)
		}
		if snap.Status == StatusFailed && snap.ErrClass == "" {
			t.Fatalf("job %d failed unclassified: %q", j.ID, snap.Err)
		}
	}
	assertNoGoroutineLeak(t, base)
}
