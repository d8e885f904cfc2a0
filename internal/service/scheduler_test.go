package service

import (
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/linux"
	"repro/internal/paging"
	"repro/internal/userspace"
)

// cheapMix is a load mix of the fast kinds (for race-detector runs).
func cheapMix() []JobSpec {
	return []JobSpec{
		{Kind: KindKernelBase, CPU: "12400F"},
		{Kind: KindKPTI, CPU: "12400F"},
		{Kind: KindUserScan, CPU: "1065G7", EntropyBits: 10},
		{Kind: KindKernelBase, CPU: "5600X"},
	}
}

// The load harness must sustain a deep concurrent mixed workload — ≥64
// concurrent submitters against pooled sessions and shared scan replicas —
// with every job accounted for. Run under -race (make test-race / make ci)
// this is the service's data-race gate.
func TestLoadConcurrentMixedWorkload(t *testing.T) {
	s := New(Config{Executors: 8, QueueDepth: 32, ScanWorkers: 2})
	rep := RunLoad(s, LoadConfig{Jobs: 96, Concurrency: 64, Seed: 100, Mix: cheapMix()})
	s.Drain()

	st := s.Stats()
	if st.Completed+st.Failed != rep.Jobs {
		t.Fatalf("accounted %d+%d jobs, want %d", st.Completed, st.Failed, rep.Jobs)
	}
	if st.Failed != 0 {
		t.Fatalf("%d jobs failed", st.Failed)
	}
	if st.SuccessRate < 0.95 {
		t.Fatalf("success rate %.3f too low", st.SuccessRate)
	}
	if st.JobsPerSec <= 0 || st.P50Ms <= 0 || st.P99Ms < st.P50Ms {
		t.Fatalf("degenerate latency stats: %+v", st)
	}
	if st.Sessions == 0 {
		t.Fatal("no sessions were built")
	}
	// The pool must have been exercised and the session cache must have
	// amortized calibrations: far fewer sessions than jobs.
	if st.PoolReplicas == 0 {
		t.Fatal("shared scan pool was never used")
	}
	if st.Sessions >= rep.Jobs {
		t.Fatalf("built %d sessions for %d jobs — session reuse broken", st.Sessions, rep.Jobs)
	}
}

// Drain must finish queued work, then reject new submissions.
func TestDrainFinishesQueuedJobs(t *testing.T) {
	s := New(Config{Executors: 2, QueueDepth: 16})
	var jobs []*Job
	for i := 0; i < 8; i++ {
		j, err := s.Submit(JobSpec{Kind: KindKernelBase, CPU: "12400F", Seed: uint64(200 + i)})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	s.Drain()
	for _, j := range jobs {
		select {
		case <-j.Done():
		default:
			t.Fatalf("job %d not finished after Drain", j.ID)
		}
		snap, _ := s.Store().Snapshot(j.ID)
		if snap.Status != StatusDone {
			t.Fatalf("job %d status %q after drain", j.ID, snap.Status)
		}
	}
	if _, err := s.Submit(JobSpec{Kind: KindKernelBase, Seed: 1}); err != ErrDraining {
		t.Fatalf("submit after drain: err %v, want ErrDraining", err)
	}
	if s.Stats().Rejected != 1 {
		t.Fatalf("rejected count %d, want 1", s.Stats().Rejected)
	}
}

// A full queue must reject with ErrQueueFull, not block: one executor
// working 2^18-slot Windows scans cannot keep up with a tight submit loop.
func TestBoundedQueueBackpressure(t *testing.T) {
	s := New(Config{Executors: 1, QueueDepth: 2})
	defer s.Drain()
	sawFull := false
	for i := 0; i < 64 && !sawFull; i++ {
		_, err := s.Submit(JobSpec{Kind: KindWindows, CPU: "12400F", Seed: uint64(300 + i)})
		if err == ErrQueueFull {
			sawFull = true
		} else if err != nil {
			t.Fatal(err)
		}
	}
	if !sawFull {
		t.Fatal("64 instant submissions never hit the bounded queue")
	}
}

// Invalid specs must be rejected at submission, not at execution, each by
// the check that names its fault.
func TestSubmitValidation(t *testing.T) {
	s := New(Config{Executors: 1})
	defer s.Drain()
	for _, c := range invalidSpecs {
		_, err := s.Submit(c.spec)
		if err == nil {
			t.Fatalf("spec %+v was accepted", c.spec)
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Fatalf("spec %+v: error %q, want it to contain %q", c.spec, err, c.want)
		}
	}
}

// invalidSpecs are specs Submit must reject, each with a fragment of the
// error it must give. FuzzSubmitHTTP seeds its corpus from them too.
var invalidSpecs = []struct {
	spec JobSpec
	want string
}{
	{JobSpec{Kind: "frobnicate"}, "unknown job kind"},
	{JobSpec{Kind: KindCloud, Provider: "dc1"}, "needs provider"},
	{JobSpec{Kind: KindCloud}, "needs provider"},
	{JobSpec{Kind: KindKernelBase, CPU: "no-such-cpu"}, "no CPU preset"},
	{JobSpec{Kind: KindDefenseEval, Defense: "moat"}, "needs defense flare|fgkaslr|rerand|maskedop"},
	{JobSpec{Kind: KindDefenseEval, Defense: DefenseFLARE, Function: "tcp_sendmsg"}, "only meaningful for defense fgkaslr"},
	{JobSpec{Kind: KindDefenseEval, Defense: DefenseFGKASLR, Function: "no_such_function"}, "unknown kernel function"},
	{JobSpec{Kind: KindDefenseEval, Defense: DefenseMaskedOp, RerandPeriodsSec: []float64{1}}, "only meaningful for defense rerand"},
	{JobSpec{Kind: KindDefenseEval, Defense: DefenseRerand, RerandPeriodsSec: []float64{1, 0}}, "non-positive rerand period"},
	{JobSpec{Kind: KindDefenseEval, Defense: DefenseRerand, RerandPeriodsSec: []float64{-2}}, "non-positive rerand period"},
	{JobSpec{Kind: KindDefenseEval, Defense: DefenseRerand, RerandPeriodsSec: slices.Repeat([]float64{1}, MaxRerandSweepPeriods+1)}, "sweep periods, max"},
	{JobSpec{Kind: KindBehaviorSpy, Targets: slices.Repeat([]string{"bluetooth"}, core.MaxSpyTargets+1)}, "spy targets, max"},
	{JobSpec{Kind: KindKPTI, Trampoline: math.MaxUint64}, "not a page-aligned offset"},
	{JobSpec{Kind: KindKPTI, Trampoline: linux.DefaultTrampolineOffset + 1}, "not a page-aligned offset"},
	{JobSpec{Kind: KindKPTI, Trampoline: linux.ImageSlots*paging.Page2M - 2*paging.Page4K}, "not a page-aligned offset"},
	{JobSpec{Kind: KindUserScan, EntropyBits: -3}, "entropy_bits -3 out of range"},
	{JobSpec{Kind: KindUserScan, EntropyBits: 99}, "entropy_bits 99 out of range"},
	{JobSpec{Kind: KindWindows, Drivers: -1}, "negative driver count"},
}

// The victim-field bounds TestSubmitValidation rejects past are inclusive:
// the extreme values themselves normalize cleanly.
func TestSubmitValidationBoundsInclusive(t *testing.T) {
	for _, spec := range []JobSpec{
		{Kind: KindKPTI, Trampoline: linux.ImageSlots*paging.Page2M - linux.TrampolinePages*paging.Page4K},
		{Kind: KindUserScan, EntropyBits: 1},
		{Kind: KindUserScan, EntropyBits: userspace.EntropyBits},
		{Kind: KindWindows, Drivers: 1},
	} {
		if _, err := spec.normalized(); err != nil {
			t.Errorf("spec %+v rejected: %v", spec, err)
		}
	}
}

// The store must stream completions to subscribers without ever blocking
// the executors.
func TestStoreStreamsCompletions(t *testing.T) {
	s := New(Config{Executors: 2})
	stream, cancel := s.Store().Subscribe(32)
	defer cancel()
	const n = 6
	for i := 0; i < n; i++ {
		if _, err := s.Submit(JobSpec{Kind: KindKernelBase, CPU: "12400F", Seed: uint64(400 + i)}); err != nil {
			t.Fatal(err)
		}
	}
	seen := make(map[uint64]bool)
	timeout := time.After(30 * time.Second)
	for len(seen) < n {
		select {
		case j := <-stream:
			if j.Result == nil {
				t.Fatalf("streamed job %d has no result", j.ID)
			}
			seen[j.ID] = true
		case <-timeout:
			t.Fatalf("stream delivered %d/%d completions", len(seen), n)
		}
	}
	s.Drain()
}

// AppendBench must write a BENCH_scan.json-schema line.
func TestAppendBenchWritesEntry(t *testing.T) {
	s := New(Config{Executors: 2})
	rep := RunLoad(s, LoadConfig{Jobs: 4, Concurrency: 2, Seed: 500, Mix: cheapMix()[:1]})
	s.Drain()
	path := t.TempDir() + "/bench.json"
	if err := AppendBench(path, rep); err != nil {
		t.Fatal(err)
	}
	if err := AppendBench(path, rep); err != nil {
		t.Fatal(err)
	}
}
