package service

import (
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
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

// closedLoop submits n jobs that cycle through mix — job i scans victim
// seed base + i mod victims — from conc submitters that each keep one job
// in flight, resubmitting after a short pause while the queue is full. It
// returns once every job has finished.
func closedLoop(t *testing.T, s *Scheduler, conc, n int, mix []JobSpec, base uint64, victims int) {
	t.Helper()
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				spec := mix[i%len(mix)]
				spec.Seed = base + uint64(i%victims)
				j, err := s.Submit(spec)
				for errors.Is(err, ErrQueueFull) {
					time.Sleep(200 * time.Microsecond)
					j, err = s.Submit(spec)
				}
				if err != nil {
					t.Errorf("submit job %d: %v", i, err)
					return
				}
				// A failed job shows in Stats; the callers assert on it.
				_, _ = s.Wait(j)
			}
		}()
	}
	wg.Wait()
}

// The scheduler must sustain a deep concurrent mixed workload — ≥64
// concurrent submitters against pooled sessions and shared scan replicas —
// with every job accounted for. Run under -race (make test-race / make ci)
// this is the service's data-race gate.
func TestLoadConcurrentMixedWorkload(t *testing.T) {
	const jobs = 96
	s := New(Config{Executors: 8, QueueDepth: 32, ScanWorkers: 2})
	closedLoop(t, s, 64, jobs, cheapMix(), 100, 16)
	s.Drain()

	st := s.Stats()
	if st.Completed+st.Failed != jobs {
		t.Fatalf("accounted %d+%d jobs, want %d", st.Completed, st.Failed, jobs)
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
	if st.Sessions >= jobs {
		t.Fatalf("built %d sessions for %d jobs — session reuse broken", st.Sessions, jobs)
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
	{JobSpec{Kind: KindWindows, Drivers: MaxJobDrivers + 1}, "drivers, max"},
}

// The victim-field bounds TestSubmitValidation rejects past are inclusive:
// the extreme values themselves normalize cleanly.
func TestSubmitValidationBoundsInclusive(t *testing.T) {
	for _, spec := range []JobSpec{
		{Kind: KindKPTI, Trampoline: linux.ImageSlots*paging.Page2M - linux.TrampolinePages*paging.Page4K},
		{Kind: KindUserScan, EntropyBits: 1},
		{Kind: KindUserScan, EntropyBits: userspace.EntropyBits},
		{Kind: KindWindows, Drivers: 1},
		{Kind: KindWindows, Drivers: MaxJobDrivers},
	} {
		if _, err := spec.normalized(); err != nil {
			t.Errorf("spec %+v rejected: %v", spec, err)
		}
	}
}

// FuzzJobSpec: every spec Submit accepts must, with faults off, finish in
// one attempt — in a result, or in a permanent-class error — and a second
// run on a fresh scheduler must end the same way. A transient class
// (panic, deadline) means the service accepted an input it cannot serve.
// The seeds are the load mixes plus the extreme values of each bounded
// field.
func FuzzJobSpec(f *testing.F) {
	edges := []JobSpec{
		{Kind: KindWindows, Drivers: MaxJobDrivers},
		{Kind: KindCloud, Provider: "azure", AzureMaxSlot: 1},
		{Kind: KindUserScan, EntropyBits: 1},
		{Kind: KindUserScan, EntropyBits: userspace.EntropyBits},
		{Kind: KindKPTI, Trampoline: 0x1000},
		{Kind: KindBehaviorSpy, DurationSec: 1},
		{Kind: KindAppFingerprint, Ticks: 1},
		{Kind: KindDefenseEval, Defense: DefenseRerand, RerandPeriodsSec: []float64{1e-300}},
	}
	for _, list := range [][]JobSpec{DefaultMix(), DefenseMatrix(), edges} {
		for _, spec := range list {
			b, err := json.Marshal(spec)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(b)
		}
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var spec JobSpec
		if json.Unmarshal(body, &spec) != nil {
			return
		}
		run := func() (Job, bool) {
			s := New(Config{Executors: 1})
			defer s.Drain()
			j, err := s.Submit(spec)
			if err != nil {
				return Job{}, false
			}
			<-j.Done()
			snap, _ := s.JobSnapshot(j.ID)
			return snap, true
		}
		first, ok := run()
		if !ok {
			return
		}
		if first.Attempts > 1 || (first.Status == StatusFailed && first.ErrClass != ClassPermanent) {
			t.Fatalf("spec %s: %d attempts, status %s, class %q: %s",
				body, first.Attempts, first.Status, first.ErrClass, first.Err)
		}
		second, _ := run()
		if second.Status != first.Status || second.Err != first.Err || !reflect.DeepEqual(second.Result, first.Result) {
			t.Fatalf("spec %s ends differently on a second run:\nfirst:  %s %q %+v\nsecond: %s %q %+v",
				body, first.Status, first.Err, first.Result, second.Status, second.Err, second.Result)
		}
	})
}
