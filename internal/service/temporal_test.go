package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/behavior"
	"repro/internal/core"
	"repro/internal/linux"
	"repro/internal/machine"
	"repro/internal/uarch"
)

// directSpyResults mounts the behavior-spy recipe with plain core.* calls —
// boot, calibrate, module reconnaissance, then consecutive windows on one
// prober — and maps each window to a service Result. This is the yardstick
// the stateful sessions must match: job k on a reused session == window k
// of the direct sequence.
func directSpyResults(t *testing.T, spec JobSpec, windows int, workers int) []*Result {
	t.Helper()
	spec, err := spec.normalized()
	if err != nil {
		t.Fatal(err)
	}
	preset := uarch.ByName(spec.CPU)
	m := machine.New(preset, spec.Seed)
	k, err := linux.Boot(m, linux.Config{Seed: spec.Seed, FLARE: spec.FLARE, FGKASLR: spec.FGKASLR})
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.NewProber(m, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	targets, err := core.LocateTargets(core.Modules(p, core.SizeTable(k.ProcModules())), spec.Targets...)
	if err != nil {
		t.Fatal(err)
	}
	tls := spyTimelines(spec)
	drv, err := behavior.NewDriver(k, tls...)
	if err != nil {
		t.Fatal(err)
	}
	drv.SetResolution(spec.TickSec)
	spy := &core.BehaviorSpy{P: p, Targets: targets, PagesPerModule: 10, TickSec: spec.TickSec}
	p.Opt.Workers = workers

	var out []*Result
	for w := 0; w < windows; w++ {
		t0 := p.M.RDTSC()
		winStart := float64(w) * spec.DurationSec
		winEnd := winStart + spec.DurationSec
		traces, err := spy.RunWindow(drv, winStart, winEnd)
		if err != nil {
			t.Fatal(err)
		}
		probed := p.M.RDTSC() - t0
		acc := make(map[string]float64, len(traces))
		mean := 0.0
		for i, tr := range traces {
			a := tr.Accuracy(tls[i])
			acc[tr.Module] = a
			mean += a
		}
		mean /= float64(len(traces))
		out = append(out, &Result{
			Kind:           spec.Kind,
			Correct:        mean >= 0.9,
			Accuracy:       mean,
			TargetAccuracy: acc,
			WindowStartSec: winStart,
			WindowEndSec:   winEnd,
			ProbeSimSec:    preset.CyclesToSeconds(probed),
			TotalSimSec:    preset.CyclesToSeconds(probed),
		})
	}
	return out
}

// A stateful behavior-spy session must serve consecutive jobs as
// consecutive windows of one victim timeline, bit-identical to the direct
// core-call sequence — including across session reuse, at several
// scan-worker settings.
func TestBehaviorSpyServiceParity(t *testing.T) {
	spec := JobSpec{Kind: KindBehaviorSpy, Seed: 52, DurationSec: 15}
	const windows = 3

	for _, workers := range []int{0, 1, 4} {
		want := directSpyResults(t, spec, windows, workers)
		s := New(Config{Executors: 1, ScanWorkers: workers})
		for w := 0; w < windows; w++ {
			j, err := s.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			got, err := s.Wait(j)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want[w], got) {
				t.Fatalf("workers=%d window %d differs from direct calls\nwant: %+v\ngot:  %+v",
					workers, w, want[w], got)
			}
			snap, _ := s.Store().Snapshot(j.ID)
			if w > 0 && !snap.ReusedSession {
				t.Fatalf("window %d did not reuse the stateful session", w)
			}
		}
		s.Drain()
	}
}

// The app fingerprinter's service jobs must classify every standard
// profile correctly and advance the session window per job.
func TestAppFingerprintServiceJobs(t *testing.T) {
	s := New(Config{Executors: 1, ScanWorkers: 2})
	defer s.Drain()
	for _, prof := range core.StandardAppProfiles() {
		spec := JobSpec{Kind: KindAppFingerprint, Seed: 53, App: prof.Name}
		var prevEnd float64
		for round := 0; round < 2; round++ {
			j, err := s.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			res, err := s.Wait(j)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.App != prof.Name {
				t.Fatalf("%s round %d: classified as %q (correct=%v)", prof.Name, round, res.App, res.Correct)
			}
			if res.WindowStartSec != prevEnd {
				t.Fatalf("%s round %d: window starts at %v, want %v", prof.Name, round, res.WindowStartSec, prevEnd)
			}
			prevEnd = res.WindowEndSec
		}
	}
}

// Temporal kinds must run inside the mixed workload (DefaultMix includes
// them) with full success.
func TestLoadMixIncludesTemporalKinds(t *testing.T) {
	mix := DefaultMix()
	haveSpy, haveFP := false, false
	for _, spec := range mix {
		switch spec.Kind {
		case KindBehaviorSpy:
			haveSpy = true
		case KindAppFingerprint:
			haveFP = true
		}
	}
	if !haveSpy || !haveFP {
		t.Fatalf("DefaultMix lacks temporal kinds (spy=%v, fingerprint=%v)", haveSpy, haveFP)
	}

	s := New(Config{Executors: 4, ScanWorkers: 2, QueueDepth: 16})
	jobs := 2 * len(mix)
	closedLoop(t, s, 4, jobs, mix, 11, 3)
	s.Drain()
	st := s.Stats()
	if st.Failed > 0 {
		t.Fatalf("%d mixed-load jobs failed", st.Failed)
	}
	if st.Completed != jobs {
		t.Fatalf("completed %d of %d", st.Completed, jobs)
	}
}

// fakeJob builds a store-registered job in the given state for the
// retention tests.
func fakeJob(st *Store, id uint64) *Job {
	j := &Job{ID: id, Status: StatusQueued, done: make(chan struct{})}
	st.add(j)
	return j
}

// The bounded store must evict only finished jobs, oldest first, keep
// in-flight jobs queryable for the drain path, and keep aggregate counters
// across evictions.
func TestStoreEvictsOldestFinished(t *testing.T) {
	st := NewBoundedStore(StoreConfig{MaxJobs: 3})

	running := fakeJob(st, 1)
	st.markRunning(running)
	var finished []*Job
	for id := uint64(2); id <= 6; id++ {
		j := fakeJob(st, id)
		st.markRunning(j)
		st.complete(j, &Result{Correct: true}, nil, 1)
		finished = append(finished, j)
	}

	// Cap 3 with one pinned running job: only the 2 newest finished stay.
	if _, ok := st.Get(running.ID); !ok {
		t.Fatal("running job evicted")
	}
	for _, j := range finished[:3] {
		if _, ok := st.Get(j.ID); ok {
			t.Fatalf("old finished job %d survived the cap", j.ID)
		}
	}
	for _, j := range finished[3:] {
		if _, ok := st.Get(j.ID); !ok {
			t.Fatalf("recent finished job %d evicted", j.ID)
		}
	}

	stats := st.Stats()
	if stats.Completed != 5 || stats.Submitted != 6 {
		t.Fatalf("aggregates lost by eviction: %+v", stats)
	}
	if stats.Evicted != 3 || stats.Retained != 3 {
		t.Fatalf("evicted=%d retained=%d, want 3/3", stats.Evicted, stats.Retained)
	}
	if stats.SuccessRate != 1 {
		t.Fatalf("success rate %v after eviction", stats.SuccessRate)
	}
}

// TTL eviction: finished jobs older than the TTL disappear on the next
// sweep; unfinished jobs never do.
func TestStoreTTLEviction(t *testing.T) {
	st := NewBoundedStore(StoreConfig{MaxJobs: -1, TTL: 1})
	j := fakeJob(st, 1)
	st.markRunning(j)
	st.complete(j, &Result{Correct: true}, nil, 1)
	q := fakeJob(st, 2) // still queued: immune

	// Any Finished timestamp is already older than a 1 ns TTL by the time
	// Stats sweeps.
	if stats := st.Stats(); stats.Evicted != 1 || stats.Retained != 1 {
		t.Fatalf("TTL sweep: evicted=%d retained=%d, want 1/1", stats.Evicted, stats.Retained)
	}
	if _, ok := st.Get(j.ID); ok {
		t.Fatal("expired finished job survived")
	}
	if _, ok := st.Get(q.ID); !ok {
		t.Fatal("queued job evicted by TTL")
	}
}

// Bound sanity for the scheduler-level plumbing: a scheduler configured
// with a small store keeps serving while old results age out.
func TestSchedulerBoundedStore(t *testing.T) {
	s := New(Config{Executors: 2, Store: StoreConfig{MaxJobs: 4}})
	defer s.Drain()
	var last *Job
	for i := 0; i < 8; i++ {
		j, err := s.Submit(JobSpec{Kind: KindKernelBase, Seed: uint64(20 + i%2)})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Wait(j); err != nil {
			t.Fatal(err)
		}
		last = j
	}
	st := s.Stats()
	if st.Completed != 8 {
		t.Fatalf("completed %d, want 8", st.Completed)
	}
	if st.Retained > 4 {
		t.Fatalf("retained %d jobs, cap 4", st.Retained)
	}
	if _, ok := s.Store().Snapshot(last.ID); !ok {
		t.Fatal("most recent job evicted")
	}
	if fmt.Sprint(st.Evicted) == "0" {
		t.Fatal("no evictions recorded")
	}
}

// churnMachine dirties everything a snapshot is supposed to rewind: clock,
// noise position, translation caches, counters. (Page-table mutations are
// excluded — Restore's version guard rejects those by design.)
func churnMachine(m *machine.Machine) {
	m.AdvanceCycles(1234567)
	m.ReseedNoise(0xdeadbeef)
	m.EvictTLB()
	m.EvictPTELines()
	m.KernelTouch(0xffffffff81000000)
	m.AdvanceSeconds(3.7)
}

// The session snapshot contract, per attack kind: running a job, churning
// the machine arbitrarily, and running the same job again must yield a
// bit-identical result — the pre-job Restore wipes whatever happened in
// between. Temporal kinds are checked window-by-window against an
// unchurned twin session, since their state legitimately advances per job.
func TestSnapshotMutateRestoreRerunPerKind(t *testing.T) {
	opt := core.Options{Workers: 2, Pool: core.NewScanPool()}

	stateless := []JobSpec{
		{Kind: KindKernelBase, CPU: "12400F", Seed: 61},
		{Kind: KindKernelBase, CPU: "5600X", Seed: 62}, // AMD term-level path
		{Kind: KindKPTI, CPU: "12400F", Seed: 63},
		{Kind: KindModules, CPU: "1065G7", Seed: 64},
		{Kind: KindWindows, CPU: "12400F", Seed: 65},
		{Kind: KindUserScan, CPU: "1065G7", Seed: 66, EntropyBits: 10},
	}
	for _, raw := range stateless {
		spec, err := raw.normalized()
		if err != nil {
			t.Fatal(err)
		}
		sess, err := buildSession(spec, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		first, err := execute(sess, spec, opt, nil)
		if err != nil {
			t.Fatalf("%s: %v", spec.Kind, err)
		}
		churnMachine(sess.m)
		second, err := execute(sess, spec, opt, nil)
		if err != nil {
			t.Fatalf("%s rerun: %v", spec.Kind, err)
		}
		if !reflect.DeepEqual(first, second) {
			t.Fatalf("%s: churned rerun differs\nfirst:  %+v\nsecond: %+v", spec.Kind, first, second)
		}
	}

	temporal := []JobSpec{
		{Kind: KindBehaviorSpy, Seed: 67, DurationSec: 12},
		{Kind: KindAppFingerprint, Seed: 68, App: "video-call"},
	}
	for _, raw := range temporal {
		spec, err := raw.normalized()
		if err != nil {
			t.Fatal(err)
		}
		clean, err := buildSession(spec, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		churned, err := buildSession(spec, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		for w := 0; w < 3; w++ {
			want, err := execute(clean, spec, opt, nil)
			if err != nil {
				t.Fatalf("%s window %d: %v", spec.Kind, w, err)
			}
			churnMachine(churned.m)
			got, err := execute(churned, spec, opt, nil)
			if err != nil {
				t.Fatalf("%s churned window %d: %v", spec.Kind, w, err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("%s window %d: churned session diverged\nwant: %+v\ngot:  %+v", spec.Kind, w, want, got)
			}
		}
	}
}

// A temporal session built from its victim's cache record is the session
// a cold build makes: the record holds the end of the cold build, module
// reconnaissance included, so the rebuild starts on the same clock, runs
// no sweep of its own and observes a byte-identical first window.
func TestTemporalRebuildMatchesColdBuild(t *testing.T) {
	for _, raw := range []JobSpec{
		{Kind: KindBehaviorSpy, CPU: "1065G7", DurationSec: 10},
		{Kind: KindAppFingerprint, CPU: "1065G7", App: "fps-game"},
	} {
		for seed := uint64(1); seed <= 4; seed++ {
			raw.Seed = seed
			spec, err := raw.normalized()
			if err != nil {
				t.Fatal(err)
			}
			cold, err := buildSession(spec, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			rebuilt, err := buildSession(spec, cold.record(), nil)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := rebuilt.m.RDTSC(), cold.m.RDTSC(); got != want {
				t.Errorf("%s seed=%d: rebuilt session starts at RDTSC %d, cold build at %d", spec.Kind, seed, got, want)
			}
			// The counter bank carries every probe since boot: a rebuild
			// that swept the modules again counts that sweep twice.
			if rebuilt.m.Counters != cold.m.Counters {
				t.Errorf("%s seed=%d: rebuild probed during its build\nrebuilt: %+v\ncold:    %+v",
					spec.Kind, seed, rebuilt.m.Counters, cold.m.Counters)
			}
			var windows [2][]byte
			for i, sess := range []*session{cold, rebuilt} {
				res, err := execute(sess, spec, core.Options{}, nil)
				if err != nil {
					t.Fatal(err)
				}
				if windows[i], err = json.Marshal(res); err != nil {
					t.Fatal(err)
				}
			}
			if !bytes.Equal(windows[0], windows[1]) {
				t.Errorf("%s seed=%d: rebuilt first window differs from the cold build's\ncold:    %s\nrebuilt: %s",
					spec.Kind, seed, windows[0], windows[1])
			}
		}
	}
}

// Concurrent stateful sessions must not race: several victims' spy and
// fingerprint timelines advance in parallel across executors (run under
// -race in make test-race / make ci).
func TestConcurrentTemporalSessionsRace(t *testing.T) {
	s := New(Config{Executors: 4, ScanWorkers: 2, QueueDepth: 32})
	defer s.Drain()
	var jobs []*Job
	for i := 0; i < 18; i++ {
		spec := JobSpec{Kind: KindBehaviorSpy, Seed: uint64(70 + i%3), DurationSec: 8}
		if i%2 == 1 {
			spec = JobSpec{Kind: KindAppFingerprint, Seed: uint64(70 + i%3), App: "music-player"}
		}
		j, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	for _, j := range jobs {
		if _, err := s.Wait(j); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.Failed > 0 {
		t.Fatalf("%d concurrent temporal jobs failed", st.Failed)
	}
}

// Temporal window validation: fractional-tick windows would shift the
// session timeline off-grid (window k would no longer equal window k of a
// direct run), and unbounded windows would let one job allocate an
// unbounded per-tick result — both must be rejected at submission.
func TestTemporalSpecValidation(t *testing.T) {
	bad := []JobSpec{
		{Kind: KindBehaviorSpy, DurationSec: 10.5},              // fractional ticks
		{Kind: KindBehaviorSpy, DurationSec: 20, TickSec: 0.3},  // fractional ticks
		{Kind: KindBehaviorSpy, DurationSec: 1e12},              // over the tick bound
		{Kind: KindBehaviorSpy, DurationSec: 20, TickSec: 1e-9}, // over the tick bound
		{Kind: KindBehaviorSpy, DurationSec: -5},                // negative window
		{Kind: KindAppFingerprint, App: "music-player", Ticks: MaxJobTicks + 1},
		{Kind: KindAppFingerprint, App: "not-a-profile"},
	}
	for _, spec := range bad {
		if _, err := spec.normalized(); err == nil {
			t.Errorf("spec %+v accepted", spec)
		}
	}
	good := []JobSpec{
		{Kind: KindBehaviorSpy},                               // defaults
		{Kind: KindBehaviorSpy, DurationSec: 3, TickSec: 0.5}, // 6 ticks
		{Kind: KindAppFingerprint, Ticks: MaxJobTicks},
	}
	for _, spec := range good {
		if _, err := spec.normalized(); err != nil {
			t.Errorf("spec %+v rejected: %v", spec, err)
		}
	}
}
