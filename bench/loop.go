package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/service"
)

// programConfig is the scheduler configuration every workload runs with:
// two executors and two scan workers on the 2-CPU reference host, every
// other field at its default.
func programConfig(traced bool) service.Config {
	cfg := service.Config{Executors: 2, ScanWorkers: 2}
	if traced {
		cfg.TraceSample = 1
	}
	return cfg
}

// phase is the outcome of one measured phase.
type phase struct {
	// attempted counts submitted jobs; failed those that returned an error
	// or broke the determinism contract (see oracle); correct those whose
	// result recovered the victim's ground truth (see verified).
	attempted, failed, correct int
	// simSec is the jobs' simulated attacker time, summed in job-list
	// order. (Stats sums it in completion order, so its last bits change
	// with the clients' interleaving.)
	simSec float64
	// latMs holds every job's client-side latency, Submit to Wait, in ms.
	latMs []float64
	wall  time.Duration
	// setup holds the duration of each set-up: service.New through the
	// end of the warm-up.
	setup []time.Duration
	// counters are the scheduler's counters over the measured jobs only.
	counters counters
	heapLive uint64
	// allocBytes and gcCycles are runtime.MemStats deltas over the
	// measured jobs.
	allocBytes uint64
	gcCycles   uint32
	// Traced phases only: one bench.job span tree per job, with the
	// scheduler's span tree under it, and the per-job self time of each
	// stage.
	spans []*obs.Span
	stage []map[string]int64
	// errs holds the first few failures, for the log.
	errs []string
}

// counters are the scheduler counters the benchmark reports.
type counters struct {
	built, hits, calReused, retries int
}

// add adds the counts accumulated between two Stats reads.
func (c *counters) add(after, before service.Stats) {
	c.built += after.Sessions - before.Sessions
	c.hits += after.SessionHits - before.SessionHits
	c.calReused += after.CalibrationsReused - before.CalibrationsReused
	c.retries += after.Retries - before.Retries
}

// runPhase sets the scheduler up `setups` times (New plus the warm-up;
// all but the last are drained again), then runs the plan's measured jobs
// in a closed loop on the last one: each client submits its next job only
// after Wait returned the previous one.
//
// A workload with a segment size runs its measured jobs in segments of
// that many, each on a scheduler of its own, set up between segments with
// the clock stopped (see workload.segment).
func runPhase(w *workload, p plan, traced bool, setups int) (*phase, error) {
	ph := &phase{}
	or := newOracle()
	var s *service.Scheduler
	defer func() {
		if s != nil {
			s.Drain()
		}
	}()
	setUp := func() (time.Duration, error) {
		if s != nil {
			s.Drain()
		}
		runtime.GC()
		or.newScheduler()
		t0 := time.Now()
		s = service.New(programConfig(traced))
		for _, jb := range p.warmup {
			if err := runJob(s, w, jb, or); err != nil {
				return 0, fmt.Errorf("warm-up: %w", err)
			}
		}
		return time.Since(t0), nil
	}
	for k := 0; k < setups; k++ {
		d, err := setUp()
		if err != nil {
			return nil, err
		}
		ph.setup = append(ph.setup, d)
	}

	segs := p.segments(w.segment)
	start := time.Now()
	for i, seg := range segs {
		if i > 0 {
			if _, err := setUp(); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		st0 := s.Stats()
		t0 := time.Now()
		outs := make([]*phase, len(seg))
		var wg sync.WaitGroup
		for c, list := range seg {
			outs[c] = &phase{}
			wg.Add(1)
			go func(out *phase, list []job) {
				defer wg.Done()
				runClient(s, w, list, traced, start, or, out)
			}(outs[c], list)
		}
		wg.Wait()
		ph.wall += time.Since(t0)
		ph.counters.add(s.Stats(), st0)
		runtime.ReadMemStats(&m1)
		ph.allocBytes += m1.TotalAlloc - m0.TotalAlloc
		ph.gcCycles += m1.NumGC - m0.NumGC
		for _, o := range outs {
			ph.attempted += o.attempted
			ph.failed += o.failed
			ph.correct += o.correct
			ph.simSec += o.simSec
			ph.latMs = append(ph.latMs, o.latMs...)
			ph.spans = append(ph.spans, o.spans...)
			ph.stage = append(ph.stage, o.stage...)
			ph.errs = append(ph.errs, o.errs...)
		}
	}
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	ph.heapLive = m.HeapAlloc
	return ph, nil
}

// runClient runs one client's job list in order and records each job.
func runClient(s *service.Scheduler, w *workload, list []job, traced bool, start time.Time, or *oracle, out *phase) {
	ns := func(t time.Time) int64 { return int64(t.Sub(start)) }
	for _, jb := range list {
		spec := w.specs[jb.spec]
		spec.Seed = jb.victim
		t0 := time.Now()
		j, err := s.Submit(spec)
		t1 := time.Now()
		var res *service.Result
		if err == nil {
			res, err = s.Wait(j)
		}
		t2 := time.Now()
		out.attempted++
		out.latMs = append(out.latMs, float64(t2.Sub(t0))/1e6)
		ok, err := or.judge(s, j, jb, res, err)
		if err != nil {
			out.failed++
			if len(out.errs) < 3 {
				out.errs = append(out.errs, err.Error())
			}
			continue
		}
		if ok {
			out.correct++
		}
		if res != nil {
			out.simSec += res.TotalSimSec
		}
		if !traced {
			continue
		}
		tr, ok := s.Trace(j.ID)
		if !ok {
			out.failed++
			out.errs = append(out.errs, fmt.Sprintf("job %d: trace evicted before it was read", j.ID))
			continue
		}
		server := tr.Snapshot()
		stages := map[string]int64{}
		stageSelfNs(server, stages)
		out.stage = append(out.stage, stages)
		// The scheduler's spans count from its trace start, which Submit
		// takes together with Job.Submitted; move them onto the bench's
		// timeline.
		shiftSpans(server, ns(j.Submitted))
		out.spans = append(out.spans, &obs.Span{
			Name:    "bench.job",
			Attrs:   []obs.Attr{obs.A("job", strconv.FormatUint(j.ID, 10))},
			StartNs: ns(t0),
			EndNs:   ns(t2),
			Children: []*obs.Span{
				{Name: "bench.submit", StartNs: ns(t0), EndNs: ns(t1)},
				server,
				{Name: "bench.wait", StartNs: ns(t1), EndNs: ns(t2)},
			},
		})
	}
}

// runJob submits one job and waits for it, checking the outcome.
func runJob(s *service.Scheduler, w *workload, jb job, or *oracle) error {
	spec := w.specs[jb.spec]
	spec.Seed = jb.victim
	j, err := s.Submit(spec)
	var res *service.Result
	if err == nil {
		res, err = s.Wait(j)
	}
	_, err = or.judge(s, j, jb, res, err)
	return err
}

func shiftSpans(s *obs.Span, by int64) {
	s.StartNs += by
	s.EndNs += by
	for _, c := range s.Children {
		shiftSpans(c, by)
	}
}

// oracle checks that every job's outcome agrees with every other outcome
// for the same (spec, victim): stateless kinds must return bit-identical
// results (or the same attack error) each time, and a temporal job's
// window must start where the previous window on that victim ended if the
// job reused the victim's session, or at 0 if it built a new one (a
// temporal session dropped at the idle cap loses its timeline position).
// That is the scheduler's determinism contract, so a change that breaks
// session reuse fails the benchmark instead of speeding it up.
type oracle struct {
	mu        sync.Mutex
	digest    map[job]uint64
	windowEnd map[job]float64
}

func newOracle() *oracle {
	return &oracle{digest: map[job]uint64{}}
}

// newScheduler forgets the temporal windows: a new scheduler starts every
// victim's timeline at 0.
func (o *oracle) newScheduler() {
	o.mu.Lock()
	o.windowEnd = map[job]float64{}
	o.mu.Unlock()
}

// judge checks the outcome of job j (nil if Submit refused it), which ran
// jb on s and returned res or err. It reports whether the job recovered
// its victim's ground truth, or returns an error if the job failed: it
// was refused, failed for a scheduler reason (a transient-class failure:
// panic, deadline, corrupt session), or broke the determinism contract. A
// permanent-class failure is the attack's own deterministic outcome on
// that victim, such as a KPTI scan that finds no trampoline; it counts
// against correct_ratio, not as a failure.
func (o *oracle) judge(s *service.Scheduler, j *service.Job, jb job, res *service.Result, err error) (bool, error) {
	if j == nil {
		return false, err
	}
	spec := j.Spec
	if err != nil {
		snap, _ := s.JobSnapshot(j.ID)
		if snap.ErrClass != service.ClassPermanent {
			return false, err
		}
		return false, o.same(jb, spec, []byte("error: "+snap.Err))
	}
	if spec.Kind == service.KindBehaviorSpy || spec.Kind == service.KindAppFingerprint {
		snap, _ := s.JobSnapshot(j.ID)
		o.mu.Lock()
		defer o.mu.Unlock()
		want := 0.0
		if snap.ReusedSession {
			want = o.windowEnd[jb]
		}
		if res.WindowStartSec != want {
			return false, fmt.Errorf("%s seed %d: window starts at %gs, want %gs (reused session: %v)",
				describe(spec), spec.Seed, res.WindowStartSec, want, snap.ReusedSession)
		}
		o.windowEnd[jb] = res.WindowEndSec
		return verified(spec, res), nil
	}
	buf, err := json.Marshal(res)
	if err != nil {
		return false, err
	}
	return verified(spec, res), o.same(jb, spec, buf)
}

// same checks that outcome is the one the first run of jb produced.
func (o *oracle) same(jb job, spec service.JobSpec, outcome []byte) error {
	h := fnv.New64a()
	h.Write(outcome)
	d := h.Sum64()
	o.mu.Lock()
	defer o.mu.Unlock()
	if first, ok := o.digest[jb]; ok && first != d {
		return fmt.Errorf("%s seed %d: outcome differs from the first run on this victim", describe(spec), spec.Seed)
	}
	o.digest[jb] = d
	return nil
}

// verified reports whether a result recovered its victim's ground truth.
// Result.Correct says so for every kind but one: a defenseeval/fgkaslr
// result is Correct only if FGKASLR also moved the target function out of
// its 2 MiB page, which on about one victim in seven it does not. That is
// a property of the victim, not a wrong answer, so for fgkaslr the check
// is that the template attack found the function.
func verified(spec service.JobSpec, res *service.Result) bool {
	if spec.Kind == service.KindDefenseEval && spec.Defense == service.DefenseFGKASLR {
		return res.Bypassed
	}
	return res.Correct
}

func describe(spec service.JobSpec) string {
	s := string(spec.Kind)
	if spec.CPU != "" {
		s += "/" + spec.CPU
	}
	if spec.Defense != "" {
		s += "/" + spec.Defense
	}
	if spec.Provider != "" {
		s += "/" + spec.Provider
	}
	if spec.SGX {
		s += "/sgx"
	}
	return s
}
