package service

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/obs"
)

// Submission errors.
var (
	// ErrQueueFull reports the bounded queue rejecting a job
	// (backpressure: the caller retries or sheds load).
	ErrQueueFull = errors.New("service: job queue full")
	// ErrDraining reports a scheduler that no longer accepts jobs.
	ErrDraining = errors.New("service: scheduler draining")
)

// Config tunes a Scheduler.
type Config struct {
	// Executors is the number of concurrent job executors (goroutines
	// running attacks). 0 means GOMAXPROCS.
	Executors int
	// QueueDepth bounds the submission queue. 0 means 64.
	QueueDepth int
	// ScanWorkers is the per-job scan-engine parallelism
	// (core.Options.Workers): 0 runs each job's sweeps inline on its
	// session machine; >= 1 fans sweep chunks across that many pooled
	// replicas. Results are bit-identical at every setting.
	ScanWorkers int
	// MaxIdleSessions bounds the session cache (0 means 2×Executors).
	MaxIdleSessions int
	// Store bounds the result store's retention (see StoreConfig): max
	// retained jobs and an optional finished-job TTL, so a long-lived
	// daemon's memory stays bounded while the aggregate stats keep
	// counting.
	Store StoreConfig
	// MaxAttempts caps how many times one job runs before a transient
	// failure becomes final (0 means 3; 1 disables retries). Permanent
	// failures never retry regardless.
	MaxAttempts int
	// RetryBackoff is the first retry's backoff; each further attempt
	// doubles it up to MaxRetryBackoff. 0 means 2ms. Backoffs abort
	// immediately when the scheduler drains.
	RetryBackoff time.Duration
	// JobDeadline bounds one attempt's executor wall-clock: overrunning
	// attempts are *failed* by a watchdog (ErrJobDeadline, transient), the
	// orphaned body self-terminates and its session is quarantined. 0
	// means DefaultJobDeadline; negative disables the watchdog.
	JobDeadline time.Duration
	// ShedWatermark enables admission control: submissions arriving while
	// the queue holds at least this many jobs are shed with ErrOverloaded
	// (HTTP 429 + Retry-After) before the queue is full. 0 disables
	// shedding — the queue's own capacity (ErrQueueFull) is then the only
	// backpressure.
	ShedWatermark int
	// Fault configures deterministic fault injection (zero = disabled, the
	// production state: every fault draw degenerates to a nil test).
	Fault fault.Config
	// TraceSample enables per-job lifecycle tracing: every job whose ID is
	// a multiple of TraceSample gets a span tree (1 = every job). 0
	// disables tracing — the recorder is nil and the whole instrumented
	// path degenerates to one nil test per stage, the injector idiom.
	// Sampling on the job ID keeps the traced set deterministic.
	TraceSample int
	// TraceBuffer bounds the retained-trace ring (0 = obs.DefaultTraceBuffer,
	// 256). Oldest traces are evicted first.
	TraceBuffer int
}

// DefaultJobDeadline is the per-attempt watchdog deadline when
// Config.JobDeadline is 0: generous next to the longest real job (hundreds
// of milliseconds), tight enough that a wedged executor is failed and
// recycled instead of holding its slot forever.
const DefaultJobDeadline = 2 * time.Minute

// MaxRetryBackoff caps the exponential retry backoff.
const MaxRetryBackoff = 250 * time.Millisecond

func (c Config) withDefaults() Config {
	if c.Executors <= 0 {
		c.Executors = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.ScanWorkers < 0 {
		c.ScanWorkers = runtime.NumCPU()
	}
	if c.MaxIdleSessions <= 0 {
		// Floor of 16: a session is small next to the victims it saves
		// re-booting, and load mixes cycle through a victim pool wider
		// than the executor count.
		c.MaxIdleSessions = 2 * c.Executors
		if c.MaxIdleSessions < 16 {
			c.MaxIdleSessions = 16
		}
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 2 * time.Millisecond
	}
	if c.JobDeadline == 0 {
		c.JobDeadline = DefaultJobDeadline
	}
	return c
}

// Scheduler accepts attack jobs on a bounded queue and dispatches them
// onto executor goroutines that share a session cache and one scan-engine
// worker pool. Construct with New, submit with Submit, stop with Drain.
type Scheduler struct {
	cfg   Config
	pool  *core.ScanPool
	cache *sessionCache
	store *Store
	inj   *fault.Injector
	// rec samples per-job lifecycle traces (nil when TraceSample is 0 —
	// the disabled state); met is the always-on metrics plane.
	rec *obs.Recorder
	met *metricsPlane

	queue  chan *Job
	nextID atomic.Uint64
	// drainCh is closed when Drain starts: in-flight backoffs and injected
	// stalls abandon their waits immediately, so a drain never outlasts a
	// retry schedule.
	drainCh chan struct{}

	mu       sync.Mutex
	draining bool
	wg       sync.WaitGroup
}

// New starts a scheduler with cfg.
func New(cfg Config) *Scheduler {
	cfg = cfg.withDefaults()
	s := &Scheduler{
		cfg:     cfg,
		cache:   newSessionCache(cfg.MaxIdleSessions),
		pool:    core.NewScanPool(),
		store:   NewBoundedStore(cfg.Store),
		inj:     fault.New(cfg.Fault),
		rec:     obs.NewRecorder(cfg.TraceSample, cfg.TraceBuffer),
		queue:   make(chan *Job, cfg.QueueDepth),
		drainCh: make(chan struct{}),
	}
	// The metrics plane registers scrape-time views over the subsystems
	// built above, so it must come last — and before the executors start,
	// so no job ever runs without its stage histograms.
	s.met = newMetricsPlane(s)
	for i := 0; i < cfg.Executors; i++ {
		s.wg.Add(1)
		go s.executor()
	}
	return s
}

// Store exposes the scheduler's result store (status, results, aggregate
// stats).
func (s *Scheduler) Store() *Store { return s.store }

// Config returns the scheduler's normalized configuration.
func (s *Scheduler) Config() Config { return s.cfg }

// Metrics exposes the scheduler's metric registry (the GET /metrics
// surface; also scrapeable in-process).
func (s *Scheduler) Metrics() *obs.Registry { return s.met.reg }

// Trace returns a sampled job's lifecycle trace, if the recorder still
// retains it (false when tracing is off, the job was unsampled, or the
// ring evicted it).
func (s *Scheduler) Trace(id uint64) (*obs.Trace, bool) { return s.rec.Get(id) }

// Submit validates and enqueues a job. It never blocks: a full queue
// returns ErrQueueFull, a draining scheduler ErrDraining.
func (s *Scheduler) Submit(spec JobSpec) (*Job, error) {
	norm, err := spec.normalized()
	if err != nil {
		return nil, err
	}
	j := &Job{
		ID:        s.nextID.Add(1),
		Spec:      norm,
		Status:    StatusQueued,
		Submitted: time.Now(),
		done:      make(chan struct{}),
	}
	if s.rec != nil {
		// Trace and queue span must exist before the job can reach an
		// executor (the channel send publishes them); the attrs are pure
		// functions of the spec, so sampled traces are deterministic.
		j.trace = s.rec.Start(j.ID, traceAttrs(norm)...)
		j.qspan = j.trace.Root().Child("queue")
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.store.reject()
		sealRejected(j, "draining")
		return nil, ErrDraining
	}
	if w := s.cfg.ShedWatermark; w > 0 && len(s.queue) >= w {
		// Admission control: shed before the queue is full, keeping
		// headroom so work already admitted keeps flowing while clients
		// back off (HTTP maps this to 429 + Retry-After).
		s.mu.Unlock()
		s.store.shed()
		sealRejected(j, "shed")
		return nil, ErrOverloaded
	}
	select {
	case s.queue <- j:
	default:
		s.mu.Unlock()
		s.store.reject()
		sealRejected(j, "queue-full")
		return nil, ErrQueueFull
	}
	// Registered after a successful enqueue, inside the lock so Drain
	// cannot close the queue between the reservation and the send.
	s.store.add(j)
	s.mu.Unlock()
	return j, nil
}

// Wait blocks until the job finishes and returns its result.
func (s *Scheduler) Wait(j *Job) (*Result, error) {
	<-j.Done()
	snap, _ := s.store.Snapshot(j.ID)
	if snap.Status == StatusFailed {
		return nil, fmt.Errorf("service: job %d: %s", j.ID, snap.Err)
	}
	return snap.Result, nil
}

// WaitCtx is Wait bounded by a context: it returns the job's result when
// the job finishes first, or the context's error when the deadline or
// cancellation wins — so a client can never hang forever on a job whose
// executor died. The job itself keeps running either way.
func (s *Scheduler) WaitCtx(ctx context.Context, j *Job) (*Result, error) {
	select {
	case <-j.Done():
		return s.Wait(j)
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Drain stops accepting new jobs, runs the queue dry and waits for every
// executor to finish — the daemon's graceful-shutdown path. In-flight
// retry backoffs and injected stalls are aborted immediately (their jobs
// fail with their last classified error), so Drain terminates even
// mid-fault-storm. Safe to call more than once.
func (s *Scheduler) Drain() {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	if !already {
		close(s.queue)
		close(s.drainCh)
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// Stats returns the aggregate service metrics.
func (s *Scheduler) Stats() Stats {
	st := s.store.Stats()
	cs := s.cache.snapshot()
	st.Sessions = cs.SessionMisses
	st.SessionHits = cs.SessionHits
	st.CalibrationsReused = cs.CalibrationHits
	st.Quarantined = cs.Quarantined
	st.SessionsEvicted = cs.Evicted
	st.PoolReplicas = s.pool.Replicas()
	st.FaultsInjected = s.inj.TotalFired()
	return st
}

// JobSnapshot returns a consistent copy of a retained job's public state.
func (s *Scheduler) JobSnapshot(id uint64) (Job, bool) { return s.store.Snapshot(id) }

// executor is one job-running goroutine: it pulls jobs off the queue and
// runs each through the retry loop. The attempt bodies carry their own
// panic isolation, so an executor survives anything a job throws.
func (s *Scheduler) executor() {
	defer s.wg.Done()
	for j := range s.queue {
		s.runJob(j)
	}
}

// runJob drives one job to a terminal state: attempts run under the
// watchdog, transient failures retry with capped exponential backoff up to
// Config.MaxAttempts, permanent failures (and drains) are final on sight.
// Every path ends in exactly one store completion — a job never leaks in
// StatusRunning. The trace (when sampled) is sealed *before* the store
// completion closes the job's done channel, so a reader woken by Done or
// the HTTP long-poll never sees a half-built span tree.
func (s *Scheduler) runJob(j *Job) {
	s.store.markRunning(j)
	j.qspan.End()
	if wait := j.Started.Sub(j.Submitted); wait > 0 {
		s.met.observe(stageQueue, wait)
	}
	root := j.trace.Root()
	key := j.Spec.faultKey()
	opt := core.Options{Workers: s.cfg.ScanWorkers, Pool: s.pool}
	var res *Result
	var err error
	attempt := 0
	for {
		attempt++
		asp := root.Child("attempt")
		asp.Annotate("attempt", strconv.Itoa(attempt))
		res, err = s.attempt(j, key, attempt, opt, asp)
		if err != nil {
			annotateFailure(asp, err)
		}
		asp.End()
		if err == nil || Classify(err) == ClassPermanent || attempt >= s.cfg.MaxAttempts {
			break
		}
		s.store.retry()
		bsp := root.Child("backoff")
		if !s.backoff(attempt) {
			// Draining: abandon the retry schedule; the job fails with its
			// last classified error rather than outliving the drain.
			bsp.Annotate("aborted", "drain")
			bsp.End()
			err = fmt.Errorf("service: retries abandoned by drain: %w", err)
			break
		}
		bsp.End()
	}
	if res != nil && attempt > 1 {
		res.Retries = attempt - 1
	}
	if root != nil {
		if err != nil {
			root.Annotate("status", string(StatusFailed))
			root.Annotate("class", string(Classify(err)))
		} else {
			root.Annotate("status", string(StatusDone))
			root.SetSim(res.TotalSimSec)
		}
		root.Annotate("attempts", strconv.Itoa(attempt))
		root.End()
	}
	s.store.complete(j, res, err, attempt)
}

// traceAttrs builds the root span's annotations from the normalized spec:
// only spec-derived (deterministic) values, never host state.
func traceAttrs(spec JobSpec) []obs.Attr {
	attrs := []obs.Attr{
		obs.A("kind", string(spec.Kind)),
		obs.A("seed", strconv.FormatUint(spec.Seed, 10)),
	}
	if spec.CPU != "" {
		attrs = append(attrs, obs.A("cpu", spec.CPU))
	}
	if spec.Defense != "" {
		attrs = append(attrs, obs.A("defense", spec.Defense))
	}
	if spec.Provider != "" {
		attrs = append(attrs, obs.A("provider", spec.Provider))
	}
	return attrs
}

// sealRejected closes a rejected submission's trace so the ring never
// retains an eternally open span tree. Nil-safe (no-op when unsampled).
func sealRejected(j *Job, reason string) {
	j.qspan.End()
	root := j.trace.Root()
	root.Annotate("status", "rejected")
	root.Annotate("reason", reason)
	root.End()
}

// annotateFailure records a failed attempt's deterministic failure facts:
// the error string (injected faults stringify as pure functions of their
// site/key/attempt), the retry class, and the fault site when the chain
// carries an injected fault.
func annotateFailure(sp *obs.Span, err error) {
	if sp == nil {
		return
	}
	sp.Annotate("error", err.Error())
	sp.Annotate("class", string(Classify(err)))
	var f *fault.Fault
	if errors.As(err, &f) {
		sp.Annotate("fault", f.Site.String())
	}
}

// backoff sleeps the capped exponential backoff before retry `attempt+1`,
// returning false when the drain signal aborted the wait.
func (s *Scheduler) backoff(attempt int) bool {
	d := s.cfg.RetryBackoff << (attempt - 1)
	if d > MaxRetryBackoff || d <= 0 {
		d = MaxRetryBackoff
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-s.drainCh:
		return false
	}
}

// attempt runs one attempt of a job under the deadline watchdog. The body
// runs in its own goroutine; if it overruns the deadline the watchdog
// *fails* the attempt (ErrJobDeadline) and closes the attempt's stop
// channel — injected stalls block on exactly that signal, so the orphaned
// body self-terminates, quarantines its session and exits instead of
// leaking. The done channel is buffered so a late body never blocks on a
// watchdog that already returned.
func (s *Scheduler) attempt(j *Job, key uint64, attempt int, opt core.Options, sp *obs.Span) (*Result, error) {
	env := &attemptEnv{
		plan:     s.inj.Plan(key, attempt),
		stop:     make(chan struct{}),
		drain:    s.drainCh,
		watchdog: s.cfg.JobDeadline > 0,
		span:     sp,
		met:      s.met,
	}
	type outcome struct {
		res *Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		defer func() {
			// Backstop isolation: attemptBody recovers panics itself (it
			// owns the session cleanup), so anything arriving here escaped
			// outside a body — still convert it into a failed attempt
			// rather than a dead executor.
			if r := recover(); r != nil {
				done <- outcome{nil, fmt.Errorf("%w: %v", ErrPanicked, r)}
			}
		}()
		res, err := s.attemptBody(j, opt, env)
		done <- outcome{res, err}
	}()
	if !env.watchdog {
		out := <-done
		return out.res, out.err
	}
	watchdog := time.NewTimer(s.cfg.JobDeadline)
	defer watchdog.Stop()
	select {
	case out := <-done:
		return out.res, out.err
	case <-watchdog.C:
		close(env.stop)
		sp.Annotate("watchdog", "fired")
		return nil, fmt.Errorf("%w (after %v, attempt %d)", ErrJobDeadline, s.cfg.JobDeadline, attempt)
	}
}

// attemptBody is the guarded body of one attempt: session binding, fault
// sites, the attack itself, and — in one deferred path — panic recovery,
// quarantine and session release. The deferred cleanup is what makes the
// guarantees compose: a panic or a corrupt session quarantines (the
// session is dropped at release, never re-adopted; the next attempt's
// fresh boot rebuilds it bit-identically from the build record), and a
// body orphaned by the watchdog detects the closed stop channel and
// quarantines too, since whatever state it reached belongs to an attempt
// that already failed.
func (s *Scheduler) attemptBody(j *Job, opt core.Options, env *attemptEnv) (res *Result, err error) {
	var sess *session
	if kindOf(j.Spec.Kind).boot != nil {
		acq := env.span.Child("acquire")
		t0 := time.Now()
		var reused bool
		sess, reused, err = s.cache.acquire(j.Spec, env.plan)
		s.met.observe(stageAcquire, time.Since(t0))
		if err != nil {
			annotateFailure(acq, err)
			acq.End()
			return nil, err
		}
		if reused {
			acq.Annotate("session", "reused")
		} else {
			acq.Annotate("session", "built")
			if sess.cachedCal {
				acq.Annotate("calibration", "replayed")
			} else {
				acq.Annotate("calibration", "calibrated")
			}
		}
		acq.End()
		s.store.setProvenance(j, reused, sess.cachedCal)
	}
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("%w: %v", ErrPanicked, r)
			if sess != nil {
				env.span.Annotate("quarantine", "panic")
			}
			s.cache.quarantine(sess)
		} else if err != nil && errors.Is(err, ErrSessionCorrupt) {
			env.span.Annotate("quarantine", "corrupt")
			s.cache.quarantine(sess)
		} else {
			select {
			case <-env.stop:
				// The watchdog already failed this attempt: the session's
				// state is that of an abandoned job, not a finished one.
				if sess != nil {
					env.span.Annotate("quarantine", "abandoned")
				}
				s.cache.quarantine(sess)
			default:
			}
		}
		s.cache.release(sess)
	}()
	if f := env.plan.Fire(fault.Panic); f != nil {
		panic(f)
	}
	if f := env.plan.Fire(fault.Stall); f != nil {
		if env.watchdog {
			// Wedge until the watchdog deadline fails the attempt (or the
			// drain lets everything go): this is the "fails, not leaks"
			// contract under test — the body terminates either way.
			select {
			case <-env.stop:
			case <-env.drain:
			}
		}
		return nil, f
	}
	return execute(sess, j.Spec, opt, env)
}
