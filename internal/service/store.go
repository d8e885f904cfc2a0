package service

import (
	"sync"
	"time"

	"repro/internal/obs"
)

// DefaultStoreMaxJobs is the default retention bound: a long-lived scand
// keeps at most this many finished jobs queryable (aggregate stats are
// unaffected by eviction; they live in counters, not in the job map).
const DefaultStoreMaxJobs = 16384

// StoreConfig bounds the result store's retention.
type StoreConfig struct {
	// MaxJobs caps how many jobs the store retains. 0 means
	// DefaultStoreMaxJobs; negative means unbounded (the pre-eviction
	// behaviour, for tests and short-lived runs). Only *finished* jobs are
	// ever evicted — queued and running jobs are pinned, so a drain always
	// has every in-flight job to finish — and eviction is oldest-finished
	// first.
	MaxJobs int
	// TTL, when positive, additionally evicts finished jobs whose
	// completion is older than TTL (checked on every completion and on
	// Stats polls).
	TTL time.Duration
}

func (c StoreConfig) withDefaults() StoreConfig {
	if c.MaxJobs == 0 {
		c.MaxJobs = DefaultStoreMaxJobs
	}
	return c
}

// Store is the streaming result store: it owns every job the scheduler has
// accepted (up to the configured retention bound), streams completions to
// subscribers, and aggregates the service-level metrics.
type Store struct {
	mu   sync.Mutex
	cfg  StoreConfig
	jobs map[uint64]*Job
	// finished queues finished job IDs in completion order — the eviction
	// order. Queued/running jobs are never in it and never evicted.
	finished  []uint64
	evicted   int
	submitted int
	// lat and kindLat accumulate end-to-end host latencies (submit →
	// finish) in fixed-bucket histograms: observation is one atomic add
	// under the lock already held, quantiles are O(buckets) regardless of
	// job count, and — unlike the job map — they are never evicted, so the
	// quantiles cover the store's whole lifetime. kindLat is pre-populated
	// for every kind at construction, so the complete path never allocates
	// a map entry.
	lat     *obs.Histogram
	kindLat map[Kind]*obs.Histogram
	// kindDone / defenseDone count finished jobs per kind and completed
	// defense evaluations per defense — the label dimensions /metrics
	// exports.
	kindDone    map[Kind]uint64
	defenseDone map[string]uint64
	firstSub    time.Time
	lastDone    time.Time
	completed   int
	failed      int
	correct     int
	rejected    int
	retries     int
	shedded     int
	simSec      float64
	subs        map[int]chan *Job
	nextSub     int
	dropped     int
}

// NewStore creates an empty store with the default retention bound.
func NewStore() *Store { return NewBoundedStore(StoreConfig{}) }

// NewBoundedStore creates an empty store with explicit retention bounds.
func NewBoundedStore(cfg StoreConfig) *Store {
	st := &Store{
		cfg:         cfg.withDefaults(),
		jobs:        make(map[uint64]*Job),
		subs:        make(map[int]chan *Job),
		lat:         &obs.Histogram{},
		kindLat:     make(map[Kind]*obs.Histogram, len(Kinds())),
		kindDone:    make(map[Kind]uint64, len(Kinds())),
		defenseDone: make(map[string]uint64, len(Defenses())),
	}
	for _, k := range Kinds() {
		st.kindLat[k] = &obs.Histogram{}
	}
	return st
}

// add registers a freshly submitted job.
func (st *Store) add(j *Job) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.jobs[j.ID] = j
	st.submitted++
	if st.firstSub.IsZero() || j.Submitted.Before(st.firstSub) {
		st.firstSub = j.Submitted
	}
}

// evictLocked applies the retention policy (call with st.mu held): drop
// the oldest finished jobs over the MaxJobs cap, then any finished job
// older than the TTL. In-flight jobs are never touched, and the aggregate
// counters survive eviction untouched.
func (st *Store) evictLocked(now time.Time) {
	drop := func() {
		id := st.finished[0]
		st.finished = st.finished[1:]
		delete(st.jobs, id)
		st.evicted++
	}
	if st.cfg.MaxJobs > 0 {
		for len(st.finished) > 0 && len(st.jobs) > st.cfg.MaxJobs {
			drop()
		}
	}
	if st.cfg.TTL > 0 {
		cutoff := now.Add(-st.cfg.TTL)
		for len(st.finished) > 0 {
			j := st.jobs[st.finished[0]]
			if j == nil || j.Finished.After(cutoff) {
				break
			}
			drop()
		}
	}
}

// reject counts a submission turned away (queue full / draining).
func (st *Store) reject() {
	st.mu.Lock()
	st.rejected++
	st.mu.Unlock()
}

// shed counts a submission dropped by admission control (it also counts as
// rejected — shedding is a rejection with an earlier trigger).
func (st *Store) shed() {
	st.mu.Lock()
	st.rejected++
	st.shedded++
	st.mu.Unlock()
}

// retry counts one transient-failure retry the scheduler scheduled.
func (st *Store) retry() {
	st.mu.Lock()
	st.retries++
	st.mu.Unlock()
}

// markRunning transitions a job to running.
func (st *Store) markRunning(j *Job) {
	st.mu.Lock()
	j.Status = StatusRunning
	j.Started = time.Now()
	st.mu.Unlock()
}

// setProvenance records what the session cache contributed, under the
// store lock so concurrent Snapshot calls never race the executor.
func (st *Store) setProvenance(j *Job, reusedSession, reusedCalibration bool) {
	st.mu.Lock()
	j.ReusedSession = reusedSession
	j.ReusedCalibration = reusedCalibration
	st.mu.Unlock()
}

// complete finishes a job (result or error) after the given number of
// attempts, updates the aggregates and streams the job to subscribers.
// Retried jobs record their attempt count and failed jobs their error
// class. Single-attempt successes record neither, keeping the zero-fault
// job JSON (and the parity suites' DeepEqual references) bit-identical to
// the pre-fault-injection service.
func (st *Store) complete(j *Job, res *Result, err error, attempts int) {
	st.mu.Lock()
	j.Finished = time.Now()
	if attempts > 1 {
		j.Attempts = attempts
	}
	if err != nil {
		j.Status = StatusFailed
		j.Err = err.Error()
		j.ErrClass = Classify(err)
		st.failed++
	} else {
		j.Status = StatusDone
		j.Result = res
		st.completed++
		if res.Correct {
			st.correct++
		}
		st.simSec += res.TotalSimSec
	}
	if lat := j.Finished.Sub(j.Submitted); lat > 0 {
		st.lat.Observe(uint64(lat))
		if h := st.kindLat[j.Spec.Kind]; h != nil {
			h.Observe(uint64(lat))
		}
	}
	st.kindDone[j.Spec.Kind]++
	if j.Spec.Kind == KindDefenseEval && err == nil {
		st.defenseDone[j.Spec.Defense]++
	}
	if j.Finished.After(st.lastDone) {
		st.lastDone = j.Finished
	}
	st.finished = append(st.finished, j.ID)
	st.evictLocked(j.Finished)
	for _, ch := range st.subs {
		select {
		case ch <- j:
		default:
			st.dropped++ // a slow subscriber never stalls the executors
		}
	}
	st.mu.Unlock()
	close(j.done)
}

// Get returns a job by ID.
func (st *Store) Get(id uint64) (*Job, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	j, ok := st.jobs[id]
	return j, ok
}

// Snapshot returns a copy of a job's current public state, safe to
// marshal while executors keep running.
func (st *Store) Snapshot(id uint64) (Job, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	j, ok := st.jobs[id]
	if !ok {
		return Job{}, false
	}
	return *j, true
}

// Subscribe registers a completion stream with the given buffer.
// Completions arriving while the buffer is full are dropped for that
// subscriber (counted in Stats.StreamDropped). cancel unregisters.
func (st *Store) Subscribe(buf int) (stream <-chan *Job, cancel func()) {
	if buf <= 0 {
		buf = 16
	}
	ch := make(chan *Job, buf)
	st.mu.Lock()
	id := st.nextSub
	st.nextSub++
	st.subs[id] = ch
	st.mu.Unlock()
	return ch, func() {
		st.mu.Lock()
		delete(st.subs, id)
		st.mu.Unlock()
	}
}

// Stats is the aggregate service view.
type Stats struct {
	Submitted int `json:"submitted"`
	Completed int `json:"completed"`
	Failed    int `json:"failed"`
	Rejected  int `json:"rejected"`
	// SuccessRate is correct/completed.
	SuccessRate float64 `json:"success_rate"`
	// JobsPerSec is finished jobs over the first-submit → last-finish wall
	// span.
	JobsPerSec float64 `json:"jobs_per_sec"`
	// P50Ms / P99Ms are end-to-end (queue + run) host latency quantiles.
	P50Ms float64 `json:"p50_ms"`
	P99Ms float64 `json:"p99_ms"`
	// SimAttackerSec totals the jobs' simulated attacker time: the cost the
	// victims' hardware paid, as opposed to the host wall-clock the service
	// paid.
	SimAttackerSec float64 `json:"sim_attacker_sec"`
	// Sessions / CalibrationsReused / PoolReplicas report reuse (filled by
	// the scheduler).
	Sessions           int `json:"sessions"`
	CalibrationsReused int `json:"calibrations_reused"`
	PoolReplicas       int `json:"pool_replicas"`
	StreamDropped      int `json:"stream_dropped,omitempty"`
	// Evicted counts finished jobs dropped by the retention policy; their
	// contribution to the aggregates above is retained.
	Evicted int `json:"evicted,omitempty"`
	// Retained is the number of jobs currently queryable.
	Retained int `json:"retained"`
	// Self-healing counters (omitted while zero, so a fault-free daemon's
	// stats are unchanged): Retries counts transient-failure re-attempts,
	// Shed counts submissions dropped by admission control (also included
	// in Rejected), Quarantined counts sessions condemned and dropped, and
	// FaultsInjected totals the injector's fired faults (0 without -fault-rate).
	Retries        int    `json:"retries,omitempty"`
	Shed           int    `json:"shed,omitempty"`
	Quarantined    int    `json:"quarantined,omitempty"`
	FaultsInjected uint64 `json:"faults_injected,omitempty"`
	// Cache-effectiveness counters (omitted while zero, keeping zero-state
	// JSON identical to the pre-counter service): SessionHits counts jobs
	// served from a parked session — Sessions above counts the misses
	// (builds) and CalibrationsReused the builds that skipped Calibrate —
	// and SessionsEvicted counts healthy sessions dropped at the idle cap.
	SessionHits     int `json:"session_hits,omitempty"`
	SessionsEvicted int `json:"sessions_evicted,omitempty"`
}

// CacheHitRate is the combined session+calibration hit rate over all
// session acquisitions: the fraction of jobs that avoided a full
// boot-and-calibrate (reused a session, or booted against a cached
// calibration).
func (s Stats) CacheHitRate() float64 {
	total := s.SessionHits + s.Sessions
	if total == 0 {
		return 0
	}
	return float64(s.SessionHits+s.CalibrationsReused) / float64(total)
}

// Stats computes the current aggregates. The latency quantiles come from
// the store's fixed-bucket histogram — an O(buckets) walk over atomic
// counters, outside the lock, independent of how many jobs ever finished
// and unaffected by finished-job eviction — so stats polling never stalls
// the executors' complete path. Quantiles are bucketed: the reported value
// is the upper bound of the bucket holding the rank (≤ ~12.5% above the
// exact order statistic).
func (st *Store) Stats() Stats {
	st.mu.Lock()
	st.evictLocked(time.Now())
	s := Stats{
		Submitted:      st.submitted,
		Completed:      st.completed,
		Failed:         st.failed,
		Rejected:       st.rejected,
		Retries:        st.retries,
		Shed:           st.shedded,
		SimAttackerSec: st.simSec,
		StreamDropped:  st.dropped,
		Evicted:        st.evicted,
		Retained:       len(st.jobs),
	}
	if st.completed > 0 {
		s.SuccessRate = float64(st.correct) / float64(st.completed)
	}
	finished := st.completed + st.failed
	if finished > 0 && st.lastDone.After(st.firstSub) {
		s.JobsPerSec = float64(finished) / st.lastDone.Sub(st.firstSub).Seconds()
	}
	st.mu.Unlock()

	s.P50Ms = float64(st.lat.Quantile(0.50)) / 1e6
	s.P99Ms = float64(st.lat.Quantile(0.99)) / 1e6
	return s
}

// KindLatency is one kind's end-to-end latency summary.
type KindLatency struct {
	Jobs  uint64  `json:"jobs"`
	P50Ms float64 `json:"p50_ms"`
	P99Ms float64 `json:"p99_ms"`
}

// KindLatencies returns the per-kind latency breakdown for every kind that
// finished at least one job (the `scand -load` report's per-kind rows).
func (st *Store) KindLatencies() map[Kind]KindLatency {
	out := make(map[Kind]KindLatency)
	for k, h := range st.kindLat {
		if n := h.Count(); n > 0 {
			out[k] = KindLatency{
				Jobs:  n,
				P50Ms: float64(h.Quantile(0.50)) / 1e6,
				P99Ms: float64(h.Quantile(0.99)) / 1e6,
			}
		}
	}
	return out
}

// kindLatencyHistogram exposes one kind's latency histogram (nil-free:
// every kind is pre-populated at construction).
func (st *Store) kindLatencyHistogram(k Kind) *obs.Histogram { return st.kindLat[k] }

// kindFinished returns how many jobs of kind k reached a terminal state.
func (st *Store) kindFinished(k Kind) uint64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.kindDone[k]
}

// defenseCompleted returns how many defense evaluations of d completed.
func (st *Store) defenseCompleted(d string) uint64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.defenseDone[d]
}

// counterView adapts one store counter into a scrape-time metrics view.
func (st *Store) counterView(read func(*Store) int) func() float64 {
	return func() float64 {
		st.mu.Lock()
		defer st.mu.Unlock()
		return float64(read(st))
	}
}
