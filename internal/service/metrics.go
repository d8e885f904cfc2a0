package service

import (
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
)

// stage indexes a job's timed lifecycle stages (stageNames).
type stage int

const (
	stageQueue stage = iota
	stageAcquire
	stageRestore
	stageExecute
)

var stageNames = [...]string{"queue", "acquire", "restore", "execute"}

// metricsPlane wires the scheduler's subsystems into one obs.Registry —
// the GET /metrics surface. Two kinds of series live here:
//
//   - Views (CounterFunc/GaugeFunc) read existing state at scrape time:
//     the store's aggregates, the session cache's reuse counters, the
//     fault injector's per-site fired counts, the queue depth. No double
//     bookkeeping — the executors' hot path is untouched by their
//     existence.
//
//   - Stage histograms (queue wait, session acquire, restore, execute) and
//     the store's end-to-end latency histograms are recorded inline: one
//     atomic add per observation, no allocation, cheap enough to leave on
//     under full load.
type metricsPlane struct {
	reg *obs.Registry
	// stages holds the per-stage host-latency histograms (ns samples).
	stages [len(stageNames)]*obs.Histogram
}

// observe records one stage sample. Nil-safe: attempts run without a
// metrics plane record nothing.
func (m *metricsPlane) observe(st stage, d time.Duration) {
	if m != nil {
		m.stages[st].Observe(uint64(d))
	}
}

// newMetricsPlane builds the registry over a fully constructed scheduler
// (store, cache, injector, queue and recorder all exist).
func newMetricsPlane(s *Scheduler) *metricsPlane {
	r := obs.NewRegistry()
	m := &metricsPlane{reg: r}

	st := s.store
	r.CounterFunc("scand_jobs_submitted_total", "Jobs accepted onto the queue.",
		st.counterView(func(st *Store) int { return st.submitted }))
	r.CounterFunc("scand_jobs_completed_total", "Jobs finished successfully.",
		st.counterView(func(st *Store) int { return st.completed }))
	r.CounterFunc("scand_jobs_failed_total", "Jobs finished in failure.",
		st.counterView(func(st *Store) int { return st.failed }))
	r.CounterFunc("scand_jobs_rejected_total", "Submissions rejected (queue full, shed, draining).",
		st.counterView(func(st *Store) int { return st.rejected }))
	r.CounterFunc("scand_jobs_shed_total", "Submissions shed by admission control.",
		st.counterView(func(st *Store) int { return st.shedded }))
	r.CounterFunc("scand_job_retries_total", "Transient-failure retries scheduled.",
		st.counterView(func(st *Store) int { return st.retries }))
	r.CounterFunc("scand_jobs_evicted_total", "Finished jobs dropped by the retention policy.",
		st.counterView(func(st *Store) int { return st.evicted }))
	r.GaugeFunc("scand_jobs_retained", "Jobs currently queryable in the store.",
		st.counterView(func(st *Store) int { return len(st.jobs) }))
	r.GaugeFunc("scand_queue_depth", "Jobs waiting on the bounded queue.",
		func() float64 { return float64(len(s.queue)) })

	for _, k := range Kinds() {
		k := k
		r.CounterFunc("scand_jobs_finished_total", "Jobs finished (done or failed) per kind.",
			func() float64 { return float64(st.kindFinished(k)) }, obs.L("kind", string(k)))
		r.RegisterHistogram("scand_job_latency_seconds",
			"End-to-end job latency (submit to finish) per kind.",
			st.kindLatencyHistogram(k), obs.L("kind", string(k)))
	}
	for _, d := range Defenses() {
		d := d
		r.CounterFunc("scand_defense_evals_total", "Completed defense evaluations per defense.",
			func() float64 { return float64(st.defenseCompleted(d)) }, obs.L("defense", d))
	}

	cache := s.cache
	r.CounterFunc("scand_sessions_built_total", "Victim sessions booted and calibrated (session-cache misses).",
		func() float64 { return float64(cache.snapshot().SessionMisses) })
	r.CounterFunc("scand_session_hits_total", "Jobs served from a parked cached session.",
		func() float64 { return float64(cache.snapshot().SessionHits) })
	r.CounterFunc("scand_calibrations_reused_total", "Session builds that adopted a cached build record, skipping calibration and any temporal module reconnaissance (build-record hits).",
		func() float64 { return float64(cache.snapshot().CalibrationHits) })
	r.CounterFunc("scand_calibrations_run_total", "Session builds that ran Calibrate from scratch (build-record misses).",
		func() float64 { return float64(cache.snapshot().CalibrationMisses) })
	r.CounterFunc("scand_sessions_quarantined_total", "Sessions condemned and dropped.",
		func() float64 { return float64(cache.snapshot().Quarantined) })
	r.CounterFunc("scand_sessions_evicted_total", "Healthy idle sessions dropped at the cache cap.",
		func() float64 { return float64(cache.snapshot().Evicted) })

	for _, site := range fault.Sites() {
		site := site
		r.CounterFunc("scand_faults_injected_total", "Deterministic faults fired per injection site.",
			func() float64 { return float64(s.inj.Fired(site)) }, obs.L("site", site.String()))
	}

	r.GaugeFunc("scand_pool_replicas", "Replicas in the shared scan-engine pool.",
		func() float64 { return float64(s.pool.Replicas()) })
	r.CounterFunc("scand_traces_started_total", "Job lifecycle traces begun by the recorder.",
		func() float64 { return float64(s.rec.Started()) })
	r.GaugeFunc("scand_traces_retained", "Traces currently held in the bounded ring.",
		func() float64 { return float64(s.rec.Len()) })

	help := "Host wall-clock per lifecycle stage."
	for st, name := range stageNames {
		m.stages[st] = r.Histogram("scand_stage_seconds", help, obs.L("stage", name))
		help = ""
	}
	return m
}
