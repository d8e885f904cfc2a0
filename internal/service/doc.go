// Package service is the attack-as-a-service layer over the pooled scan
// engine: it accepts attack jobs (kernel base, KPTI trampoline, module
// enumeration, Windows region scan, §IV-F user scan, cloud scenarios, the
// temporal §IV-E behaviorspy / appfingerprint attacks, and the §V
// defenseeval countermeasure evaluations), schedules them on a bounded
// queue, and multiplexes them across executor goroutines that share
// calibrated prober state — the subsystem that turns the one-shot attack
// library into something that can serve sustained mixed traffic.
//
// The layer cake, bottom to top:
//
//	machine   one simulated CPU+memory system (internal/machine)
//	scan      the sharded, batched sweep engine (internal/scan)
//	core      calibrated probers + the paper's attacks (internal/core)
//	service   jobs, sessions, scheduling, stats (this package)
//
// Three kinds of state are reused across jobs, each with a determinism
// contract that keeps service output bit-identical to direct core calls:
//
//   - Worker replicas: one core.ScanPool is shared by every executor, so
//     concurrent scans draw calibrated prober replicas from a single free
//     list and machine.Rebind re-syncs them per scan (pooled output equals
//     the inline workers-0 output; core's TestPooledMatchesFresh enforces
//     it).
//   - Sessions: a booted victim + calibrated prober, rewound to a saved
//     machine.Snapshot before every job (core.Prober.Restore). For the
//     stateless kinds the snapshot is the post-calibration state and never
//     moves, so job N on a reused session replays the exact machine state
//     job 1 saw. For the temporal kinds the session is *stateful*: the
//     snapshot is retaken after every job, carrying the victim's timeline
//     position (plus TLB/PSC/PTE-line contents, clock, noise position and
//     the user write shadow) to the next job — consecutive jobs observe
//     consecutive windows of one victim's day, bit-identical to one long
//     direct run. Restore verifies the page tables were not mutated in
//     between (machine.Snapshot's version guard), so every job remains a
//     pure function of (victim image, session state, spec). Snapshots
//     share the session machine's user frames copy-on-write, so the
//     restore before a job and the checkpoint after it cost a pointer per
//     written frame, not a copy of the frames.
//   - Build records: the first session for a victim configuration records
//     its thresholds and its post-build execution state (core.Calibration)
//     and, for the temporal kinds, the module regions its reconnaissance
//     detected. Later sessions for the same configuration boot the victim
//     and adopt the record via core.NewProberFromCalibration, skipping
//     calibration and the reconnaissance alike: a rebuilt session starts in
//     exactly the state of a cold build, bit-identically, so a temporal
//     session dropped from the cache restarts its timeline at t=0 with the
//     window its first build observed.
//
// The victim key that governs both caches is defense-aware: the boot-time
// defense configuration (FLARE dummy mappings, FGKASLR) is part of every
// linux-class key, because a defended boot has different mappings, symbol
// layout and timing surface — it must never adopt an undefended boot's
// session or cached calibration for the same CPU/seed. KindDefenseEval
// derives the boot flags from the evaluated defense, so its flare/fgkaslr
// jobs get isolated defended sessions while its rerand/maskedop jobs
// deliberately multiplex onto the same undefended boot a kernel-base job
// uses. Each defense evaluation is bit-identical to the corresponding
// direct internal/defense.Evaluate* call at the same seed.
//
// Temporal sessions have no horizon: victim activity timelines are
// unbounded and extend lazily (behavior.UnboundedTimeline), with the
// extension deterministic regardless of when or in what order windows
// materialize it — a session can keep serving windows past any tick count
// and still match a direct run window for window. MaxJobTicks bounds only
// one job's allocation, never the session's cumulative timeline position.
//
// # Adding a job kind
//
// Every kind is one row of kindTable (kinds.go): its default CPU preset,
// its normalize/validate step, its victim key, its victim boot, its
// temporal-session init (stateful kinds only) and its run body. Cloud is
// the row with no boot and an empty victim key. Normalization, victim
// keys, session builds and job attempts look the row up; nothing else
// switches on a kind, and Kinds() — hence the /metrics exposition order —
// is the table order. A new kind is its Kind constant plus one table row,
// and one directResult reference in the parity suite (service_test.go):
// the same attack mounted with plain core.* calls, which the scheduler's
// result must match bit for bit. The §V defenses of KindDefenseEval
// follow the same pattern in defenseTable.
//
// # Failure semantics
//
// The scheduler self-heals, and its failure contract is explicit:
//
//   - Classification. Every failed job carries exactly one ErrorClass.
//     Transient failures (injected faults, ErrJobDeadline, ErrPanicked,
//     ErrSessionCorrupt, overload/queue rejections) may heal on retry;
//     everything else is permanent — in this deterministic simulator a
//     genuine attack error reproduces bit-identically on retry, so the
//     scheduler fails it on first sight instead of tripling its latency.
//   - Retries. Transient attempts rerun up to Config.MaxAttempts with
//     exponential backoff (Config.RetryBackoff doubling per attempt,
//     capped at MaxRetryBackoff). Job.Attempts and Result.Retries record
//     the accounting — only when retries actually happened, so zero-fault
//     output stays bit-identical to the parity references. A drain aborts
//     a pending backoff immediately and fails the job with its last error.
//   - Deadlines. A per-attempt watchdog fails any attempt that overruns
//     Config.JobDeadline with ErrJobDeadline rather than letting it hold
//     an executor. The overrunning body is abandoned but never leaked: the
//     watchdog's stop signal unblocks injected stalls, and the orphaned
//     body's cleanup quarantines its session on the way out.
//   - Panic isolation. An attempt body that panics is recovered in its own
//     goroutine, surfaced as ErrPanicked (transient), and its session is
//     quarantined — one poisoned job can never take an executor down.
//   - Quarantine. A condemned session (panic, corrupt restore, watchdog
//     abandonment) is dropped at release and never re-adopted. The build
//     record for its victim key is untouched — it came from a healthy
//     build — so the replacement session boots bit-identically.
//   - Admission control. Config.ShedWatermark (off by default) sheds
//     submissions with ErrOverloaded while the queue still has headroom;
//     HTTP maps it, like ErrQueueFull, to 429 + Retry-After.
//
// Fault injection (internal/fault) drives all of this deterministically:
// the whole fault schedule is a pure function of the injector seed — per
// site, per job identity (JobSpec.faultKey), per attempt — so identical
// seeds yield identical retry/quarantine traces regardless of executor
// interleaving. The one documented cache-dependence: boot and calibrate
// faults fire only on session *builds*, and whether a submission builds or
// adopts depends on execution order — full-trace identity for those two
// sites holds under serialized execution (the concurrent chaos tests zero
// them; `make test-race` runs the whole matrix under -race). A disabled
// injector is a nil pointer: the production hot path pays one nil test.
//
// The result store aggregates the service-level metrics (success rate,
// jobs/s, p50/p99 host latency, total simulated attacker time). Retention
// is bounded (StoreConfig: max-jobs cap plus optional finished-job TTL):
// only finished jobs are evicted — in-flight jobs are pinned so drains
// always complete — and the aggregates live in counters and fixed-bucket
// histograms (internal/obs) that survive eviction, so a long-lived scand
// serves unbounded traffic in bounded memory with O(buckets) stats
// scrapes. cmd/scand exposes the scheduler over HTTP; the bench module
// (bench/run.sh) puts sustained traffic through it in-process.
//
// # Observability contract
//
// The metrics plane and the per-job lifecycle traces (internal/obs,
// Config.TraceSample, GET /metrics, GET /jobs/{id}/trace) are strictly
// read-only instrumentation: they must be invisible to every parity and
// determinism suite. Concretely:
//
//   - No behavioural coupling. Spans and stage histograms record what the
//     scheduler did; they never influence scheduling, retry, quarantine or
//     session-cache decisions, and job results are bit-identical with
//     tracing on, off, or sampled.
//   - Free when off. Disabled tracing is a nil *obs.Recorder — jobs carry
//     nil traces, every span call is a nil-receiver no-op, and the guard
//     tests pin the disabled hot path at zero allocations (the injector
//     idiom). Metrics counters/views read existing state at scrape time;
//     the only always-on cost is one atomic histogram add per stage.
//   - Traces are determinism oracles, not just debug output. A trace's
//     canonical form (wall-clock fields zeroed) is a pure function of
//     (seed, spec, fault schedule) under serialized execution, so the
//     chaos suite asserts byte-identical span trees across runs — any code
//     change that breaks trace equality has changed actual control flow.
package service
