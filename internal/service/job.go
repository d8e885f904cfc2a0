package service

import (
	"cmp"
	"fmt"
	"time"

	"repro/internal/obs"
	"repro/internal/uarch"
)

// Kind names one attack workload the service schedules.
type Kind string

// The job kinds — one per attack scenario family of the paper.
const (
	// KindKernelBase derandomizes the Linux kernel text base (§IV-B;
	// Intel P2 scan or AMD P3 term-level sweep, selected by the preset).
	KindKernelBase Kind = "kernelbase"
	// KindKPTI finds the KPTI trampoline and derives the base (§IV-D).
	KindKPTI Kind = "kpti"
	// KindModules enumerates and classifies kernel modules (§IV-C).
	KindModules Kind = "modules"
	// KindWindows recovers the Windows kernel region (§IV-G).
	KindWindows Kind = "windows"
	// KindUserScan runs the fused §IV-F load+store permission scan over a
	// victim process's library area (optionally from inside SGX).
	KindUserScan Kind = "userscan"
	// KindCloud mounts a §IV-H provider scenario end to end.
	KindCloud Kind = "cloud"
	// KindBehaviorSpy runs one window of the §IV-E user-behavior spy
	// against a per-session victim timeline: consecutive jobs on the same
	// victim continue where the previous window ended (the session carries
	// the timeline position and machine snapshot across jobs).
	KindBehaviorSpy Kind = "behaviorspy"
	// KindAppFingerprint observes one window of driver-module TLB activity
	// and classifies the victim's foreground application (§IV-E extension).
	// Sessions are stateful like behaviorspy's.
	KindAppFingerprint Kind = "appfingerprint"
	// KindDefenseEval evaluates a §V countermeasure (selected by Defense)
	// against the attack that targets it: FLARE's dual page-table/TLB
	// attack, the FGKASLR template attack, the re-randomization staleness
	// check (optionally a period sweep), or the masked-op-restriction
	// impact count. The victim boots with the defense enabled, so
	// defense-eval sessions never share state — or cached calibrations —
	// with undefended boots of the same CPU and seed.
	KindDefenseEval Kind = "defenseeval"
)

// Kinds lists every schedulable job kind.
func Kinds() []Kind {
	out := make([]Kind, len(kindTable))
	for i := range kindTable {
		out[i] = kindTable[i].kind
	}
	return out
}

// The §V defenses a KindDefenseEval job can evaluate.
const (
	// DefenseFLARE evaluates FLARE dummy mappings (§V-A): the page-table
	// attack must lose its signal while the TLB attack still recovers the
	// base.
	DefenseFLARE = "flare"
	// DefenseFGKASLR evaluates function-granular KASLR (§V-A): offsets
	// move, but the TLB template attack still locates the target function.
	DefenseFGKASLR = "fgkaslr"
	// DefenseRerand evaluates periodic re-randomization (§V-A): the
	// recovered base must be stale after a shuffle; with RerandPeriodsSec
	// set, the job additionally sweeps exploitation windows over periods.
	DefenseRerand = "rerand"
	// DefenseMaskedOp evaluates the §V-B masked-op-restriction mitigation's
	// deployment impact over the Ubuntu executable population.
	DefenseMaskedOp = "maskedop"
)

// Defenses lists every evaluable defense.
func Defenses() []string {
	out := make([]string, len(defenseTable))
	for i := range defenseTable {
		out[i] = defenseTable[i].name
	}
	return out
}

// JobSpec fully determines one attack job: the kind, the victim
// configuration and the seed. A job is a pure function of its spec — the
// same spec produces bit-identical results at any scheduler setting, which
// is the service's core determinism contract.
type JobSpec struct {
	Kind Kind `json:"kind"`
	// CPU selects the victim preset by name substring (uarch.ByName);
	// empty picks the kind's default.
	CPU string `json:"cpu,omitempty"`
	// Seed drives victim boot randomization (KASLR slot, module layout,
	// process ASLR) and, through the machine, every measurement.
	Seed uint64 `json:"seed"`
	// FLARE boots the Linux victim with FLARE dummy mappings (defense).
	FLARE bool `json:"flare,omitempty"`
	// FGKASLR boots the Linux victim with function-granular KASLR (defense).
	// Like FLARE, part of the victim configuration for every linux-class
	// kind; kind defenseeval sets both flags from Defense.
	FGKASLR bool `json:"fgkaslr,omitempty"`
	// Defense selects the evaluated countermeasure (kind defenseeval):
	// flare | fgkaslr | rerand | maskedop.
	Defense string `json:"defense,omitempty"`
	// Function is the FGKASLR template attack's target kernel function
	// (kind defenseeval, defense fgkaslr; empty = tcp_sendmsg).
	Function string `json:"function,omitempty"`
	// RerandPeriodsSec sweeps re-randomization periods (kind defenseeval,
	// defense rerand; empty = staleness evaluation only).
	RerandPeriodsSec []float64 `json:"rerand_periods_sec,omitempty"`
	// Trampoline is the KPTI trampoline offset (kind kpti; 0 = the Ubuntu
	// default). It must be page-aligned, with the trampoline's pages inside
	// the kernel image.
	Trampoline uint64 `json:"trampoline,omitempty"`
	// Drivers is the Windows driver-image population (kind windows;
	// 0 = 24, the cmd default; negative is rejected).
	Drivers int `json:"drivers,omitempty"`
	// EntropyBits scales the user-ASLR entropy (kind userscan; 0 = 12, a
	// service-friendly window — the paper's 28 bits extrapolate). Valid
	// values are 1 to userspace.EntropyBits (28).
	EntropyBits int `json:"entropy_bits,omitempty"`
	// SGX runs the user scan from inside an enclave (kind userscan).
	SGX bool `json:"sgx,omitempty"`
	// Provider selects the cloud scenario: ec2 | gce | azure (kind cloud).
	Provider string `json:"provider,omitempty"`
	// AzureMaxSlot bounds the Azure region scan (kind cloud; 0 = full).
	AzureMaxSlot int `json:"azure_max_slot,omitempty"`
	// Targets names the watched kernel modules (kind behaviorspy; empty =
	// bluetooth+psmouse, the Figure 6 pair). Part of the victim key: jobs
	// watching different modules do not share a timeline.
	Targets []string `json:"targets,omitempty"`
	// DurationSec is the spy window length per job in victim seconds (kind
	// behaviorspy; 0 = 20).
	DurationSec float64 `json:"duration_sec,omitempty"`
	// TickSec is the temporal sampling interval (kinds behaviorspy and
	// appfingerprint; 0 = 1, the paper's 1 Hz).
	TickSec float64 `json:"tick_sec,omitempty"`
	// App is the application the victim runs (kind appfingerprint; must
	// name a core.StandardAppProfiles entry; empty = music-player).
	App string `json:"app,omitempty"`
	// Ticks is the observation-window length per job in ticks (kind
	// appfingerprint; 0 = 8).
	Ticks int `json:"ticks,omitempty"`
	// ScanWorkers overrides the scheduler's per-job scan-engine parallelism
	// (core.Options.Workers) for this job only: 0 runs the job's sweeps
	// inline on its session machine, >= 1 fans chunks across that many
	// pooled replicas. nil falls back to the scheduler default. Results are
	// bit-identical at every setting, so this knob trades this job's
	// latency against executor-level throughput — it is deliberately not
	// part of the victim key.
	ScanWorkers *int `json:"scan_workers,omitempty"`
}

// MaxJobScanWorkers bounds the per-job ScanWorkers override (a submitted
// job must not fan one sweep across an unbounded replica count).
const MaxJobScanWorkers = 256

// MaxJobTicks bounds a temporal job's observation window in ticks: one
// submitted job must not make an executor allocate an unbounded per-tick
// result (the temporal analogue of MaxJobScanWorkers). It is purely a
// per-job allocation bound — the session's cumulative timeline position is
// unbounded, since victim timelines extend lazily without horizon (any
// number of maximal jobs can continue one session).
const MaxJobTicks = 1 << 16

// MaxRerandSweepPeriods bounds one defense-eval job's re-randomization
// period sweep (one result row per period).
const MaxRerandSweepPeriods = 64

// normalized fills the spec's kind defaults and validates it.
func (s JobSpec) normalized() (JobSpec, error) {
	if s.ScanWorkers != nil {
		if w := *s.ScanWorkers; w < 0 || w > MaxJobScanWorkers {
			return s, fmt.Errorf("service: scan_workers %d out of range [0, %d]", w, MaxJobScanWorkers)
		}
	}
	def := kindOf(s.Kind)
	if def == nil {
		return s, fmt.Errorf("service: unknown job kind %q", s.Kind)
	}
	s.CPU = cmp.Or(s.CPU, def.cpu)
	if def.normalize != nil {
		if err := def.normalize(&s); err != nil {
			return s, err
		}
	}
	if def.boot == nil {
		return s, nil // the scenario fixes the preset
	}
	if uarch.ByName(s.CPU) == nil {
		return s, fmt.Errorf("service: no CPU preset matches %q", s.CPU)
	}
	return s, nil
}

// victimKey identifies the victim a job runs against: every field that
// shapes the booted machine, the victim OS/process image or the
// calibration. Jobs with equal keys can share a cached session (and the
// cached calibration); the attack kind itself is deliberately *not* part
// of the key where victims coincide — a kernel-base job and a modules job
// against the same Linux boot multiplex onto one session, and a rerand
// defense evaluation shares the undefended boot a kernel-base job uses.
// The defense configuration (FLARE, FGKASLR) is part of every linux-class
// key: a defended boot has different mappings, symbol layout and timing
// surface, so it must never adopt an undefended boot's session *or* its
// cached calibration (the calibration cache is keyed by the same string).
func (s JobSpec) victimKey() string {
	if def := kindOf(s.Kind); def != nil && def.victimKey != nil {
		return def.victimKey(s)
	}
	return "" // cloud boots inside CloudBreak; no session sharing
}

// Status is a job's lifecycle state.
type Status string

// Job states.
const (
	StatusQueued  Status = "queued"
	StatusRunning Status = "running"
	StatusDone    Status = "done"
	StatusFailed  Status = "failed"
)

// Region is one recovered address-space region in a result payload.
type Region struct {
	Start uint64 `json:"start"`
	End   uint64 `json:"end"`
	// Class is the recovered classification: a permission class (userscan)
	// or the module-name candidates (modules).
	Class string `json:"class,omitempty"`
}

// Result is the deterministic payload of one completed job: everything in
// it is a pure function of the JobSpec — the service parity suite holds
// these fields bit-identical to direct core.* calls at any worker/pool
// setting. Host-side metrics (queue latency, run latency) live on the Job.
type Result struct {
	Kind    Kind `json:"kind"`
	Correct bool `json:"correct"`
	// Base is the recovered base address (kernelbase, kpti, windows,
	// cloud).
	Base uint64 `json:"base,omitempty"`
	// RunSlots is the detected run length (windows).
	RunSlots int `json:"run_slots,omitempty"`
	// Regions holds recovered regions (modules, userscan).
	Regions []Region `json:"regions,omitempty"`
	// Found maps fingerprinted library names to bases (userscan).
	Found map[string]uint64 `json:"found,omitempty"`
	// Accuracy is the per-module detection accuracy (modules).
	Accuracy float64 `json:"accuracy,omitempty"`
	// ModulesFound counts detected module regions (cloud, Linux guests).
	ModulesFound int `json:"modules_found,omitempty"`
	// ViaTrampoline reports the KPTI path (cloud/ec2).
	ViaTrampoline bool `json:"via_trampoline,omitempty"`
	// WindowStartSec / WindowEndSec locate a temporal job's observation
	// window on the session's victim timeline (behaviorspy, appfingerprint):
	// the position the session had reached when this job ran.
	WindowStartSec float64 `json:"window_start_sec,omitempty"`
	WindowEndSec   float64 `json:"window_end_sec,omitempty"`
	// TargetAccuracy is the per-module detection accuracy vs ground truth
	// (behaviorspy).
	TargetAccuracy map[string]float64 `json:"target_accuracy,omitempty"`
	// App is the classified application (appfingerprint; empty when no
	// profile matched).
	App string `json:"app,omitempty"`
	// Defense names the evaluated countermeasure (defenseeval).
	Defense string `json:"defense,omitempty"`
	// Bypassed reports whether the attack defeated the defense
	// (defenseeval, defenses flare/fgkaslr — the paper's expected outcome
	// is a bypass; rerand reports the inverse via StaleHit).
	Bypassed bool `json:"bypassed,omitempty"`
	// PageSignal reports whether the page-table attack could still tell
	// kernel slots from FLARE dummy slots (defenseeval/flare; must be
	// false for the defense to do its job).
	PageSignal bool `json:"page_signal,omitempty"`
	// OffsetStable reports whether the target function kept its
	// build-constant offset (defenseeval/fgkaslr; must be false).
	OffsetStable bool `json:"offset_stable,omitempty"`
	// StaleHit reports whether the recovered base survived the
	// re-randomization shuffle (defenseeval/rerand; must be false).
	StaleHit bool `json:"stale_hit,omitempty"`
	// RerandSweep holds the exploitation-window sweep rows
	// (defenseeval/rerand with rerand_periods_sec).
	RerandSweep []RerandPoint `json:"rerand_sweep,omitempty"`
	// AffectedExecutables / TotalExecutables are the masked-op-restriction
	// deployment impact counts (defenseeval/maskedop).
	AffectedExecutables int `json:"affected_executables,omitempty"`
	TotalExecutables    int `json:"total_executables,omitempty"`
	// ProbeSimSec and TotalSimSec are the simulated attacker runtimes in
	// seconds (the Table I probing/total split).
	ProbeSimSec float64 `json:"probe_sim_sec"`
	TotalSimSec float64 `json:"total_sim_sec"`
	// Retries counts the transient failures healed before this result was
	// produced (scheduler-side accounting; always 0 on a zero-fault run,
	// so the payload stays bit-identical to the parity references).
	Retries int `json:"retries,omitempty"`
}

// RerandPoint is one period row of a re-randomization sweep result.
type RerandPoint struct {
	PeriodSec   float64 `json:"period_sec"`
	WindowSec   float64 `json:"window_sec"`
	Exploitable bool    `json:"exploitable"`
}

// Job is one scheduled attack: spec, lifecycle and result. Mutable fields
// are guarded by the Store that owns the job.
type Job struct {
	ID   uint64  `json:"id"`
	Spec JobSpec `json:"spec"`

	Status Status `json:"status"`
	Err    string `json:"error,omitempty"`
	// ErrClass is the failure's retry classification (failed jobs only).
	ErrClass ErrorClass `json:"error_class,omitempty"`
	Result   *Result    `json:"result,omitempty"`
	// Attempts is how many times the job ran (recorded only when > 1, i.e.
	// when transient failures forced retries).
	Attempts int `json:"attempts,omitempty"`
	// ReusedSession and ReusedCalibration report what the session cache
	// contributed (host-side provenance, not part of the payload).
	ReusedSession     bool `json:"reused_session,omitempty"`
	ReusedCalibration bool `json:"reused_calibration,omitempty"`

	Submitted time.Time `json:"submitted"`
	Started   time.Time `json:"started,omitzero"`
	Finished  time.Time `json:"finished,omitzero"`

	done chan struct{}
	// trace is the job's lifecycle span tree (nil unless the scheduler's
	// recorder sampled this job); qspan is its open queue-wait span, ended
	// when an executor picks the job up. Both are nil-safe no-ops when
	// tracing is off — instrumentation never alters job behaviour.
	trace *obs.Trace
	qspan *obs.Span
}

// Done returns a channel closed when the job completes (done or failed).
func (j *Job) Done() <-chan struct{} { return j.done }

// QueueLatency and RunLatency split the job's host wall-clock.
func (j *Job) QueueLatency() time.Duration { return j.Started.Sub(j.Submitted) }

// RunLatency returns the executor wall-clock of a finished job.
func (j *Job) RunLatency() time.Duration { return j.Finished.Sub(j.Started) }
