package service

import (
	"errors"
	"fmt"
	"hash/fnv"

	"repro/internal/fault"
	"repro/internal/obs"
)

// Failure sentinels of the self-healing scheduler. Every failed job's error
// chain terminates in exactly one classification (Classify); these are the
// roots the chain is matched against.
var (
	// ErrJobDeadline reports the per-job watchdog failing an attempt that
	// overran Config.JobDeadline. The overrunning body is abandoned (it
	// self-terminates — injected stalls unblock when the watchdog fires)
	// and its session is quarantined, never leaked back into the cache.
	ErrJobDeadline = errors.New("service: job deadline exceeded")
	// ErrPanicked reports an attempt whose executor body panicked. The
	// panic is recovered in the attempt goroutine — one bad job can never
	// take the scheduler down — and the session it ran on is quarantined.
	ErrPanicked = errors.New("service: job panicked")
	// ErrOverloaded reports admission control shedding a submission: the
	// queue stood at or above Config.ShedWatermark. Like ErrQueueFull it
	// maps to HTTP 429 + Retry-After; unlike ErrQueueFull it fires while
	// the queue still has room, keeping headroom for retries in flight.
	ErrOverloaded = errors.New("service: shedding load")
	// ErrSessionCorrupt wraps a failed snapshot-restore verification: the
	// session's machine no longer reproduces its checkpoint. The session is
	// quarantined and the retry rebuilds a fresh one — bit-identical via
	// the calibration cache, per the existing session contract.
	ErrSessionCorrupt = errors.New("service: session corrupt")
)

// ErrorClass is the retry taxonomy: every job failure is exactly one of
// these, recorded on the Job and steering the scheduler's retry loop.
type ErrorClass string

// The classes.
const (
	// ClassTransient failures may heal on retry: injected faults, deadline
	// overruns, panics, corrupt sessions, overload rejections. The
	// scheduler retries them up to Config.MaxAttempts with capped
	// exponential backoff.
	ClassTransient ErrorClass = "transient"
	// ClassPermanent failures are deterministic for the spec: validation
	// errors, unknown kinds, draining. Retrying cannot change the outcome,
	// so the scheduler fails the job on first sight.
	ClassPermanent ErrorClass = "permanent"
)

// Classify maps an error chain to its retry class. The transient set is
// closed over the scheduler's own failure modes — everything the fault
// injector can cause plus the watchdog/panic/overload sentinels; any other
// error is a deterministic property of the spec and permanent (in this
// simulator a genuine attack error reproduces bit-identically on retry, so
// retrying it would only triple the latency of the same failure).
func Classify(err error) ErrorClass {
	if err == nil {
		return ""
	}
	var f *fault.Fault
	switch {
	case errors.Is(err, ErrJobDeadline),
		errors.Is(err, ErrPanicked),
		errors.Is(err, ErrSessionCorrupt),
		errors.Is(err, ErrOverloaded),
		errors.Is(err, ErrQueueFull),
		errors.As(err, &f):
		return ClassTransient
	default:
		return ClassPermanent
	}
}

// FaultConfig builds the uniform fault configuration the scand
// -fault-seed/-fault-rate flags map to: every injection site at rate,
// scheduled deterministically by seed. rate <= 0 disables injection.
func FaultConfig(seed uint64, rate float64) fault.Config {
	if rate <= 0 {
		return fault.Config{}
	}
	return fault.Config{Seed: seed, Rates: fault.Uniform(rate)}
}

// faultKey collapses the spec into the 64-bit consumer key its fault plans
// are drawn under: the victim key plus the kind and the cloud fields the
// victim key omits. Jobs with identical specs draw identical fault
// schedules — the schedule is a function of what the job *is*, never of
// submission order or executor interleaving.
func (s JobSpec) faultKey() uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%s|%s|%d|%d", s.Kind, s.victimKey(), s.Provider, s.Seed, s.AzureMaxSlot)
	return h.Sum64()
}

// attemptEnv is the per-attempt fault context threaded from the scheduler
// into the executing body: the attempt's fault plan, the watchdog's stop
// signal (closed when the deadline fails the attempt, so injected stalls
// and their orphaned bodies self-terminate instead of leaking), and the
// scheduler's drain signal.
type attemptEnv struct {
	plan *fault.Plan
	// stop is closed by the watchdog when it abandons this attempt.
	stop chan struct{}
	// drain is the scheduler's drain signal (closed once, in Drain).
	drain <-chan struct{}
	// watchdog reports whether a deadline watchdog is armed for this
	// attempt; without one, injected stalls fail fast instead of blocking
	// on a stop signal nothing would ever send.
	watchdog bool
	// span is this attempt's trace span (nil unless the job is sampled —
	// every use is a nil-safe call) and met the scheduler's metrics plane
	// (nil records nothing); both ride the env so the exec path needs no
	// extra plumbing.
	span *obs.Span
	met  *metricsPlane
}
