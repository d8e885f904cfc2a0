package service

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
)

// execute runs one attempt of a job on its session (nil for cloud jobs,
// which boot their victim inside core.CloudBreak) with the given scan
// options. Before the attack the session is rewound to its saved
// snapshot, so the job observes the exact machine state a fresh
// boot-and-calibrate would produce regardless of what ran on the session
// before — the determinism contract the parity suites enforce. After a
// successful job on a stateful kind, the session advances to the end of
// the job's window and re-snapshots.
//
// The attempt's fault plan is installed on the session machine for the
// duration (restore and probe draws fire through it) and cleared before
// the session goes back to the cache, so parked sessions never carry a
// plan. Cloud jobs boot on a machine the service never sees, so their
// boot and probe draws fire from the plan directly, here. The restore and
// execute stages get child spans and stage-histogram samples. A nil env —
// the parity suites' direct calls — draws no faults and records nothing.
func execute(sess *session, spec JobSpec, opt core.Options, env *attemptEnv) (*Result, error) {
	if env == nil {
		env = &attemptEnv{}
	}
	def := kindOf(spec.Kind)
	if sess == nil {
		if f := env.plan.Fire(fault.Boot); f != nil {
			return nil, f
		}
		if f := env.plan.Fire(fault.Probe); f != nil {
			return nil, f
		}
	} else {
		sess.m.Faults = env.plan
		defer func() { sess.m.Faults = nil }()
		rsp := env.span.Child("restore")
		t0 := time.Now()
		err := restoreSession(sess)
		env.met.observe(stageRestore, time.Since(t0))
		rsp.End()
		if err != nil {
			return nil, err
		}
		sess.p.Opt.Workers = opt.Workers
		sess.p.Opt.Pool = opt.Pool
	}
	esp := env.span.Child("execute")
	t0 := time.Now()
	res, err := def.run(sess, spec, opt)
	if err == nil && def.initTemporal != nil {
		// Carry the victim timeline and the machine state to the next job —
		// the stateful half of the session contract.
		sess.nextT0 = res.WindowEndSec
		sess.state = sess.p.Checkpoint()
	}
	env.met.observe(stageExecute, time.Since(t0))
	if res != nil {
		res.Kind = spec.Kind
		esp.SetSim(res.TotalSimSec)
	}
	esp.End()
	return res, err
}

// restoreSession rewinds the session machine to its saved snapshot. A
// failed rewind means the session no longer reproduces its snapshot; it
// is reported as ErrSessionCorrupt, which quarantines the session
// upstream.
func restoreSession(sess *session) error {
	if err := sess.p.Restore(sess.state); err != nil {
		return fmt.Errorf("%w: %w", ErrSessionCorrupt, err)
	}
	return nil
}
