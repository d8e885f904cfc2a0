package service

import (
	"fmt"
	"sync"

	"repro/internal/behavior"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/linux"
	"repro/internal/machine"
	"repro/internal/uarch"
	"repro/internal/userspace"
	"repro/internal/winkernel"
)

// victim bundles a booted target machine with the ground-truth handles the
// job executor scores against.
type victim struct {
	m      *machine.Machine
	kernel *linux.Kernel      // linux-class victims
	win    *winkernel.Kernel  // windows-class victims
	proc   *userspace.Process // user-class victims
}

// session is a victim plus a calibrated prober, rewound to its saved
// snapshot between jobs. For the stateless attack kinds the snapshot is the
// post-calibration state and never moves — every job replays from the same
// point. For the temporal kinds (behaviorspy, appfingerprint) the session
// is *stateful*: after each job the session re-snapshots, so the next job
// continues the victim's timeline where the previous window ended. A
// session executes one job at a time; the cache hands each session to
// exactly one executor.
type session struct {
	key string
	victim
	p *core.Prober
	// state is the snapshot every job on this session starts from: the
	// post-calibration checkpoint for stateless kinds, the end of the
	// previous window for temporal kinds.
	state core.SessionState
	// cachedCal reports the session was built from a cache record: it
	// skipped Calibrate and, for temporal kinds, the reconnaissance.
	cachedCal bool
	// quarantined marks a session the scheduler condemned (panic, corrupt
	// restore, watchdog abandonment): release drops it instead of parking
	// it, so a condemned session is never re-adopted. Guarded by the
	// cache's mutex.
	quarantined bool

	// Temporal-session state (nil/zero for stateless kinds).
	//
	// regions are the module regions the reconnaissance detected, shared
	// read-only with the cache record; drv replays the victim's activity
	// timelines; truth holds the ground truth for scoring; nextT0 is where
	// the next observation window starts on the victim timeline.
	regions []core.DetectedRegion
	drv     *behavior.Driver
	truth   []*behavior.Timeline
	spy     *core.BehaviorSpy
	fp      *core.AppFingerprinter
	nextT0  float64
}

// buildRecord is what the first build for a victim key leaves for every
// later build of that key: the calibration, whose state is the post-build
// state, and for temporal kinds the module regions the reconnaissance
// detected. A build that adopts the record skips Calibrate and the
// reconnaissance and starts from exactly the state the recorded build
// ended in (see core.NewProberFromCalibration). A record never changes
// once cached; concurrent builds share its regions read-only.
type buildRecord struct {
	cal     core.Calibration
	regions []core.DetectedRegion
}

// record exports the session's build record. Call it right after the
// build, before any job has moved the session's state.
func (s *session) record() *buildRecord {
	return &buildRecord{cal: s.p.CalibrationSnapshot(), regions: s.regions}
}

// sessionCache pools sessions per victim key and keeps one build record
// per key, so a fresh session for a known victim configuration skips
// threshold calibration and the temporal reconnaissance entirely
// (bit-identically — see core.NewProberFromCalibration).
type sessionCache struct {
	mu      sync.Mutex
	free    map[string][]*session
	records map[string]*buildRecord
	// made counts sessions ever built (cache misses); hits counts
	// acquisitions served from a parked session; calHits counts builds
	// that adopted a record; quarantined counts sessions condemned and
	// dropped; evicted counts healthy sessions dropped at the idle cap.
	made        int
	hits        int
	calHits     int
	quarantined int
	evicted     int
	// max bounds the number of idle sessions kept (0 = unbounded).
	max  int
	idle int
}

func newSessionCache(max int) *sessionCache {
	return &sessionCache{
		free:    make(map[string][]*session),
		records: make(map[string]*buildRecord),
		max:     max,
	}
}

// acquire returns a session for the spec's victim, reusing an idle one
// when available and building (boot + calibrate-or-adopt) otherwise. The
// returned flag reports reuse. Callers must release the session after the
// job. On a cache miss the build draws its boot and calibrate faults from
// plan (cache hits build nothing, so they draw nothing — the documented
// cache-dependence of the boot/calibrate sites); nil draws none.
func (c *sessionCache) acquire(spec JobSpec, plan *fault.Plan) (*session, bool, error) {
	key := spec.victimKey()
	c.mu.Lock()
	if list := c.free[key]; len(list) > 0 {
		s := list[len(list)-1]
		list[len(list)-1] = nil
		c.free[key] = list[:len(list)-1]
		c.idle--
		c.hits++
		c.mu.Unlock()
		return s, true, nil
	}
	rec := c.records[key]
	c.mu.Unlock()

	// Boot outside the lock: victim construction is the expensive part and
	// concurrent executors must not serialize on it.
	s, err := buildSession(spec, rec, plan)
	if err != nil {
		return nil, false, err
	}
	c.mu.Lock()
	c.made++
	if rec != nil {
		c.calHits++
	} else if _, ok := c.records[key]; !ok {
		c.records[key] = s.record()
	}
	c.mu.Unlock()
	return s, false, nil
}

// release parks the session for reuse (or drops it when the idle cap is
// reached, or when it was quarantined).
func (c *sessionCache) release(s *session) {
	if s == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if s.quarantined {
		return // condemned: never re-adopted; the next boot rebuilds it
	}
	if c.max > 0 && c.idle >= c.max {
		c.evicted++
		return // drop; the build record still covers the next boot
	}
	c.free[s.key] = append(c.free[s.key], s)
	c.idle++
}

// quarantine condemns a session: it will be dropped at release instead of
// parked, and can never be adopted by another job. The build record for
// its victim key is untouched — it was taken from a healthy build, and it
// is what makes the replacement boot bit-identical. Nil-safe (cloud
// attempts have no session).
func (c *sessionCache) quarantine(s *session) {
	if s == nil {
		return
	}
	c.mu.Lock()
	if !s.quarantined {
		s.quarantined = true
		c.quarantined++
	}
	c.mu.Unlock()
}

// cacheStats is the full session/build-record cache effectiveness
// snapshot: the hit/miss/evict counters the per-instance /metrics series
// and /stats expose (a session hit reuses a parked session wholesale; a
// calibration hit is a fresh boot that adopted the victim's build record,
// skipping Calibrate and any temporal reconnaissance).
type cacheStats struct {
	// SessionHits counts acquisitions served from a parked session;
	// SessionMisses counts acquisitions that had to build (equal to
	// sessions made).
	SessionHits   int
	SessionMisses int
	// CalibrationHits counts builds that adopted a build record;
	// CalibrationMisses counts builds that ran Calibrate from scratch.
	CalibrationHits   int
	CalibrationMisses int
	// Quarantined counts condemned sessions; Evicted counts healthy
	// sessions dropped at the idle cap.
	Quarantined int
	Evicted     int
}

// snapshot returns the cache's full effectiveness counters.
func (c *sessionCache) snapshot() cacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return cacheStats{
		SessionHits:       c.hits,
		SessionMisses:     c.made,
		CalibrationHits:   c.calHits,
		CalibrationMisses: c.made - c.calHits,
		Quarantined:       c.quarantined,
		Evicted:           c.evicted,
	}
}

// buildSession boots the spec's victim and produces a calibrated prober —
// by adopting rec when one is supplied, via core.NewProber otherwise —
// then runs a stateful kind's session init. plan is installed on the
// machine for the build's duration: the boot site fires right after
// machine construction and the calibrate site inside core.Calibrate. It
// is cleared before the session is returned — parked sessions carry no
// plan; job attempts install their own.
func buildSession(spec JobSpec, rec *buildRecord, plan *fault.Plan) (*session, error) {
	def := kindOf(spec.Kind)
	if def == nil || def.boot == nil {
		return nil, fmt.Errorf("service: kind %q does not use sessions", spec.Kind)
	}
	preset := uarch.ByName(spec.CPU)
	if preset == nil {
		return nil, fmt.Errorf("service: no CPU preset matches %q", spec.CPU)
	}
	m := machine.New(preset, spec.Seed)
	m.Faults = plan
	defer func() { m.Faults = nil }()
	if err := m.Fire(fault.Boot); err != nil {
		return nil, err
	}
	v := victim{m: m}
	if err := def.boot(&v, spec); err != nil {
		return nil, err
	}

	s := &session{key: spec.victimKey(), victim: v}
	if rec != nil {
		// The recorded state is the end of the recorded build, so it
		// already holds a temporal kind's reconnaissance: only the
		// host-side init below runs again.
		s.p = core.NewProberFromCalibration(m, core.Options{}, rec.cal)
		s.cachedCal = true
		s.regions = rec.regions
	} else {
		p, err := core.NewProber(m, core.Options{})
		if err != nil {
			return nil, err
		}
		s.p = p
		if def.initTemporal != nil {
			// A stateful session locates the watched modules with the
			// module attack: the reconnaissance a real spy runs once per
			// victim, and that later builds of this victim replay from
			// the cache record.
			s.regions = core.Modules(p, core.SizeTable(s.kernel.ProcModules())).Regions
		}
	}
	if def.initTemporal != nil {
		if err := def.initTemporal(s, spec); err != nil {
			return nil, err
		}
	}
	// Checkpoint on this machine: the state every first job restores (for
	// temporal kinds, timeline position 0). An adopted record's page-table
	// mutation counters belong to the recorded original, and the session's
	// per-job Restore verifies them against *this* boot.
	s.state = s.p.Checkpoint()
	return s, nil
}
