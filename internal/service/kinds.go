package service

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"

	"repro/internal/behavior"
	"repro/internal/core"
	"repro/internal/defense"
	"repro/internal/fault"
	"repro/internal/linux"
	"repro/internal/paging"
	"repro/internal/rng"
	"repro/internal/sgx"
	"repro/internal/userspace"
	"repro/internal/winkernel"
)

// kindDef is the one definition of a job kind. The generic paths —
// normalization, victim keys, session builds, job attempts — look the row
// up and call into it; nothing else in the package switches on a kind.
type kindDef struct {
	kind Kind
	// cpu is the preset an empty JobSpec.CPU defaults to.
	cpu string
	// normalize fills the kind's other defaults and validates its fields
	// (nil: nothing beyond the CPU).
	normalize func(s *JobSpec) error
	// victimKey names the victim a job runs against, and boot builds it on
	// a fresh machine. Cloud, which boots inside core.CloudBreak, has
	// neither: no session, an empty victim key and no CPU default.
	victimKey func(s JobSpec) string
	boot      func(v *victim, s JobSpec) error
	// initTemporal prepares a stateful session from the module
	// reconnaissance (nil for stateless kinds). After each successful job
	// on a stateful session, the session advances to the end of the job's
	// window and re-snapshots, so the next job continues the timeline.
	initTemporal func(sess *session, s JobSpec, located core.ModulesResult) error
	// run executes one job on its restored session (nil for cloud) and
	// returns the kind's payload; the caller stamps Result.Kind.
	run func(sess *session, s JobSpec, opt core.Options) (*Result, error)
}

// kindTable registers every job kind, in Kinds() order (which is also the
// /metrics exposition order).
var kindTable = []kindDef{
	{kind: KindKernelBase, cpu: "12400F", victimKey: linuxKey, boot: linuxBoot(false), run: runKernelBase},
	{kind: KindKPTI, cpu: "12400F", normalize: normalizeKPTI, victimKey: kptiKey, boot: linuxBoot(true), run: runKPTI},
	{kind: KindModules, cpu: "1065G7", victimKey: linuxKey, boot: linuxBoot(false), run: runModules},
	{kind: KindWindows, cpu: "12400F", normalize: normalizeWindows, victimKey: windowsKey, boot: bootWindows, run: runWindows},
	{kind: KindUserScan, cpu: "1065G7", normalize: normalizeUserScan, victimKey: userKey, boot: bootUser, run: runUserScan},
	{kind: KindCloud, normalize: normalizeCloud, run: runCloud},
	{kind: KindBehaviorSpy, cpu: "1065G7", normalize: normalizeSpy, victimKey: spyKey, boot: linuxBoot(false),
		initTemporal: initSpy, run: runSpy},
	{kind: KindAppFingerprint, cpu: "1065G7", normalize: normalizeAppFingerprint, victimKey: appFingerprintKey,
		boot: linuxBoot(false), initTemporal: initAppFingerprint, run: runAppFingerprint},
	{kind: KindDefenseEval, cpu: "12400F", normalize: normalizeDefense, victimKey: linuxKey, boot: linuxBoot(false),
		run: runDefense},
}

// kindOf returns the kind's table row, or nil for an unknown kind.
func kindOf(k Kind) *kindDef {
	i := slices.IndexFunc(kindTable, func(d kindDef) bool { return d.kind == k })
	if i < 0 {
		return nil
	}
	return &kindTable[i]
}

// defenseDef is the one definition of a §V defense KindDefenseEval
// evaluates.
type defenseDef struct {
	name string
	// flare and fgkaslr are the victim's boot flags: the evaluated defense
	// *is* the boot configuration. fgkaslr also admits JobSpec.Function,
	// the template attack's target; sweep admits JobSpec.RerandPeriodsSec.
	flare, fgkaslr, sweep bool
	// run evaluates the defense on the restored session into res, setting
	// res.Correct when the paper's §V finding reproduced.
	run func(sess *session, s JobSpec, res *Result) error
}

// defenseTable registers every defense, in Defenses() order.
var defenseTable = []defenseDef{
	{name: DefenseFLARE, flare: true, run: runFLARE},
	{name: DefenseFGKASLR, fgkaslr: true, run: runFGKASLR},
	{name: DefenseRerand, sweep: true, run: runRerand},
	{name: DefenseMaskedOp, run: runMaskedOp},
}

// defenseOf returns the defense's table row, or nil for an unknown name.
func defenseOf(name string) *defenseDef {
	i := slices.IndexFunc(defenseTable, func(d defenseDef) bool { return d.name == name })
	if i < 0 {
		return nil
	}
	return &defenseTable[i]
}

// The victim keys; see JobSpec.victimKey for what a key must pin.

func linuxKey(s JobSpec) string {
	return fmt.Sprintf("linux|%s|seed=%d|flare=%v|fgkaslr=%v", s.CPU, s.Seed, s.FLARE, s.FGKASLR)
}

func kptiKey(s JobSpec) string {
	return fmt.Sprintf("linux+kpti|%s|seed=%d|flare=%v|fgkaslr=%v|tramp=%#x", s.CPU, s.Seed, s.FLARE, s.FGKASLR, s.Trampoline)
}

func windowsKey(s JobSpec) string {
	return fmt.Sprintf("windows|%s|seed=%d|drivers=%d", s.CPU, s.Seed, s.Drivers)
}

func userKey(s JobSpec) string {
	return fmt.Sprintf("user|%s|seed=%d|entropy=%d|sgx=%v", s.CPU, s.Seed, s.EntropyBits, s.SGX)
}

// spyKey pins every field that shapes the victim's timeline: jobs sharing
// it continue one spy session.
func spyKey(s JobSpec) string {
	return fmt.Sprintf("spy|%s|seed=%d|flare=%v|fgkaslr=%v|targets=%s|tick=%g|win=%g",
		s.CPU, s.Seed, s.FLARE, s.FGKASLR, strings.Join(s.Targets, ","), s.TickSec, s.DurationSec)
}

func appFingerprintKey(s JobSpec) string {
	return fmt.Sprintf("appfp|%s|seed=%d|flare=%v|fgkaslr=%v|app=%s|ticks=%d|tick=%g",
		s.CPU, s.Seed, s.FLARE, s.FGKASLR, s.App, s.Ticks, s.TickSec)
}

// The victim boots follow the direct-call recipe (cmd/avxattack, the
// examples) exactly, which is what makes service results bit-identical to
// direct core calls.

// linuxBoot boots a Linux victim with the spec's defense configuration.
func linuxBoot(kpti bool) func(v *victim, s JobSpec) error {
	return func(v *victim, s JobSpec) (err error) {
		v.kernel, err = linux.Boot(v.m, linux.Config{
			Seed:             s.Seed,
			KPTI:             kpti,
			FLARE:            s.FLARE,
			FGKASLR:          s.FGKASLR,
			TrampolineOffset: s.Trampoline,
		})
		return err
	}
}

func bootWindows(v *victim, s JobSpec) (err error) {
	v.win, err = winkernel.Boot(v.m, winkernel.Config{Seed: s.Seed, Drivers: s.Drivers})
	return err
}

// bootUser builds the victim process on an undefended Linux boot. With
// SGX the enclave stays entered for the session's lifetime: the
// post-calibration checkpoint captures the in-enclave state.
func bootUser(v *victim, s JobSpec) (err error) {
	if _, err = linux.Boot(v.m, linux.Config{Seed: s.Seed}); err != nil {
		return err
	}
	v.proc, err = userspace.Build(v.m, userspace.Config{Seed: s.Seed, EntropyBits: s.EntropyBits, HideLastRWPage: true})
	if err == nil && s.SGX {
		_, err = sgx.Enter(v.m, sgx.RDTSC)
	}
	return err
}

func runKernelBase(sess *session, _ JobSpec, _ core.Options) (*Result, error) {
	res, err := core.KernelBase(sess.p)
	if err != nil {
		return nil, err
	}
	preset := sess.p.M.Preset
	return &Result{
		Correct:     res.Base == sess.kernel.Base,
		Base:        uint64(res.Base),
		ProbeSimSec: res.ProbeSeconds(preset),
		TotalSimSec: res.TotalSeconds(preset),
	}, nil
}

// maxTrampoline is the largest trampoline offset whose pages all lie
// inside the kernel image's 2 MiB slots.
const maxTrampoline = linux.ImageSlots*paging.Page2M - linux.TrampolinePages*paging.Page4K

// normalizeKPTI requires a page-aligned trampoline inside the kernel
// image, so the victim always boots. An offset that is not a 2 MiB slot
// base still boots; the attack then finds no trampoline, which is a
// deterministic miss of the attack, not a malformed spec.
func normalizeKPTI(s *JobSpec) error {
	s.Trampoline = cmp.Or(s.Trampoline, linux.DefaultTrampolineOffset)
	if s.Trampoline%paging.Page4K != 0 || s.Trampoline > maxTrampoline {
		return fmt.Errorf("service: trampoline %#x is not a page-aligned offset in [0, %#x]", s.Trampoline, uint64(maxTrampoline))
	}
	return nil
}

func runKPTI(sess *session, s JobSpec, _ core.Options) (*Result, error) {
	res, err := core.KPTIBreak(sess.p, s.Trampoline)
	if err != nil {
		return nil, err
	}
	preset := sess.p.M.Preset
	return &Result{
		Correct:     res.Base == sess.kernel.Base,
		Base:        uint64(res.Base),
		ProbeSimSec: preset.CyclesToSeconds(res.ProbeCycles),
		TotalSimSec: preset.CyclesToSeconds(res.TotalCycles),
	}, nil
}

func runModules(sess *session, _ JobSpec, _ core.Options) (*Result, error) {
	p := sess.p
	if err := p.M.Fire(fault.Probe); err != nil {
		return nil, err
	}
	table := core.SizeTable(sess.kernel.ProcModules())
	res := core.Modules(p, table)
	score := core.ScoreModules(res, sess.kernel.Modules, table)
	regions := make([]Region, len(res.Regions))
	for i, r := range res.Regions {
		regions[i] = Region{Start: uint64(r.Base), End: uint64(r.End()), Class: strings.Join(r.Names, "|")}
	}
	return &Result{
		Correct:     score.DetectionAccuracy() >= 0.99,
		Regions:     regions,
		Accuracy:    score.DetectionAccuracy(),
		ProbeSimSec: p.M.Preset.CyclesToSeconds(res.ProbeCycles),
		TotalSimSec: p.M.Preset.CyclesToSeconds(res.TotalCycles),
	}, nil
}

func normalizeWindows(s *JobSpec) error {
	s.Drivers = cmp.Or(s.Drivers, 24)
	if s.Drivers < 0 {
		return fmt.Errorf("service: negative driver count %d", s.Drivers)
	}
	return nil
}

func runWindows(sess *session, _ JobSpec, _ core.Options) (*Result, error) {
	res, err := core.WindowsKernel(sess.p, winkernel.ImageSlots)
	if err != nil {
		return nil, err
	}
	preset := sess.p.M.Preset
	return &Result{
		Correct:     res.RegionBase == sess.win.Base,
		Base:        uint64(res.RegionBase),
		RunSlots:    res.RunSlots,
		ProbeSimSec: preset.CyclesToSeconds(res.ProbeCycles),
		TotalSimSec: preset.CyclesToSeconds(res.TotalCycles),
	}, nil
}

func normalizeUserScan(s *JobSpec) error {
	s.EntropyBits = cmp.Or(s.EntropyBits, 12)
	if s.EntropyBits < 1 || s.EntropyBits > userspace.EntropyBits {
		return fmt.Errorf("service: entropy_bits %d out of range [1, %d]", s.EntropyBits, userspace.EntropyBits)
	}
	return nil
}

// runUserScan scans the process's library area with the margins the
// sgxbreak example and cmd use, and fingerprints the libraries.
func runUserScan(sess *session, _ JobSpec, _ core.Options) (*Result, error) {
	p := sess.p
	if err := p.M.Fire(fault.Probe); err != nil {
		return nil, err
	}
	libs := sess.proc.Libs
	res := core.UserScan(p, libs[0].Base-16*paging.Page4K, libs[len(libs)-1].End()+8*paging.Page4K)
	regions := make([]Region, len(res.Regions))
	for i, r := range res.Regions {
		regions[i] = Region{Start: uint64(r.Start), End: uint64(r.End), Class: r.Class.String()}
	}
	found := core.FingerprintLibraries(res.Regions, userspace.StandardLibraries())
	fm := make(map[string]uint64, len(found))
	for name, va := range found {
		fm[name] = uint64(va)
	}
	correct := len(libs) > 0
	for _, lib := range libs {
		if fm[lib.Image.Name] != uint64(lib.Base) {
			correct = false
		}
	}
	return &Result{
		Correct:     correct,
		Regions:     regions,
		Found:       fm,
		ProbeSimSec: p.M.Preset.CyclesToSeconds(res.LoadCycles + res.StoreCycles),
		TotalSimSec: p.M.Preset.CyclesToSeconds(res.TotalCycles),
	}, nil
}

// cloudProviders maps JobSpec.Provider to its §IV-H scenario.
var cloudProviders = map[string]core.CloudProvider{"ec2": core.AmazonEC2, "gce": core.GoogleGCE, "azure": core.MicrosoftAzure}

func normalizeCloud(s *JobSpec) error {
	if _, ok := cloudProviders[s.Provider]; !ok {
		return fmt.Errorf("service: cloud job needs provider ec2|gce|azure, got %q", s.Provider)
	}
	return nil
}

// runCloud mounts the scenario end to end: its boot, prober and scoring
// live inside core.CloudBreak.
func runCloud(_ *session, s JobSpec, opt core.Options) (*Result, error) {
	prov := cloudProviders[s.Provider]
	res, err := core.CloudBreak(prov, s.Seed, core.CloudBreakOptions{AzureMaxSlot: s.AzureMaxSlot, Probe: opt})
	if err != nil {
		return nil, err
	}
	preset := core.Scenario(prov).Preset
	return &Result{
		Correct:       true, // CloudBreak verifies against ground truth internally
		Base:          uint64(res.KernelBase),
		ModulesFound:  res.ModulesFound,
		ViaTrampoline: res.ViaTrampoline,
		ProbeSimSec:   preset.CyclesToSeconds(res.BaseCycles),
		TotalSimSec:   preset.CyclesToSeconds(res.BaseCycles + res.ModuleCycles),
	}, nil
}

func normalizeSpy(s *JobSpec) error {
	if len(s.Targets) == 0 {
		s.Targets = []string{"bluetooth", "psmouse"}
	}
	if len(s.Targets) > core.MaxSpyTargets {
		return fmt.Errorf("service: %d spy targets, max %d", len(s.Targets), core.MaxSpyTargets)
	}
	// Targets must be watchable: the spy locates them with the module
	// attack, which only identifies uniquely-sized modules. Anything else —
	// a typo, or a module in the shared-size pool — would run against a
	// fabricated generic activity and return misleading traces.
	for _, name := range s.Targets {
		if !slices.Contains(linux.UniqueSizedModuleNames(), name) {
			return fmt.Errorf("service: target module %q is not uniquely identifiable (watchable: %s)",
				name, strings.Join(linux.UniqueSizedModuleNames(), ", "))
		}
	}
	s.DurationSec = cmp.Or(s.DurationSec, 20)
	if s.DurationSec < 0 {
		return fmt.Errorf("service: negative spy window %v", s.DurationSec)
	}
	if err := normalizeTick(s); err != nil {
		return err
	}
	// The window must be a whole number of ticks: the session advances its
	// timeline by DurationSec per job, so a fractional tick would make
	// consecutive windows overlap off-grid and break the window-k ==
	// direct-run-window-k contract. It must also be bounded — the executor
	// allocates one record per tick.
	ticks := s.DurationSec / s.TickSec
	if ticks > MaxJobTicks {
		return fmt.Errorf("service: spy window of %.0f ticks exceeds the %d-tick job bound", ticks, MaxJobTicks)
	}
	if math.Abs(ticks-math.Round(ticks)) > 1e-9*math.Max(ticks, 1) {
		return fmt.Errorf("service: duration_sec %v is not a whole number of %vs ticks", s.DurationSec, s.TickSec)
	}
	return nil
}

// normalizeTick defaults the temporal sampling interval to the paper's
// 1 Hz.
func normalizeTick(s *JobSpec) error {
	s.TickSec = cmp.Or(s.TickSec, 1)
	if s.TickSec < 0 {
		return fmt.Errorf("service: negative tick %v", s.TickSec)
	}
	return nil
}

// initSpy locates the watched modules and derives the victim's day from
// the spec (spyTimelines).
func initSpy(sess *session, s JobSpec, located core.ModulesResult) error {
	targets, err := core.LocateTargets(located, s.Targets...)
	if err != nil {
		return err
	}
	tls := spyTimelines(s)
	drv, err := behavior.NewDriver(sess.kernel, tls...)
	if err != nil {
		return err
	}
	drv.SetResolution(s.TickSec)
	sess.drv, sess.truth = drv, tls
	sess.spy = &core.BehaviorSpy{P: sess.p, Targets: targets, PagesPerModule: 10, TickSec: s.TickSec}
	return nil
}

// spyTimelines derives the spy victim's activity timelines from the spec:
// one unbounded bursty timeline per watched module, each drawing from its
// own source split off a spec-seeded parent. Per-timeline sources matter:
// the timelines extend lazily, so draws from one shared source would
// depend on which timeline extended first — with a split source each
// module's whole future is a pure function of (seed, target order), no
// matter when or in what order windows materialize it, and windows at any
// session depth observe real activity. Both the session builder and the
// parity suite's direct runs construct timelines here, so the ground truth
// cannot drift between them.
func spyTimelines(spec JobSpec) []*behavior.Timeline {
	r := rng.New(spec.Seed ^ 0xbe4a71e5)
	tls := make([]*behavior.Timeline, 0, len(spec.Targets))
	for _, name := range spec.Targets {
		tls = append(tls, behavior.UnboundedTimeline(activityFor(name), 12, 18, r.Split()))
	}
	return tls
}

// activityFor maps a watched module to the §IV-E activity that exercises
// it, with a generic 30 Hz activity for the other watchable modules
// (normalizeSpy rejects any target outside the uniquely-identifiable set,
// so the default case never fabricates activity for an unknown name).
func activityFor(module string) behavior.Activity {
	switch module {
	case "bluetooth":
		return behavior.BluetoothAudio()
	case "psmouse":
		return behavior.MouseMovement()
	case "usbhid":
		return behavior.Keystrokes()
	default:
		return behavior.Activity{Name: module, Module: module, PagesTouched: 6, EventHz: 30}
	}
}

func runSpy(sess *session, s JobSpec, _ core.Options) (*Result, error) {
	p := sess.p
	t0 := p.M.RDTSC()
	winStart := sess.nextT0
	winEnd := winStart + s.DurationSec
	traces, err := sess.spy.RunWindow(sess.drv, winStart, winEnd)
	if err != nil {
		return nil, err
	}
	probed := p.M.RDTSC() - t0
	acc := make(map[string]float64, len(traces))
	mean := 0.0
	for i, tr := range traces {
		a := tr.Accuracy(sess.truth[i])
		acc[tr.Module] = a
		mean += a
	}
	if len(traces) > 0 {
		mean /= float64(len(traces))
	}
	return &Result{
		Correct:        mean >= 0.9,
		Accuracy:       mean,
		TargetAccuracy: acc,
		WindowStartSec: winStart,
		WindowEndSec:   winEnd,
		ProbeSimSec:    p.M.Preset.CyclesToSeconds(probed),
		TotalSimSec:    p.M.Preset.CyclesToSeconds(probed),
	}, nil
}

func normalizeAppFingerprint(s *JobSpec) error {
	s.App = cmp.Or(s.App, "music-player")
	if !slices.ContainsFunc(core.StandardAppProfiles(), func(p core.AppProfile) bool { return p.Name == s.App }) {
		return fmt.Errorf("service: unknown app profile %q", s.App)
	}
	s.Ticks = cmp.Or(s.Ticks, 8)
	if s.Ticks < 0 {
		return fmt.Errorf("service: negative tick count %d", s.Ticks)
	}
	if s.Ticks > MaxJobTicks {
		return fmt.Errorf("service: %d ticks exceeds the %d-tick job bound", s.Ticks, MaxJobTicks)
	}
	return normalizeTick(s)
}

// initAppFingerprint watches the union of the profile population's modules
// — the spy must see which are active AND which are idle to classify — and
// keeps the victim app's modules active for the whole (unbounded) session.
func initAppFingerprint(sess *session, s JobSpec, located core.ModulesResult) error {
	watch := make(map[string]linux.LoadedModule)
	var truthProf core.AppProfile
	for _, prof := range core.StandardAppProfiles() {
		if prof.Name == s.App {
			truthProf = prof
		}
		for _, mn := range prof.Modules {
			// Profiles name modules as "alias:real".
			name := mn[strings.IndexByte(mn, ':')+1:]
			if _, ok := watch[name]; ok {
				continue
			}
			targets, err := core.LocateTargets(located, name)
			if err != nil {
				return err
			}
			watch[name] = targets[0]
		}
	}
	drv, err := behavior.NewDriver(sess.kernel, core.TimelinesFor(truthProf, math.Inf(1))...)
	if err != nil {
		return err
	}
	drv.SetResolution(s.TickSec)
	sess.drv = drv
	sess.fp = &core.AppFingerprinter{
		P:        sess.p,
		Watch:    watch,
		Ticks:    s.Ticks,
		TickSec:  s.TickSec,
		Profiles: core.StandardAppProfiles(),
	}
	return nil
}

func runAppFingerprint(sess *session, s JobSpec, _ core.Options) (*Result, error) {
	p := sess.p
	t0 := p.M.RDTSC()
	winStart := sess.nextT0
	got, err := sess.fp.ClassifyFrom(sess.drv, winStart)
	// An unmatched active set is an attack outcome: an incorrect
	// classification (got is the zero profile). Any other error means the
	// window was not observed.
	if err != nil && !errors.Is(err, core.ErrNoProfileMatch) {
		return nil, err
	}
	probed := p.M.RDTSC() - t0
	return &Result{
		Correct:        got.Name == s.App,
		App:            got.Name,
		WindowStartSec: winStart,
		WindowEndSec:   winStart + float64(s.Ticks)*s.TickSec,
		ProbeSimSec:    p.M.Preset.CyclesToSeconds(probed),
		TotalSimSec:    p.M.Preset.CyclesToSeconds(probed),
	}, nil
}

func normalizeDefense(s *JobSpec) error {
	d := defenseOf(s.Defense)
	if d == nil {
		return fmt.Errorf("service: defenseeval job needs defense %s, got %q", strings.Join(Defenses(), "|"), s.Defense)
	}
	// Deriving the boot flags from the defense means the victim key, the
	// boot and the attack can never disagree (a flare evaluation of an
	// undefended boot would be meaningless).
	s.FLARE, s.FGKASLR = d.flare, d.fgkaslr
	if d.fgkaslr {
		s.Function = cmp.Or(s.Function, "tcp_sendmsg")
		if !linux.KnownKernelFunction(s.Function) {
			return fmt.Errorf("service: unknown kernel function %q", s.Function)
		}
	} else if s.Function != "" {
		return fmt.Errorf("service: function is only meaningful for defense fgkaslr")
	}
	if !d.sweep && len(s.RerandPeriodsSec) > 0 {
		return fmt.Errorf("service: rerand_periods_sec is only meaningful for defense rerand")
	}
	if len(s.RerandPeriodsSec) > MaxRerandSweepPeriods {
		return fmt.Errorf("service: %d sweep periods, max %d", len(s.RerandPeriodsSec), MaxRerandSweepPeriods)
	}
	for _, p := range s.RerandPeriodsSec {
		if p <= 0 {
			return fmt.Errorf("service: non-positive rerand period %v", p)
		}
	}
	return nil
}

// runDefense runs one §V countermeasure evaluation on the session's
// defense-configured victim. The session restore already rewound the
// machine to its post-calibration checkpoint (the state a fresh
// defense.Evaluate* boot-and-calibrate produces), so each attack body is
// bit-identical to the direct evaluation at the same seed.
func runDefense(sess *session, s JobSpec, _ core.Options) (*Result, error) {
	p := sess.p
	if err := p.M.Fire(fault.Probe); err != nil {
		return nil, err
	}
	t0 := p.M.RDTSC()
	res := &Result{Defense: s.Defense}
	if err := defenseOf(s.Defense).run(sess, s, res); err != nil {
		return nil, err
	}
	total := p.M.Preset.CyclesToSeconds(p.M.RDTSC() - t0)
	if res.ProbeSimSec == 0 {
		res.ProbeSimSec = total
	}
	res.TotalSimSec = total
	return res, nil
}

// runFLARE: §V-A — FLARE erases the page-table signal, but the TLB attack
// still recovers the base.
func runFLARE(sess *session, _ JobSpec, res *Result) error {
	out := defense.FlareAttack(sess.p, sess.kernel)
	res.Bypassed = out.Bypassed()
	res.PageSignal = out.PageTableDistinguishes
	res.Base = uint64(out.TLBBaseFound)
	res.Correct = !out.PageTableDistinguishes && out.Bypassed()
	return nil
}

// runFGKASLR: §V-A — the offset moves, yet the template attack still
// finds it.
func runFGKASLR(sess *session, s JobSpec, res *Result) error {
	out, err := defense.FGKASLRAttack(sess.p, sess.kernel, s.Seed, s.Function)
	if err != nil {
		return err
	}
	res.Bypassed = out.Bypassed()
	res.OffsetStable = out.OffsetStable
	res.Base = uint64(out.TemplateFoundPage)
	res.Correct = out.Bypassed() && !out.OffsetStable
	return nil
}

// runRerand: §V-A — re-randomization works, the recovered base goes
// stale. With RerandPeriodsSec set it also sweeps exploitation windows.
func runRerand(sess *session, s JobSpec, res *Result) error {
	out, err := defense.RerandAttack(sess.p, sess.kernel, s.Seed)
	if err != nil {
		return err
	}
	res.StaleHit = out.StaleHit
	res.Base = uint64(out.RecoveredBase)
	res.Correct = !out.StaleHit
	if len(s.RerandPeriodsSec) == 0 {
		return nil
	}
	// The sweep reruns the base attack from the same checkpoint the
	// staleness check used, so its runtime is the same pure function of
	// the session state.
	if err := restoreSession(sess); err != nil {
		return err
	}
	pts, attackSec, err := defense.RerandSweep(sess.p, sess.kernel, s.RerandPeriodsSec)
	if err != nil {
		return err
	}
	res.RerandSweep = make([]RerandPoint, len(pts))
	for i, pt := range pts {
		res.RerandSweep[i] = RerandPoint{PeriodSec: pt.PeriodSec, WindowSec: pt.WindowSec, Exploitable: pt.Exploitable}
		if pt.Exploitable != (pt.WindowSec > 0) {
			res.Correct = false
		}
	}
	res.ProbeSimSec = attackSec
	return nil
}

// runMaskedOp: §V-B — the mitigation touches 6 of 4104 Ubuntu
// executables.
func runMaskedOp(_ *session, _ JobSpec, res *Result) error {
	pop := defense.UbuntuDefaultPopulation()
	res.AffectedExecutables = pop.UsingMaskedOps
	res.TotalExecutables = pop.TotalExecutables
	res.Correct = pop.UsingMaskedOps == 6 && pop.TotalExecutables == 4104
	return nil
}
