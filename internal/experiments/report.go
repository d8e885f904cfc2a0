// Package experiments regenerates every table and figure of the paper's
// evaluation on the simulator, plus ablations of the attack's design
// choices, from one list (Experiments). Each experiment returns a Report
// holding the rendered output, the paper's claim, the measured value and a
// shape check — testdata/paper.golden records the test-scale reports, each
// one's paper claim beside the measured value.
//
// Experiments whose paper-scale parameters are hostile to CI accept a
// Scale; DefaultScale keeps everything under a few seconds, PaperScale
// reproduces the full parameters.
package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
)

// Report is one experiment's outcome.
type Report struct {
	// ID is the paper artifact ("Fig. 2", "Table I", "§IV-D"...).
	ID string
	// Title is a one-line description.
	Title string
	// PaperClaim summarizes what the paper reports.
	PaperClaim string
	// Measured summarizes what this run measured.
	Measured string
	// OK reports the shape check: the qualitative result (who wins, which
	// classes separate, where the crossover falls) matches the paper.
	OK bool
	// Text is the full rendered output (tables, ASCII plots).
	Text string
}

// String renders the report header and body.
func (r Report) String() string {
	status := "SHAPE OK"
	if !r.OK {
		status = "SHAPE MISMATCH"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s — %s [%s]\n", r.ID, r.Title, status)
	fmt.Fprintf(&b, "paper:    %s\n", r.PaperClaim)
	fmt.Fprintf(&b, "measured: %s\n", r.Measured)
	if r.Text != "" {
		b.WriteString(r.Text)
	}
	return b.String()
}

// Experiment is one entry of the paper report: the ID its Report carries
// and the function that runs it.
type Experiment struct {
	ID  string
	Run func(Scale) Report
}

// Experiments lists every experiment in report order. All runs it and
// cmd/experiments filters it, so each ID is typed once.
var Experiments = []Experiment{
	{"Fig. 1", Fig1FaultSuppression},
	{"Fig. 2", Fig2PageTypes},
	{"§III-B levels", Fig2bPageTableLevels},
	{"§III-B TLB", Fig2cTLBState},
	{"Fig. 3", Fig3Permissions},
	{"§III-B P6", Fig3bLoadVsStore},
	{"Fig. 4", Fig4KernelBaseScan},
	{"Table I", Table1},
	{"Fig. 5", Fig5ModuleIdent},
	{"§IV-D", Sec4dKPTI},
	{"Fig. 6", Fig6BehaviorSpy},
	{"Fig. 7 / §IV-F", Fig7SGXFineGrained},
	{"§IV-G", Sec4gWindows},
	{"§IV-H", Sec4hCloud},
	{"§V", Sec5Defenses},
	{"baselines", BaselineComparison},
	{"ablations", Ablations},
}

// All runs every experiment at the given scale, in report order.
func All(sc Scale) []Report {
	reports := make([]Report, len(Experiments))
	for i, e := range Experiments {
		reports[i] = e.Run(sc)
	}
	return reports
}

// Scale sets experiment sizes.
type Scale struct {
	// Samples is the per-point sample count for the micro experiments.
	Samples int
	// TrialsBase / TrialsModules are the Table I trial counts (paper:
	// 10000 each).
	TrialsBase    int
	TrialsModules int
	// UserEntropyBits is the §IV-F scan entropy (paper: 28).
	UserEntropyBits int
	// AzureMaxSlot bounds the Azure/Windows slide (paper: full 2^18).
	AzureMaxSlot int
	// KVASMaxSlot bounds the KVAS 4 KiB scan window in slots.
	KVASMaxSlot int
	// BehaviorSeconds is the Fig. 6 observation window (paper: 100 s).
	BehaviorSeconds float64
	// Seed makes every experiment deterministic.
	Seed uint64
	// Workers routes the big VA scans through the sharded parallel scan
	// engine with that many worker replicas (0 runs the same engine
	// semantics inline, sequentially). Results are deterministic for a
	// fixed seed at any worker count; only host wall-clock changes.
	Workers int
	// Pool is the session-persistent worker pool shared by every scan in
	// the run (set once by the caller; nil gives each prober its own pool
	// on its first sharded scan). Results do not depend on the pool.
	Pool *core.ScanPool
}

// proberOptions is the prober configuration every experiment shares: the
// scan-engine worker count and the session worker pool.
func (s Scale) proberOptions() core.Options {
	return core.Options{Workers: s.Workers, Pool: s.Pool}
}

// DefaultScale is CI-friendly: every experiment finishes in seconds.
func DefaultScale() Scale {
	return Scale{
		Samples:         1000,
		TrialsBase:      200,
		TrialsModules:   25,
		UserEntropyBits: 16,
		AzureMaxSlot:    20000,
		KVASMaxSlot:     2048,
		BehaviorSeconds: 100,
		Seed:            0x5eed,
	}
}

// PaperScale reproduces the paper's parameters where feasible (the 28-bit
// user scan remains capped at 24 bits; its report extrapolates the runtime
// to 28 bits).
func PaperScale() Scale {
	s := DefaultScale()
	s.TrialsBase = 10000
	s.TrialsModules = 1000
	s.UserEntropyBits = 24
	s.AzureMaxSlot = 0 // full region
	s.KVASMaxSlot = 16384
	return s
}
