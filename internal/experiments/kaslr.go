package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/linux"
	"repro/internal/machine"
	"repro/internal/paging"
	"repro/internal/trace"
	"repro/internal/uarch"
)

// Fig4KernelBaseScan reproduces Figure 4: the 512-offset probe scatter on
// Alder Lake, with kernel-mapped pages around 93 cycles, unmapped around
// 107, and the base at the first fast offset.
func Fig4KernelBaseScan(sc Scale) Report {
	m := machine.New(uarch.AlderLake12400F(), sc.Seed)
	k, err := linux.Boot(m, linux.Config{Seed: sc.Seed + 4})
	if err != nil {
		return Report{ID: "Fig. 4", Measured: err.Error()}
	}
	p, err := core.NewProber(m, sc.proberOptions())
	if err != nil {
		return Report{ID: "Fig. 4", Measured: err.Error()}
	}
	res, err := core.KernelBase(p)
	if err != nil {
		return Report{ID: "Fig. 4", Measured: err.Error()}
	}

	mapped := &trace.Series{Name: "kernel mapped"}
	unmapped := &trace.Series{Name: "unmapped"}
	var mappedMean, unmappedMean float64
	var nm, nu int
	for _, s := range res.Samples {
		y := s.Cycles - m.Preset.FenceOverhead
		if y > 140 {
			y = 140 // clip interrupt spikes for the plot, as the paper does
		}
		if s.Mapped {
			mapped.Add(float64(s.Slot), y)
			mappedMean += y
			nm++
		} else {
			unmapped.Add(float64(s.Slot), y)
			unmappedMean += y
			nu++
		}
	}
	if nm > 0 {
		mappedMean /= float64(nm)
	}
	if nu > 0 {
		unmappedMean /= float64(nu)
	}
	plot := trace.NewPlot(
		fmt.Sprintf("Fig. 4 — kernel offsets scan; base %#x (slide %#x)", uint64(res.Base), res.Slide),
		"kernel offset (2 MiB slots)", "access time (cycles)")
	plot.AddSeries(unmapped, '.')
	plot.AddSeries(mapped, 'o')

	ok := res.Base == k.Base && within(mappedMean, 93, 5) && within(unmappedMean, 107, 5)
	return Report{
		ID:         "Fig. 4",
		Title:      "512-offset kernel scan (i5-12400F)",
		PaperClaim: "mapped ≈93, unmapped ≈107 cycles; base identified without false positives",
		Measured: fmt.Sprintf("mapped %.0f, unmapped %.0f cycles; base %#x (%s)",
			mappedMean, unmappedMean, uint64(res.Base), verdict(res.Base == k.Base)),
		OK:   ok,
		Text: plot.Render(),
	}
}

// Table1 reproduces Table I: derandomization runtime and accuracy for the
// kernel base and modules on the i5-12400F and i7-1065G7, and the base on
// the AMD R5 5600X.
func Table1(sc Scale) Report {
	tab := &trace.Table{Header: []string{"CPU (setting, launch)", "target", "probing", "total", "accuracy", "paper probing/total/acc"}}
	type row struct {
		preset  *uarch.Preset
		target  string
		modules bool
		paper   string
		// paper's runtime bounds for the shape check (total seconds).
		totalLo, totalHi float64
		accLo            float64
	}
	rows := []row{
		{uarch.AlderLake12400F(), "Base", false, "67µs / 0.28ms / 99.60%", 20e-6, 2e-3, 0.985},
		{uarch.AlderLake12400F(), "Modules", true, "2.43ms / 2.62ms / 99.84%", 0.5e-3, 15e-3, 0.985},
		{uarch.IceLake1065G7(), "Base", false, "0.26ms / 0.57ms / 99.29%", 50e-6, 4e-3, 0.98},
		{uarch.IceLake1065G7(), "Modules", true, "8.42ms / 8.64ms / 99.72%", 2e-3, 40e-3, 0.98},
		{uarch.Zen3_5600X(), "Base", false, "1.91ms / 2.90ms / 99.48%", 0.5e-3, 15e-3, 0.98},
	}
	ok := true
	var measured []string
	for _, r := range rows {
		var rep core.TrialReport
		var err error
		if r.modules {
			rep, err = core.EvaluateModules(r.preset, sc.TrialsModules, sc.Seed, sc.proberOptions())
		} else {
			rep, err = core.EvaluateKernelBase(r.preset, sc.TrialsBase, sc.Seed, sc.proberOptions())
		}
		if err != nil {
			return Report{ID: "Table I", Measured: err.Error()}
		}
		tab.AddRow(
			fmt.Sprintf("%s (%s, %s)", r.preset.Name, r.preset.Setting, r.preset.Launch),
			r.target,
			fmtSec(rep.ProbeSec), fmtSec(rep.TotalSec),
			fmt.Sprintf("%.2f%%", 100*rep.Accuracy()),
			r.paper,
		)
		measured = append(measured, fmt.Sprintf("%s/%s: %.2f%%", shortName(r.preset.Name), r.target, 100*rep.Accuracy()))
		if rep.Accuracy() < r.accLo || rep.TotalSec < r.totalLo || rep.TotalSec > r.totalHi {
			ok = false
		}
	}
	return Report{
		ID:         "Table I",
		Title:      fmt.Sprintf("KASLR derandomization runtime and accuracy (n=%d base / %d modules)", sc.TrialsBase, sc.TrialsModules),
		PaperClaim: "sub-3ms attacks at 99.3–99.8% accuracy across Intel and AMD",
		Measured:   strings.Join(measured, "; "),
		OK:         ok,
		Text:       tab.Render(),
	}
}

// Fig5ModuleIdent reproduces Figure 5 and §IV-C: detect all loaded-module
// regions on the Ice Lake machine, classify them by size, and verify the
// named examples — autofs4/x_tables collide at 0xB000 while video, mac_hid
// and pinctrl_icelake are uniquely identified.
func Fig5ModuleIdent(sc Scale) Report {
	m := machine.New(uarch.IceLake1065G7(), sc.Seed)
	k, err := linux.Boot(m, linux.Config{Seed: sc.Seed + 5})
	if err != nil {
		return Report{ID: "Fig. 5", Measured: err.Error()}
	}
	p, err := core.NewProber(m, sc.proberOptions())
	if err != nil {
		return Report{ID: "Fig. 5", Measured: err.Error()}
	}
	table := core.SizeTable(k.ProcModules())
	res := core.Modules(p, table)
	score := core.ScoreModules(res, k.Modules, table)

	// Count unique sizes in the DB for the §IV-C claim (19 of 125).
	uniqueSizes := 0
	for _, names := range table {
		if len(names) == 1 {
			uniqueSizes++
		}
	}

	tab := &trace.Table{Header: []string{"module", "size", "expected", "got"}}
	checks := []struct {
		name   string
		unique bool
	}{
		{"autofs4", false}, {"x_tables", false},
		{"video", true}, {"mac_hid", true}, {"pinctrl_icelake", true},
	}
	ok := score.DetectionAccuracy() >= 0.98 && score.UniqueSize == 19 && score.Total == 125
	for _, c := range checks {
		lm, _ := k.Module(c.name)
		var got string
		for _, r := range res.Regions {
			if r.Base == lm.Base {
				got = strings.Join(r.Names, "|")
				wantUnique := c.unique
				if r.Unique() != wantUnique || (wantUnique && r.Names[0] != c.name) {
					ok = false
				}
			}
		}
		exp := "ambiguous (size collision)"
		if c.unique {
			exp = "unique"
		}
		tab.AddRow(c.name, fmt.Sprintf("%#x", lm.Size), exp, got)
	}
	return Report{
		ID:         "Fig. 5",
		Title:      "Kernel-module detection and size classification (i7-1065G7)",
		PaperClaim: "125 modules, 19 uniquely sized; autofs4/x_tables indistinguishable; video/mac_hid/pinctrl_icelake identified; 99.72% accuracy",
		Measured: fmt.Sprintf("%d modules, %d uniquely sized, detection %.2f%%, %d regions found",
			score.Total, score.UniqueSize, 100*score.DetectionAccuracy(), len(res.Regions)),
		OK:   ok,
		Text: tab.Render(),
	}
}

// Sec4dKPTI reproduces §IV-D: on a KPTI kernel booted with nokaslr, the
// only user-visible kernel mapping is the trampoline at base+0xc00000;
// with KASLR on, subtracting the known offset recovers the base.
func Sec4dKPTI(sc Scale) Report {
	// Phase 1: nokaslr boot confirms the trampoline's constant offset.
	m1 := machine.New(uarch.AlderLake12400F(), sc.Seed)
	if _, err := linux.Boot(m1, linux.Config{Seed: sc.Seed + 6, KPTI: true, NoKASLR: true}); err != nil {
		return Report{ID: "§IV-D", Measured: err.Error()}
	}
	p1, err := core.NewProber(m1, sc.proberOptions())
	if err != nil {
		return Report{ID: "§IV-D", Measured: err.Error()}
	}
	r1, err := core.KPTIBreak(p1, linux.DefaultTrampolineOffset)
	if err != nil {
		return Report{ID: "§IV-D", Measured: err.Error()}
	}
	confirmOK := r1.TrampolineVA == linux.NoKASLRBase+paging.VirtAddr(linux.DefaultTrampolineOffset)

	// Phase 2: KASLR boot; recover the randomized base via the offset.
	m2 := machine.New(uarch.AlderLake12400F(), sc.Seed+100)
	k2, err := linux.Boot(m2, linux.Config{Seed: sc.Seed + 7, KPTI: true})
	if err != nil {
		return Report{ID: "§IV-D", Measured: err.Error()}
	}
	p2, err := core.NewProber(m2, sc.proberOptions())
	if err != nil {
		return Report{ID: "§IV-D", Measured: err.Error()}
	}
	r2, err := core.KPTIBreak(p2, linux.DefaultTrampolineOffset)
	if err != nil {
		return Report{ID: "§IV-D", Measured: err.Error()}
	}
	ok := confirmOK && r2.Base == k2.Base
	return Report{
		ID:         "§IV-D",
		Title:      "KASLR break with KPTI enabled (trampoline probing)",
		PaperClaim: "fast timing appears at 0xffffffff81c00000 under nokaslr (trampoline offset 0xc00000); KASLR broken via the known offset",
		Measured: fmt.Sprintf("nokaslr trampoline at %#x (%s); KASLR base %#x (%s)",
			uint64(r1.TrampolineVA), verdict(confirmOK), uint64(r2.Base), verdict(r2.Base == k2.Base)),
		OK: ok,
	}
}

func verdict(ok bool) string {
	if ok {
		return "correct"
	}
	return "WRONG"
}

func fmtSec(s float64) string {
	switch {
	case s < 1e-3:
		return fmt.Sprintf("%.2gµs", s*1e6)
	case s < 1:
		return fmt.Sprintf("%.3gms", s*1e3)
	default:
		return fmt.Sprintf("%.3gs", s)
	}
}

func shortName(s string) string {
	if i := strings.LastIndex(s, " "); i >= 0 {
		return s[i+1:]
	}
	return s
}
