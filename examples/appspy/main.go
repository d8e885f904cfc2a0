// Appspy: application fingerprinting via driver-module TLB state — the
// extension §IV-E predicts ("fingerprint applications or websites"). Each
// candidate application exercises a characteristic set of kernel modules
// (a music player keeps bluetooth busy; a shooter drives psmouse+usbhid);
// the spy watches the modules' TLB residency and classifies the foreground
// app by the active set.
//
// Run: go run ./examples/appspy
package main

import (
	"fmt"
	"log"
	"os"
	"runtime"
	"strings"

	"repro/internal/behavior"
	"repro/internal/core"
	"repro/internal/linux"
	"repro/internal/machine"
	"repro/internal/uarch"
)

func main() {
	profiles := core.StandardAppProfiles()
	fmt.Println("candidate applications:")
	for _, prof := range profiles {
		mods := strings.Join(prof.Modules, ", ")
		if mods == "" {
			mods = "(none)"
		}
		fmt.Printf("  %-14s drives: %s\n", prof.Name, mods)
	}
	fmt.Println()

	// One session pool for the whole run: each candidate app boots a fresh
	// victim, but the module-region sweeps all reuse the same worker
	// replicas via machine.Rebind instead of re-cloning them per victim.
	pool := core.NewScanPool()

	correct := 0
	for _, truth := range profiles {
		m := machine.New(uarch.IceLake1065G7(), 21)
		kernel, err := linux.Boot(m, linux.Config{Seed: 21})
		if err != nil {
			log.Fatal(err)
		}
		prober, err := core.NewProber(m, core.Options{Workers: runtime.NumCPU(), Pool: pool})
		if err != nil {
			log.Fatal(err)
		}

		// Locate the watched modules with the module attack (every module
		// the profiles reference has a unique size on this victim).
		watch, err := core.LocateWatch(core.Modules(prober, core.SizeTable(kernel.ProcModules())), profiles)
		if err != nil {
			log.Fatal(err)
		}

		// The victim runs the true app for a minute; the spy classifies.
		drv, err := behavior.NewDriver(kernel, core.TimelinesFor(truth, 60)...)
		if err != nil {
			log.Fatal(err)
		}
		spy := &core.AppFingerprinter{P: prober, Watch: watch, Profiles: profiles, Ticks: 8}
		got, err := spy.ClassifyFrom(drv, 0)
		verdict := "WRONG"
		if err == nil && got.Name == truth.Name {
			verdict = "correct"
			correct++
		}
		gotName := "(no match)"
		if err == nil {
			gotName = got.Name
		}
		fmt.Printf("victim runs %-14s → spy says %-14s [%s]\n", truth.Name, gotName, verdict)
	}
	fmt.Printf("\n%d/%d applications fingerprinted correctly\n", correct, len(profiles))
	if correct != len(profiles) {
		os.Exit(1)
	}
}
