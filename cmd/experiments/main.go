// Command experiments regenerates every table and figure of the paper, and
// the ablations of the attack's design choices, on the simulator and prints
// paper-vs-measured reports with shape verdicts. -only selects the
// experiments whose report ID contains its value.
//
// Usage:
//
//	experiments [-scale default|paper] [-only "Fig. 4"] [-seed N] [-workers N]
//
// The default scale finishes in seconds; -scale paper runs the paper's
// trial counts (n=10000 for Table I) and takes minutes.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/experiments"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one parsed invocation.
type config struct {
	scale experiments.Scale
	only  string
}

// parseFlags resolves args into the experiment configuration — split out
// so tests can verify the flag plumbing (scale, seed override, workers,
// session pool) without running experiments.
func parseFlags(args []string, errw io.Writer) (config, error) {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(errw)
	scaleFlag := fs.String("scale", "default", "experiment scale: default or paper")
	only := fs.String("only", "", "run only experiments whose ID contains this substring")
	seed := fs.Uint64("seed", 0, "override the experiment seed (0 keeps the scale's default)")
	workers := fs.Int("workers", 0, "scan-engine workers for the big VA sweeps (0 = sequential, negative = all CPUs)")
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}

	var sc experiments.Scale
	switch *scaleFlag {
	case "default":
		sc = experiments.DefaultScale()
	case "paper":
		sc = experiments.PaperScale()
	default:
		return config{}, fmt.Errorf("unknown scale %q", *scaleFlag)
	}
	if *seed != 0 {
		sc.Seed = *seed
	}
	sc.Workers = *workers
	// One worker pool for the whole run: every experiment's scans share the
	// same machine replicas.
	sc.Pool = core.NewScanPool()
	return config{scale: sc, only: *only}, nil
}

// selected returns the entries of experiments.Experiments whose ID contains
// only (every entry when only is empty), in report order.
func selected(only string) []experiments.Experiment {
	var out []experiments.Experiment
	for _, e := range experiments.Experiments {
		if strings.Contains(e.ID, only) {
			out = append(out, e)
		}
	}
	return out
}

// run executes the selected experiments and returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	cfg, err := parseFlags(args, stderr)
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		fmt.Fprintf(stderr, "%v\n", err)
		return 2
	}

	exps := selected(cfg.only)
	if len(exps) == 0 {
		fmt.Fprintf(stderr, "no experiment matches -only=%q\n", cfg.only)
		return 2
	}
	failures := 0
	for _, e := range exps {
		rep := e.Run(cfg.scale)
		fmt.Fprintln(stdout, rep.String())
		fmt.Fprintln(stdout)
		if !rep.OK {
			failures++
		}
	}
	fmt.Fprintf(stdout, "%d/%d experiments reproduce the paper's shape\n", len(exps)-failures, len(exps))
	if failures > 0 {
		return 1
	}
	return 0
}
