package main

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// Flag plumbing: -workers and -seed must land in the Scale, and every run
// must get a session pool.
func TestParseFlagsPlumbing(t *testing.T) {
	cfg, err := parseFlags([]string{"-workers", "3", "-seed", "99", "-only", "Fig. 1"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.scale.Workers != 3 {
		t.Fatalf("scale workers = %d, want 3", cfg.scale.Workers)
	}
	if cfg.scale.Seed != 99 {
		t.Fatalf("scale seed = %d, want 99", cfg.scale.Seed)
	}
	if cfg.scale.Pool == nil {
		t.Fatal("no session pool in scale")
	}
	if cfg.only != "Fig. 1" {
		t.Fatalf("only = %q", cfg.only)
	}
	if _, err := parseFlags([]string{"-scale", "nope"}, io.Discard); err == nil {
		t.Fatal("bad scale accepted")
	}
}

// A cheap experiment must run end to end through the CLI path, inline and
// with sharded sweeps.
func TestRunSingleExperiment(t *testing.T) {
	for _, workers := range []string{"0", "2"} {
		var out, errw bytes.Buffer
		code := run([]string{"-only", "Fig. 1", "-workers", workers}, &out, &errw)
		if code != 0 {
			t.Fatalf("workers=%s: exit %d\nstdout: %s\nstderr: %s", workers, code, out.String(), errw.String())
		}
		if !strings.Contains(out.String(), "1/1 experiments reproduce") {
			t.Fatalf("workers=%s: unexpected summary:\n%s", workers, out.String())
		}
	}
}

// An -only filter matching nothing must fail with a clear message.
func TestRunNoMatch(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run([]string{"-only", "Fig. 99"}, &out, &errw); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(errw.String(), "no experiment matches") {
		t.Fatalf("stderr: %s", errw.String())
	}
}

// Every report ID, passed as -only, must select exactly its own entry, so
// the ID a report header prints is always a working filter.
func TestOnlySelectsEveryTableID(t *testing.T) {
	for _, e := range experiments.Experiments {
		got := selected(e.ID)
		if len(got) != 1 || got[0].ID != e.ID {
			var ids []string
			for _, g := range got {
				ids = append(ids, g.ID)
			}
			t.Errorf("-only %q selects %q", e.ID, ids)
		}
	}
	if n := len(selected("")); n != len(experiments.Experiments) {
		t.Fatalf("empty -only selects %d of %d experiments", n, len(experiments.Experiments))
	}
	if got := selected("§IV-F"); len(got) != 1 || got[0].ID != "Fig. 7 / §IV-F" {
		t.Fatalf("-only §IV-F selects %d entries, want only Fig. 7 / §IV-F", len(got))
	}
}

// The ablations report runs end to end through the CLI and holds.
func TestRunAblations(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run([]string{"-only", "ablations"}, &out, &errw); code != 0 {
		t.Fatalf("exit %d\nstdout: %s\nstderr: %s", code, out.String(), errw.String())
	}
	if !strings.Contains(out.String(), "1/1 experiments reproduce") {
		t.Fatalf("unexpected summary:\n%s", out.String())
	}
}
