package experiments

import (
	"flag"
	"os"
	"strings"
	"testing"
)

var updatePaper = flag.Bool("update-paper", false, "rewrite testdata/paper.golden from the current code")

func TestScaleDefaults(t *testing.T) {
	sc := DefaultScale()
	if sc.Samples <= 0 || sc.TrialsBase <= 0 || sc.TrialsModules <= 0 {
		t.Fatalf("zero defaults: %+v", sc)
	}
	if sc.UserEntropyBits <= 0 || sc.UserEntropyBits > 28 {
		t.Fatalf("entropy %d", sc.UserEntropyBits)
	}
	if sc.BehaviorSeconds != 100 {
		t.Fatalf("behavior window %v, want the paper's 100 s", sc.BehaviorSeconds)
	}
}

func TestPaperScaleMatchesPaper(t *testing.T) {
	sc := PaperScale()
	if sc.TrialsBase != 10000 {
		t.Fatalf("paper trials %d, want 10000 (Table I)", sc.TrialsBase)
	}
	if sc.AzureMaxSlot != 0 {
		t.Fatal("paper scale must scan the full Azure region")
	}
	if sc.UserEntropyBits <= DefaultScale().UserEntropyBits {
		t.Fatal("paper scale should raise the user-scan entropy")
	}
}

func TestReportString(t *testing.T) {
	r := Report{
		ID: "Fig. X", Title: "test", PaperClaim: "a", Measured: "b", OK: true,
		Text: "body\n",
	}
	s := r.String()
	for _, want := range []string{"Fig. X", "SHAPE OK", "paper:    a", "measured: b", "body"} {
		if !strings.Contains(s, want) {
			t.Errorf("report missing %q:\n%s", want, s)
		}
	}
	r.OK = false
	if !strings.Contains(r.String(), "SHAPE MISMATCH") {
		t.Error("mismatch verdict missing")
	}
}

// TestAllRunsEveryExperiment runs the whole suite at test scale, checks
// every shape verdict, and compares the concatenated reports against
// testdata/paper.golden, so a behaviour change shows as the paper numbers
// that moved. Regenerate on purpose with
// go test ./internal/experiments -run TestAllRunsEveryExperiment -update-paper.
func TestAllRunsEveryExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full suite")
	}
	sc := testScale()
	reports := All(sc)
	if len(reports) != 17 {
		t.Fatalf("All ran %d experiments, want 17", len(reports))
	}
	seen := map[string]bool{}
	var paper strings.Builder
	for i, r := range reports {
		paper.WriteString(r.String())
		paper.WriteString("\n")
		if r.ID == "" {
			t.Fatal("experiment without ID")
		}
		if r.ID != Experiments[i].ID {
			t.Errorf("experiment %q reports ID %q", Experiments[i].ID, r.ID)
		}
		if seen[r.ID] {
			t.Fatalf("duplicate experiment ID %q", r.ID)
		}
		seen[r.ID] = true
		if !r.OK {
			t.Errorf("%s: %s", r.ID, r.Measured)
		}
	}
	got := paper.String()
	if *updatePaper {
		if err := os.WriteFile("testdata/paper.golden", []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile("testdata/paper.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("line %d differs from testdata/paper.golden\nwant: %s\ngot:  %s", i+1, wl[i], gl[i])
			}
		}
		t.Fatalf("paper report has %d lines, testdata/paper.golden %d", len(gl), len(wl))
	}
}

func TestExperimentsDeterministic(t *testing.T) {
	sc := testScale()
	a := Fig4KernelBaseScan(sc)
	b := Fig4KernelBaseScan(sc)
	if a.Measured != b.Measured {
		t.Fatalf("same seed, different results:\n%s\n%s", a.Measured, b.Measured)
	}
}
