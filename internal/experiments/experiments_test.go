package experiments

import (
	"bytes"
	"strings"
	"testing"
)

// tinyCfg keeps experiment smoke tests fast: small table, small samples,
// few queries. Full-size runs happen in cmd/dbest-bench and bench_test.go.
var tinyCfg = Config{
	Rows:        30_000,
	SampleSizes: []int{1000, 4000},
	PerAF:       3,
	Seed:        1,
}

func TestRegistryComplete(t *testing.T) {
	// Every figure the README's "Reproducing the paper's evaluation" lists
	// must be registered.
	want := []string{
		"fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
		"fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16",
		"fig17", "fig18", "fig19", "fig20", "fig21", "fig23a", "fig23b",
		"fig25", "fig26", "fig27", "fig28", "fig29", "bundles", "ablation",
	}
	have := map[string]bool{}
	for _, id := range IDs() {
		have[id] = true
		if Describe(id) == "" {
			t.Errorf("experiment %s has no description", id)
		}
	}
	for _, id := range want {
		if !have[id] {
			t.Errorf("experiment %s not registered", id)
		}
	}
	if len(have) != len(want) {
		t.Errorf("registry has %d experiments, want %d", len(have), len(want))
	}
}

func TestRunUnknown(t *testing.T) {
	if _, err := Run("fig999", tinyCfg); err == nil {
		t.Fatal("want error for unknown experiment")
	}
}

func TestNormalizeDefaults(t *testing.T) {
	c := Config{}.Normalize()
	if c.Rows <= 0 || c.Scale != 1 || len(c.SampleSizes) == 0 || c.PerAF <= 0 {
		t.Fatalf("bad defaults: %+v", c)
	}
}

// runAndCheck executes an experiment and validates the result structure.
// The full figure suite takes over a minute; -short skips it so race-enabled
// CI legs stay fast.
func runAndCheck(t *testing.T, id string) *FigureResult {
	t.Helper()
	if testing.Short() {
		t.Skipf("skipping experiment %s in -short mode", id)
	}
	fr, err := Run(id, tinyCfg)
	if err != nil {
		t.Fatalf("Run(%s): %v", id, err)
	}
	if fr.ID != id {
		t.Fatalf("ID = %q", fr.ID)
	}
	if len(fr.Series) == 0 {
		t.Fatalf("%s: no series", id)
	}
	for _, s := range fr.Series {
		if len(s.Values) != len(fr.Labels) {
			t.Fatalf("%s: series %q has %d values for %d labels",
				id, s.Name, len(s.Values), len(fr.Labels))
		}
	}
	var buf bytes.Buffer
	fr.Print(&buf)
	if !strings.Contains(buf.String(), id) {
		t.Fatalf("%s: Print output missing ID", id)
	}
	return fr
}

func TestFig2Fig3(t *testing.T) {
	fr := runAndCheck(t, "fig2")
	// Errors should be percentages in a sane band (< 100%).
	for _, s := range fr.Series {
		for _, v := range s.Values {
			if v < 0 || v > 100 {
				t.Fatalf("fig2 error %v%% out of range", v)
			}
		}
	}
	runAndCheck(t, "fig3")
}

func TestFig4Overheads(t *testing.T) {
	fr := runAndCheck(t, "fig4")
	// DBEst space must be below VerdictSim space at the larger sample size:
	// the central claim of the paper.
	var dbSpace, vSpace []float64
	for _, s := range fr.Series {
		switch s.Name {
		case "DBEst space (MB)":
			dbSpace = s.Values
		case "VerdictSim space (MB)":
			vSpace = s.Values
		}
	}
	last := len(dbSpace) - 1
	if dbSpace[last] >= vSpace[last] {
		t.Fatalf("DBEst space %v MB >= VerdictSim %v MB at largest sample",
			dbSpace[last], vSpace[last])
	}
}

func TestFig5Fig6(t *testing.T) {
	runAndCheck(t, "fig5")
	runAndCheck(t, "fig6")
}

func TestCCPPComparison(t *testing.T) {
	fr := runAndCheck(t, "fig7")
	if len(fr.Series) != 3 {
		t.Fatalf("fig7 should compare 3 systems, got %d", len(fr.Series))
	}
	runAndCheck(t, "fig9")
}

func TestGroupByFigures(t *testing.T) {
	runAndCheck(t, "fig15")
	runAndCheck(t, "fig17")
	runAndCheck(t, "fig18")
}

func TestJoinFigures(t *testing.T) {
	runAndCheck(t, "fig20")
	runAndCheck(t, "fig28")
}

func TestBundles(t *testing.T) {
	fr := runAndCheck(t, "bundles")
	vals := fr.Series[0].Values
	if vals[0] <= 0 {
		t.Fatal("bundle must contain models")
	}
	if vals[5] <= 0 {
		t.Fatal("loaded bundle must answer groups")
	}
}

func TestComplexQueries(t *testing.T) {
	runAndCheck(t, "fig29")
}

func TestRemainingComparisonFigures(t *testing.T) {
	for _, id := range []string{"fig10", "fig11", "fig12", "fig16", "fig21", "fig26"} {
		runAndCheck(t, id)
	}
}

func TestThroughputFigures(t *testing.T) {
	runAndCheck(t, "fig19")
}

func TestAblation(t *testing.T) {
	fr := runAndCheck(t, "ablation")
	if len(fr.Series) != 6 {
		t.Fatalf("variants = %d, want 6", len(fr.Series))
	}
	for _, s := range fr.Series {
		if s.Values[0] < 0 || s.Values[0] > 100 {
			t.Fatalf("%s: error %v%% out of range", s.Name, s.Values[0])
		}
		if s.Values[2] <= 0 {
			t.Fatalf("%s: model size must be positive", s.Name)
		}
	}
}
