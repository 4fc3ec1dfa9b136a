package deadexport

import (
	"strings"
	"testing"
)

// TestFlagged: an internal export only a test (or nothing) names is reported
// whatever its kind; methods and unexported names are not.
func TestFlagged(t *testing.T) {
	got, err := Check("testdata/a")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"p.DeadConst", "p.DeadFunc", "p.DeadType", "p.DeadVar"}
	if len(got) != len(want) {
		t.Fatalf("findings = %q, want one each for %q", got, want)
	}
	all := strings.Join(got, "\n")
	for _, w := range want {
		if !strings.Contains(all, "exported "+w+" is referenced by no non-test file") {
			t.Errorf("findings = %q, want one naming %s", got, w)
		}
	}
}

// TestClean: a reference from another package, from the declaring package,
// or a //lint:deadexport annotation each keep a name off the report.
func TestClean(t *testing.T) {
	if got, err := Check("testdata/b"); err != nil || len(got) != 0 {
		t.Fatalf("findings = %q, err = %v, want none", got, err)
	}
}

// TestRepository is the check itself: nothing under the repository's
// internal/ is exported for nobody.
func TestRepository(t *testing.T) {
	got, err := Check("../..")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range got {
		t.Error(f)
	}
}
