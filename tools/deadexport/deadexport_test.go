package deadexport

import (
	"strings"
	"testing"
)

// TestFlagged: an internal export only a test (or nothing) names is reported
// whatever its kind, and so is a method of a live type that only a test (or
// nothing) selects — even when a same-named method of another type is
// selected. Unexported names, the methods of a reported type and a method an
// interface could call are not.
func TestFlagged(t *testing.T) {
	got, err := Check("testdata/a")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"exported p.DeadConst is referenced by no non-test file",
		"exported p.DeadFunc is referenced by no non-test file",
		"exported p.DeadType is referenced by no non-test file",
		"exported p.DeadVar is referenced by no non-test file",
		"exported method p.LiveType.DeadMethod is selected by no non-test file",
		"exported method p.LiveType.TestOnlyMethod is selected by no non-test file",
	}
	if len(got) != len(want) {
		t.Fatalf("findings = %q, want one each for %q", got, want)
	}
	all := strings.Join(got, "\n")
	for _, w := range want {
		if !strings.Contains(all, w) {
			t.Errorf("findings = %q, want %q", got, w)
		}
	}
}

// TestClean: a reference from another package, from the declaring package,
// or a //lint:deadexport annotation each keep a name off the report; so do,
// for a method, a selection from another package, a selection through an
// embedding type, and a name shared with a method of an interface.
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
