package analysis

import (
	"path/filepath"
	"testing"
)

// TestEscapeFindingsSkipsNestedModule runs the escape gate over a fixture
// module that contains a nested module, as the repository contains its
// benchmark module. Only the package declaring a hotpath site is built,
// so the nested directory cannot fail the build.
func TestEscapeFindingsSkipsNestedModule(t *testing.T) {
	root := filepath.Join("testdata", "escape")
	loader, err := NewLoaderAt(root)
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := ExpandPatterns([]string{root + "/..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) != 2 {
		t.Fatalf("fixture expands to %v, want the hot and nested dirs", dirs)
	}
	findings, sites, err := escapeFindings(loader, dirs)
	if err != nil {
		t.Fatal(err)
	}
	if sites != 1 {
		t.Errorf("checked %d hotpath sites, want 1", sites)
	}
	if len(findings) != 1 || findings[0].Func != "hot.Grow" || findings[0].Message != "make([]float64, n) escapes to heap" {
		t.Errorf("findings = %v, want Grow's make escape only", findings)
	}
}
