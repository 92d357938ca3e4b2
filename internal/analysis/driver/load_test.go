package driver

import (
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestLoadResolvesImportMap loads one package whose external test
// imports a dependent of it: go list lists that dependent only as a
// test variant, reachable through the importing package's ImportMap.
func TestLoadResolvesImportMap(t *testing.T) {
	l := NewLoader(filepath.Join("testdata", "importmap"), nil)
	units, err := l.Load("./a")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, u := range units {
		got = append(got, u.ImportPath)
	}
	sort.Strings(got)
	want := "importmap/a [importmap/a.test], importmap/a_test [importmap/a.test]"
	if strings.Join(got, ", ") != want {
		t.Fatalf("units = %q, want %s", got, want)
	}
}

// TestLoadKeepsPackageWithOnlyExternalTests: the external test package
// of a package without in-package tests supersedes nothing, so the
// package itself stays a unit.
func TestLoadKeepsPackageWithOnlyExternalTests(t *testing.T) {
	l := NewLoader(filepath.Join("testdata", "importmap"), nil)
	units, err := l.Load("./c")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, u := range units {
		got = append(got, u.ImportPath)
	}
	sort.Strings(got)
	want := "importmap/c, importmap/c_test [importmap/c.test]"
	if strings.Join(got, ", ") != want {
		t.Fatalf("units = %q, want %s", got, want)
	}
}
