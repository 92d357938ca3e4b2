// Package analysistest runs an analyzer over golden fixture packages
// and checks its diagnostics against expectations written in the
// fixture source, mirroring golang.org/x/tools/go/analysis/analysistest
// (which the offline build environment cannot vendor).
//
// Expectations are trailing comments of the form
//
//	// want "regexp" "another regexp"
//
// attached to the line the diagnostic must appear on. Each quoted
// pattern (double- or back-quoted Go string syntax) must be matched by
// exactly one diagnostic on that line; diagnostics with no matching
// pattern, and patterns with no matching diagnostic, fail the test.
//
// Fixture packages live under testdata/src/<path> and are typechecked
// for real: imports resolve first against sibling fixture directories,
// then against the standard library through the driver's export-data
// importer — so fixtures can use sync.Mutex, sync/atomic, and helper
// types with full type information, offline. Each fixture package's
// locksum fact is computed as it loads, dependencies first, as in a
// real load.
//
// Because fixtures run through driver.RunAnalyzers, //pilint:ignore
// comments inside a fixture are honored, which is how the suppression
// behavior itself is tested: a suppressed line simply carries no want,
// and a malformed ignore wants its "pilint" pseudo-finding.
package analysistest

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"

	"patchindex/internal/analysis/driver"
	"patchindex/internal/analysis/locksum"
)

// TestData returns the shared fixture root, internal/analysis/testdata,
// relative to the calling test's package directory (a sibling of the
// analyzer packages).
func TestData(t *testing.T) string {
	t.Helper()
	dir, err := filepath.Abs(filepath.Join("..", "testdata"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "src")); err != nil {
		t.Fatalf("fixture root %s: %v", dir, err)
	}
	return dir
}

// Run loads each fixture package testdata/src/<pkg>, applies the
// analyzer, and checks the diagnostics against the fixtures' want
// comments.
func Run(t *testing.T, testdata string, a *driver.Analyzer, pkgs ...string) {
	t.Helper()
	ld := newFixtureLoader(filepath.Join(testdata, "src"))
	for _, pkg := range pkgs {
		unit, err := ld.load(pkg)
		if err != nil {
			t.Errorf("loading fixture %s: %v", pkg, err)
			continue
		}
		findings, err := driver.RunAnalyzers(unit, []*driver.Analyzer{a}, ld.facts)
		if err != nil {
			t.Errorf("running %s on fixture %s: %v", a.Name, pkg, err)
			continue
		}
		checkExpectations(t, unit.Fset, unit.Files, findings)
	}
}

// Facts loads the fixture packages and returns the facts computed for
// them and the sibling fixtures they import — the input of the
// whole-program checks.
func Facts(t *testing.T, testdata string, pkgs ...string) driver.Facts {
	t.Helper()
	ld := newFixtureLoader(filepath.Join(testdata, "src"))
	for _, pkg := range pkgs {
		if _, err := ld.load(pkg); err != nil {
			t.Fatalf("loading fixture %s: %v", pkg, err)
		}
	}
	return ld.facts
}

// An expectation is one want pattern, bound to a file:line.
type expectation struct {
	posn    token.Position // of the want comment
	re      *regexp.Regexp
	raw     string
	matched bool
}

func checkExpectations(t *testing.T, fset *token.FileSet, files []*ast.File, findings []driver.Finding) {
	t.Helper()
	byLine := make(map[string][]*expectation)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				for _, exp := range parseWant(t, fset, c) {
					k := lineKey(exp.posn.Filename, exp.posn.Line)
					byLine[k] = append(byLine[k], exp)
				}
			}
		}
	}

	for _, fd := range findings {
		exps := byLine[lineKey(fd.Posn.Filename, fd.Posn.Line)]
		ok := false
		for _, exp := range exps {
			if !exp.matched && exp.re.MatchString(fd.Message) {
				exp.matched = true
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("%s: unexpected diagnostic: %s (%s)", fd.Posn, fd.Message, fd.Kind)
		}
	}

	var unmatched []*expectation
	for _, exps := range byLine {
		for _, exp := range exps {
			if !exp.matched {
				unmatched = append(unmatched, exp)
			}
		}
	}
	sort.Slice(unmatched, func(i, j int) bool {
		a, b := unmatched[i].posn, unmatched[j].posn
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Line < b.Line
	})
	for _, exp := range unmatched {
		t.Errorf("%s: no diagnostic matching %s", exp.posn, exp.raw)
	}
}

// parseWant extracts the patterns of one `// want "re" ...` comment.
// The marker may also be embedded after other comment content
// (`//pilint:ignore foo reason // want "..."`) — necessary where the
// expectation targets a diagnostic about the carrying comment itself.
func parseWant(t *testing.T, fset *token.FileSet, c *ast.Comment) []*expectation {
	t.Helper()
	if !strings.HasPrefix(c.Text, "//") {
		return nil // block comments are not expectation carriers
	}
	var rest string
	if after, ok := strings.CutPrefix(strings.TrimSpace(c.Text[2:]), "want "); ok {
		rest = after
	} else if i := strings.Index(c.Text, "// want "); i >= 0 {
		rest = c.Text[i+len("// want "):]
	} else {
		return nil
	}
	posn := fset.Position(c.Pos())
	var exps []*expectation
	for {
		rest = strings.TrimSpace(rest)
		if rest == "" {
			break
		}
		q, err := strconv.QuotedPrefix(rest)
		if err != nil {
			t.Errorf("%s: malformed want pattern %q: %v", posn, rest, err)
			break
		}
		pat, err := strconv.Unquote(q)
		if err != nil {
			t.Errorf("%s: malformed want pattern %s: %v", posn, q, err)
			break
		}
		re, err := regexp.Compile(pat)
		if err != nil {
			t.Errorf("%s: want pattern %s: %v", posn, q, err)
			break
		}
		exps = append(exps, &expectation{posn: posn, re: re, raw: q})
		rest = rest[len(q):]
	}
	if len(exps) == 0 {
		t.Errorf("%s: want comment carries no patterns", posn)
	}
	return exps
}

func lineKey(file string, line int) string {
	return fmt.Sprintf("%s:%d", file, line)
}

// fixtureLoader typechecks fixture packages: sibling fixture dirs load
// from source, everything else goes to the driver's loader (standard-
// library export data), whose file set the fixtures share.
type fixtureLoader struct {
	src     string // testdata/src
	std     *driver.Loader
	typed   map[string]*types.Package
	loading map[string]bool
	facts   driver.Facts
}

func newFixtureLoader(src string) *fixtureLoader {
	return &fixtureLoader{
		src:     src,
		std:     driver.NewLoader("", nil),
		typed:   make(map[string]*types.Package),
		loading: make(map[string]bool),
		facts:   make(driver.Facts),
	}
}

// load parses and typechecks testdata/src/<path> as an analysis unit
// and computes its fact. Sibling fixtures it imports load first (via
// Import), so interprocedural fixtures see the same bottom-up fact flow
// as a real load.
func (l *fixtureLoader) load(path string) (*driver.Unit, error) {
	dir := filepath.Join(l.src, filepath.FromSlash(path))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	fset := l.std.Fset
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil,
			parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	info := driver.NewTypesInfo()
	conf := types.Config{Importer: l, Sizes: types.SizesFor("gc", runtime.GOARCH)}
	pkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck fixture %s: %v", path, err)
	}
	unit := &driver.Unit{ImportPath: path, Fset: fset, Files: files, Pkg: pkg, Info: info}
	driver.ComputeFacts(unit, locksum.Compute, l.facts)
	return unit, nil
}

// Import resolves a fixture import: sibling fixture directory first,
// then the standard library.
func (l *fixtureLoader) Import(path string) (*types.Package, error) {
	if pkg := l.typed[path]; pkg != nil {
		return pkg, nil
	}
	if st, err := os.Stat(filepath.Join(l.src, filepath.FromSlash(path))); err != nil || !st.IsDir() {
		return l.std.Import(path)
	}
	if l.loading[path] {
		return nil, fmt.Errorf("fixture import cycle through %q", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)
	unit, err := l.load(path)
	if err != nil {
		return nil, err
	}
	l.typed[path] = unit.Pkg
	return unit.Pkg, nil
}
