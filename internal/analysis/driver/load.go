package driver

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// listPackage is the slice of `go list -json` output the loader needs.
type listPackage struct {
	ImportPath string
	Dir        string
	Name       string
	Export     string
	GoFiles    []string
	ImportMap  map[string]string
	Standard   bool
	DepOnly    bool
	ForTest    string
	Error      *struct{ Err string }
}

// A Loader materializes analysis Units for a set of package patterns,
// _test.go files folded into their packages' test variants. Every
// source package of the load is typechecked from source in `go list
// -deps` order (dependencies first), and its imports resolve — through
// its ImportMap, so a test variant sees the variants go list built for
// it — to those packages; standard-library imports come from compiler
// export data that `go list -export` locates in the local build cache,
// listed on first use for paths outside the load.
type Loader struct {
	Fset *token.FileSet
	Dir  string

	factFn FactFunc
	facts  Facts // factFn's result for every source package loaded so far

	pkgs  map[string]*listPackage   // listing ID ("p" or "p [q.test]") -> metadata
	typed map[string]*types.Package // listing ID -> package typechecked from source
	gcimp types.Importer            // export-data importer, shared Fset
}

// NewLoader returns a loader rooted at dir (the module root; "" for the
// current directory) that computes each source package's fact with fn
// (nil for none).
func NewLoader(dir string, fn FactFunc) *Loader {
	l := &Loader{
		Fset:   token.NewFileSet(),
		Dir:    dir,
		factFn: fn,
		facts:  make(Facts),
		pkgs:   make(map[string]*listPackage),
		typed:  make(map[string]*types.Package),
	}
	l.gcimp = importer.ForCompiler(l.Fset, "gc", l.lookupExport)
	return l
}

// lookupExport opens the export data `go list -export` recorded for a
// listing ID.
func (l *Loader) lookupExport(id string) (io.ReadCloser, error) {
	p := l.pkgs[id]
	if p == nil || p.Export == "" {
		return nil, fmt.Errorf("no export data for %q", id)
	}
	return os.Open(p.Export)
}

// list runs `go list -deps` over the patterns (with -test for test
// variants), records every listed package, and returns them in go
// list's order: dependencies before dependents.
func (l *Loader) list(tests bool, patterns ...string) ([]*listPackage, error) {
	args := []string{"list", "-e", "-export", "-deps", "-json=ImportPath,Dir,Name,Export,GoFiles,ImportMap,Standard,DepOnly,ForTest,Error"}
	if tests {
		args = append(args, "-test")
	}
	cmd := exec.Command("go", append(args, patterns...)...)
	cmd.Dir = l.Dir
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, stderr.String())
	}
	var order []*listPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		p := new(listPackage)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list output: %v", err)
		}
		l.pkgs[p.ImportPath] = p
		order = append(order, p)
	}
	return order, nil
}

// Load lists the patterns and returns one Unit per matched package,
// with _test.go files folded into their package's test variant, after
// computing the fact of every source package in the load.
func (l *Loader) Load(patterns ...string) ([]*Unit, error) {
	order, err := l.list(true, patterns...)
	if err != nil {
		return nil, err
	}

	// Pick the units to analyze: pattern-matched packages (not DepOnly),
	// skipping synthesized test mains and — when a test variant exists —
	// the base package it supersedes (the variant compiles a superset of
	// its files, so analyzing both would duplicate every finding). An
	// external test package ("p_test [p.test]") supersedes nothing: a
	// package whose tests are all external has no variant of its own.
	variant := make(map[string]bool)
	for _, p := range order {
		if p.ForTest != "" && importBase(p.ImportPath) == p.ForTest {
			variant[p.ForTest] = true
		}
	}
	var units []*Unit
	for _, p := range order {
		testMain := p.Name == "main" && strings.HasSuffix(p.ImportPath, ".test")
		isUnit := !(p.DepOnly || p.Standard || testMain) && !variant[p.ImportPath]
		if isUnit && p.Error != nil {
			return nil, fmt.Errorf("go list: %s: %s", p.ImportPath, p.Error.Err)
		}
		source := !p.Standard && !testMain && p.Error == nil && p.Dir != "" && len(p.GoFiles) > 0
		if !isUnit && !source {
			continue
		}
		u, err := l.typecheckUnit(p)
		if err != nil {
			if !isUnit {
				continue // a dependency we only wanted facts from; best effort
			}
			return nil, err
		}
		l.typed[p.ImportPath] = u.Pkg
		if source {
			ComputeFacts(u, l.factFn, l.facts)
		}
		if isUnit {
			units = append(units, u)
		}
	}
	return units, nil
}

// typecheckUnit parses and typechecks one listed package from source.
func (l *Loader) typecheckUnit(p *listPackage) (*Unit, error) {
	files := make([]*ast.File, 0, len(p.GoFiles))
	for _, name := range p.GoFiles {
		f, err := parser.ParseFile(l.Fset, filepath.Join(p.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := NewTypesInfo()
	conf := types.Config{
		Importer: importerFunc(func(path string) (*types.Package, error) {
			if id, ok := p.ImportMap[path]; ok {
				path = id
			}
			return l.Import(path)
		}),
		Sizes: types.SizesFor("gc", runtime.GOARCH),
	}
	pkg, err := conf.Check(importBase(p.ImportPath), l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %v", p.ImportPath, err)
	}
	return &Unit{ImportPath: p.ImportPath, Fset: l.Fset, Files: files, Pkg: pkg, Info: info}, nil
}

// importBase strips a test-variant suffix: "p [q.test]" -> "p".
func importBase(ip string) string {
	if i := strings.Index(ip, " ["); i >= 0 {
		return ip[:i]
	}
	return ip
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// Import implements types.Importer for a listing ID: the package Load
// typechecked from source when there is one, compiler export data
// otherwise (listing the path first if no load has).
func (l *Loader) Import(id string) (*types.Package, error) {
	if id == "unsafe" {
		return types.Unsafe, nil
	}
	if pkg := l.typed[id]; pkg != nil {
		return pkg, nil
	}
	if l.pkgs[id] == nil {
		if _, err := l.list(false, id); err != nil {
			return nil, err
		}
	}
	return l.gcimp.Import(id)
}
