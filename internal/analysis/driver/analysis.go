// Package driver is a self-contained, stdlib-only analysis framework
// mirroring the shape of golang.org/x/tools/go/analysis, plus the
// standalone driver that runs analyzers over this repository: a loader
// built on `go list -export -deps -test -json` and the cmd/pilint main.
//
// The x/tools module is deliberately not a dependency: the build
// environment is offline, and the analyzers need only a small slice of
// the framework — an Analyzer value, a Pass with syntax + type
// information, and a Report sink. Keeping the API shapes identical
// (Analyzer.Run(*Pass), Pass.Reportf, analysistest-style fixture tests)
// means the suite ports to the real framework by swapping imports if
// x/tools ever becomes available.
//
// # Report kinds
//
// An analyzer reports under one or more kinds: its own name by default,
// or the Kinds it lists (the lock analyzer reports lockorder, lockblock
// and rankdecl findings from one walk). The kind is the tag a finding
// prints in parentheses and the name a suppression uses.
//
// # Suppressions
//
// Every kind supports deliberate, visible exceptions:
//
//	//pilint:ignore <kind>[,<kind>...] <reason>
//
// placed either on the flagged line (trailing comment) or on its own
// line directly above. The reason is mandatory — a bare ignore is
// itself reported — so every exception is reviewable in the diff.
package driver

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// An Analyzer describes one analysis pass: a name, a doc string, the
// report kinds it emits, and the Run function applied to each package.
type Analyzer struct {
	Name string
	Doc  string
	// Kinds lists the report kinds; empty means the one kind Name.
	Kinds []string
	Run   func(*Pass) (interface{}, error)
}

func (a *Analyzer) kinds() []string {
	if len(a.Kinds) == 0 {
		return []string{a.Name}
	}
	return a.Kinds
}

// A Pass provides one package's syntax and type information to an
// analyzer's Run function and collects its diagnostics.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report records one diagnostic. The driver installs a sink that
	// applies //pilint:ignore suppressions before surfacing it.
	Report func(Diagnostic)

	// Facts holds the fact of every package computed so far, the pass's
	// own package included (its fact is computed before the analyzers
	// run).
	Facts Facts
}

// Reportf reports a formatted diagnostic at pos under the analyzer's
// own name.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// ReportKindf reports a formatted diagnostic at pos under kind.
func (p *Pass) ReportKindf(kind string, pos token.Pos, format string, args ...interface{}) {
	p.Report(Diagnostic{Pos: pos, Kind: kind, Message: fmt.Sprintf(format, args...)})
}

// A Diagnostic is one finding, positioned in the analyzed package. An
// empty Kind means the reporting analyzer's name.
type Diagnostic struct {
	Pos     token.Pos
	Kind    string
	Message string
}

// A Finding is a diagnostic resolved to a file position and tagged with
// its kind — the driver-level result type.
type Finding struct {
	Kind    string
	Posn    token.Position
	Message string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s (%s)", f.Posn, f.Message, f.Kind)
}

// Unit is one package's worth of analysis input.
type Unit struct {
	ImportPath string
	Fset       *token.FileSet
	Files      []*ast.File
	Pkg        *types.Package
	Info       *types.Info
}

// NewTypesInfo returns a types.Info with every map the analyzers rely
// on allocated.
func NewTypesInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
}

// RunAnalyzers applies the analyzers to one loaded unit, filters the
// diagnostics through the unit's //pilint:ignore comments, and returns
// the surviving findings (malformed, unknown, or stale suppressions
// included, reported under the pseudo-kind "pilint").
func RunAnalyzers(u *Unit, analyzers []*Analyzer, facts Facts) ([]Finding, error) {
	sup := collectSuppressions(u.Fset, u.Files)

	var findings []Finding
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      u.Fset,
			Files:     u.Files,
			Pkg:       u.Pkg,
			TypesInfo: u.Info,
			Facts:     facts,
		}
		name := a.Name
		pass.Report = func(d Diagnostic) {
			kind := d.Kind
			if kind == "" {
				kind = name
			}
			posn := u.Fset.Position(d.Pos)
			if sup.suppressed(kind, posn) {
				return
			}
			findings = append(findings, Finding{Kind: kind, Posn: posn, Message: d.Message})
		}
		if _, err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: analyzer %s: %w", u.ImportPath, a.Name, err)
		}
	}
	findings = append(findings, sup.problems(analyzers)...)
	return findings, nil
}
