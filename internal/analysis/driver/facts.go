package driver

// Facts holds one fact per source package, keyed by import path
// (test-variant suffix stripped), computed bottom-up over the import
// graph so a package's fact may build on its dependencies'. The suite
// has one fact kind — locksum's per-package lock summaries — so a fact
// is whatever the suite's FactFunc returns, and its consumers assert
// the type.
type Facts map[string]interface{}

// A FactFunc derives one package's fact. Its Pass carries the
// package's syntax and type information and the Facts of every
// dependency; Report is a no-op.
type FactFunc func(*Pass) interface{}

// ComputeFacts runs fn over one typechecked unit and records the
// result under the unit's import path — a test variant replaces its
// base package's entry. Dependencies' facts must already be present:
// the loaders call this in dependency order.
func ComputeFacts(u *Unit, fn FactFunc, facts Facts) {
	if fn == nil {
		return
	}
	pass := &Pass{
		Fset:      u.Fset,
		Files:     u.Files,
		Pkg:       u.Pkg,
		TypesInfo: u.Info,
		Report:    func(Diagnostic) {},
		Facts:     facts,
	}
	if v := fn(pass); v != nil {
		facts[importBase(u.ImportPath)] = v
	}
}
