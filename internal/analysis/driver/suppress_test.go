package driver

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

// TestSuppressions pins how //pilint:ignore comments match report
// kinds, and the three defects reported about the comments themselves.
func TestSuppressions(t *testing.T) {
	const src = `package p

var (
	_ = 1 //pilint:ignore beta names the sibling kind only
	_ = 2
	_ = 3 //pilint:ignore alpha matched
	_ = 4
	_ = 5 //pilint:ignore alpha nothing reported on this line or the next
	_ = 6
	_ = 7 //pilint:ignore nosuch some reason
	_ = 8 //pilint:ignore alpha
)
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	line := func(n int) token.Pos { return fset.File(f.Pos()).LineStart(n) }
	a := &Analyzer{Name: "multi", Kinds: []string{"alpha", "beta"}, Run: func(pass *Pass) (interface{}, error) {
		pass.ReportKindf("alpha", line(4), "on 4")
		pass.ReportKindf("beta", line(4), "on 4")
		pass.ReportKindf("alpha", line(6), "on 6")
		return nil, nil
	}}
	u := &Unit{ImportPath: "p", Fset: fset, Files: []*ast.File{f}}
	findings, err := RunAnalyzers(u, []*Analyzer{a}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, fd := range findings {
		got = append(got, fd.String())
	}
	want := []string{
		"p.go:4:1: on 4 (alpha)",
		"p.go:8:8: pilint:ignore suppresses no diagnostic; remove the stale comment (pilint)",
		`p.go:10:8: pilint:ignore names unknown analyzer "nosuch" (pilint)`,
		"p.go:11:8: pilint:ignore needs a reason after the analyzer name (pilint)",
	}
	if len(got) != len(want) {
		t.Fatalf("findings:\n%q\nwant:\n%q", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("finding %d = %q, want %q", i, got[i], want[i])
		}
	}
}
