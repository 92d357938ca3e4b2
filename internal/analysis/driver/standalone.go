package driver

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// A Suite bundles everything cmd/pilint runs: the per-package
// analyzers, the fact every source package contributes, whole-program
// checks over those facts, and the -lockgraph renderer.
type Suite struct {
	Analyzers []*Analyzer

	// Facts computes each source package's fact, bottom-up over the
	// import graph, before any analyzer runs.
	Facts FactFunc

	// Globals run once, after every package has been analyzed and every
	// fact computed. They see the whole program through the facts —
	// per-line suppressions do not apply to their findings.
	Globals []*GlobalCheck

	// Graph renders the -lockgraph DOT output from the facts.
	Graph func(Facts, io.Writer) error
}

// A GlobalCheck is one whole-program analysis over the facts.
type GlobalCheck struct {
	Name string
	Doc  string
	Run  func(Facts) []Finding
}

// Main is cmd/pilint's entry point: it loads the patterns (_test.go
// files included), prints every finding, and with -lockgraph writes
// the lock graph as DOT to stdout and the findings to stderr.
//
// Exit codes: 0 clean, 1 findings, 2 usage or load failure.
func Main(suite Suite) {
	fs := flag.NewFlagSet("pilint", flag.ExitOnError)
	graph := fs.Bool("lockgraph", false, "emit the acquired-while-holding lock graph as DOT on stdout (findings go to stderr)")
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: pilint [-lockgraph] package patterns...\n\nAnalyzers:\n")
		for _, a := range suite.Analyzers {
			fmt.Fprintf(os.Stderr, "  %-12s %s (kinds: %s)\n", a.Name, firstLine(a.Doc), strings.Join(a.kinds(), ", "))
		}
		for _, g := range suite.Globals {
			fmt.Fprintf(os.Stderr, "  %-12s %s (whole-program)\n", g.Name, firstLine(g.Doc))
		}
		fmt.Fprintf(os.Stderr, "\nSuppress a finding with '//pilint:ignore <kind> <reason>'.\n")
	}
	fs.Parse(os.Args[1:])
	patterns := fs.Args()
	if len(patterns) == 0 {
		fs.Usage()
		os.Exit(2)
	}

	findings, facts, err := Check(patterns, suite)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pilint:", err)
		os.Exit(2)
	}

	// With -lockgraph the DOT document owns stdout; findings move to
	// stderr so the graph stays pipeable into dot(1).
	out := io.Writer(os.Stdout)
	if *graph {
		out = os.Stderr
		if err := suite.Graph(facts, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "pilint:", err)
			os.Exit(2)
		}
	}
	for _, f := range findings {
		fmt.Fprintln(out, f)
	}
	if len(findings) > 0 {
		os.Exit(1)
	}
}

// Check loads the patterns, computes facts over the dependency graph,
// runs the per-package analyzers and the whole-program checks, and
// returns the deduplicated findings plus the facts they were derived
// from.
func Check(patterns []string, suite Suite) ([]Finding, Facts, error) {
	l := NewLoader("", suite.Facts)
	units, err := l.Load(patterns...)
	if err != nil {
		return nil, nil, err
	}
	var all []Finding
	for _, u := range units {
		fs, err := RunAnalyzers(u, suite.Analyzers, l.facts)
		if err != nil {
			return nil, nil, err
		}
		all = append(all, fs...)
	}
	for _, g := range suite.Globals {
		all = append(all, g.Run(l.facts)...)
	}
	return dedupe(all), l.facts, nil
}

// dedupe drops findings reported at the same position with the same
// message under the same kind — a file shared between a package and
// its test variant is analyzed once per unit otherwise.
func dedupe(fs []Finding) []Finding {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Posn.Filename != b.Posn.Filename {
			return a.Posn.Filename < b.Posn.Filename
		}
		if a.Posn.Line != b.Posn.Line {
			return a.Posn.Line < b.Posn.Line
		}
		if a.Posn.Column != b.Posn.Column {
			return a.Posn.Column < b.Posn.Column
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		return a.Message < b.Message
	})
	out := fs[:0]
	for i, f := range fs {
		if i > 0 && f == fs[i-1] {
			continue
		}
		out = append(out, f)
	}
	return out
}

func firstLine(s string) string {
	line, _, _ := strings.Cut(s, "\n")
	return line
}
