package lockorder_test

import (
	"bytes"
	"strings"
	"testing"

	"patchindex/internal/analysis/analysistest"
	"patchindex/internal/analysis/lockorder"
)

func TestLockOrder(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(t), lockorder.Analyzer, "lockorder")
}

// TestCrossPackage pins the interprocedural facts layer: the xengine
// fixture's rank inversion is reachable only through a two-level call
// chain ending in the sibling xstore fixture, so the want inside it
// fails if the analysis is weakened to intraprocedural or to one-level
// summaries.
func TestCrossPackage(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(t), lockorder.Analyzer, "xengine")
}

func TestLockBlock(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(t), lockorder.Analyzer, "lockblock")
}

// TestTruncatedSummary pins what a callee summary cut at locksum's
// event cap does to its callers: the locks its prefix leaves held yield
// one skipped-check report each, not lockorder or lockblock findings,
// while its prefix is still checked against the caller's locks.
func TestTruncatedSummary(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(t), lockorder.Analyzer, "locktrunc")
}

func TestRankDecl(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(t), lockorder.Analyzer, "rankdecl")
}

// TestLockGraph runs the whole-program check over a fixture whose two
// unranked mutexes are taken in opposite orders, one edge only through
// a call: exactly one cycle finding must name both edges, and the DOT
// render must be deterministic.
func TestLockGraph(t *testing.T) {
	facts := analysistest.Facts(t, analysistest.TestData(t), "lockgraph")

	var cycles []string
	for _, f := range lockorder.Check.Run(facts) {
		if strings.Contains(f.Message, "lock graph cycle among") {
			cycles = append(cycles, f.Message)
		} else {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	if len(cycles) != 1 {
		t.Fatalf("got %d cycle findings, want 1: %q", len(cycles), cycles)
	}
	for _, want := range []string{
		"lockgraph.A.mu -> lockgraph.B.mu in lockBoth at lockgraph/lockgraph.go:",
		// Found in lockBThenA's summary, performed by its callee.
		"lockgraph.B.mu -> lockgraph.A.mu in (*lockgraph.A).touch at lockgraph/lockgraph.go:",
	} {
		if !strings.Contains(cycles[0], want) {
			t.Errorf("cycle finding does not name the edge %q: %s", want, cycles[0])
		}
	}

	var first, second bytes.Buffer
	if err := lockorder.WriteDot(facts, &first); err != nil {
		t.Fatal(err)
	}
	if err := lockorder.WriteDot(facts, &second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Errorf("two renders of the same facts differ:\n%s\n---\n%s", first.String(), second.String())
	}
	for _, edge := range []string{`"lockgraph.A.mu" -> "lockgraph.B.mu"`, `"lockgraph.B.mu" -> "lockgraph.A.mu"`} {
		if !strings.Contains(first.String(), edge) {
			t.Errorf("DOT lacks edge %s:\n%s", edge, first.String())
		}
	}
}
