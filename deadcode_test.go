package patchindex

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// keptWithoutCaller lists the functions and methods that stay although
// no non-test file calls them, each with the reason it stays. Keys are
// "<dir>:<Recv>.<Name>" (or "<dir>:<Name>" for a function).
var keptWithoutCaller = map[string]string{
	// The paper's Fig. 5 collision join and the Modify oracle are test
	// code that production no longer runs; these are their building
	// blocks.
	"internal/exec:HashJoin.EnableRangePropagation": "Fig. 5 oracle (join_oracle_test.go)",
	"internal/exec:NewWithRowIDColumn":              "Fig. 5 oracle (join_oracle_test.go)",
	"internal/exec:Cached.MaterializeNow":           "Fig. 5 oracle (join_oracle_test.go)",
	"internal/core:Index.HandleInsertNUC":           "Fig. 5 oracle (join_oracle_test.go)",
	"internal/core:Index.HandleModifyNUC":           "Modify oracle (modify_differential_test.go)",
	// The reference the collision-directory tests compare against
	// (CountNUCValues, MergeNUCDuplicates and NUCPatchSet are its
	// pieces, so they pass by their call from here).
	"internal/core:GlobalNUCPatches": "collision-directory test reference",
	// Helpers the tests of six or more packages share.
	"internal/engine:TableSnapshot.ScanAll": "test helper in many packages",
	"internal/engine:LoadColumnInt64":       "test helper in many packages",
	"internal/exec:NewInt64Source":          "test helper in many packages",
	"internal/storage:Table.LoadRows":       "raw-table loader of five packages' tests",
	// The date encoding the hand-built TPC-H reference trees use.
	"internal/tpch:Year": "date encoding of the hand-built TPC-H trees",
	// Left to the ROADMAP items that retire them.
	"internal/engine:Table.ScanPartition": "ROADMAP item 4 gives it a caller or deletes it",
	"internal/bitmap:NewConcurrent":       "ROADMAP item 10(a) deletes bitmap.Concurrent",
	"internal/bitmap:CompressRLE":         "ROADMAP item 10(a) deletes rle.go",
	"internal/bitmap:RLE.Decompress":      "ROADMAP item 10(a) deletes rle.go",
	// The comparators and generators of the paper's figures, which only
	// internal/experiments' benchmarks and checks run.
	"internal/bitmap:Sharded.SetVectorized":   "Fig. 6 scalar-kernel series",
	"internal/bitmap:Sharded.OverheadPercent": "Fig. 6 memory overhead",
	"internal/datagen:GeneratePublicBI":       "Fig. 1 workbooks",
	"internal/datagen:Histogram":              "Fig. 1 histogram",
	"internal/datagen:KeyValueRows":           "Figs. 7-9 and Table 3 tables",
	"internal/datagen:InsertBatch":            "Fig. 9 insert batches",
	"internal/matview:CreateFromTable":        "Figs. 7-9 and Table 3 materialized view",
	"internal/matview:View.RefreshFromTable":  "Fig. 9 materialized-view refresh",
	"internal/sortkey:SortKey.SortedScan":     "Figs. 7 and 9 SortKey query",
	// Bit clears, which the bitmap fuzz and model tests drive as an op.
	"internal/bitmap:Bitmap.Unset":     "bit clear of the bitmap tests",
	"internal/bitmap:Sharded.Unset":    "bit clear of the fuzz and model tests",
	"internal/bitmap:Concurrent.Unset": "ROADMAP item 10(a) deletes bitmap.Concurrent",
	"internal/storage:Value.Less":      "ROADMAP item 20(b) makes it the one per-kind order",
	// Accessors only tests read.
	"internal/core:Index.DesignKind":          "test accessor",
	"internal/plan:Chooser.Factor":            "test accessor",
	"internal/storage:Column.Int64At":         "test accessor",
	"internal/storage:Column.StringAt":        "test accessor",
	"internal/storage:Column.AppendInt64":     "test accessor",
	"internal/storage:MinMax.BlockRange":      "test accessor",
	"internal/storage:Table.Generation":       "test accessor",
	"internal/pdt:Delta.NumDeletes":           "test accessor",
	"internal/pdt:Delta.Checkpoint":           "test accessor",
	"internal/storage:Table.LiveSnapshotRefs": "test accessor",
	"internal/engine:Table.Checkpoint":        "test accessor",
	"internal/engine:Database.SnapshotTable":  "test accessor",
	"internal/bitmap:shiftTailLeftOneScalar":  "reference of the word-shift differential test",
	"internal/analysis/analysistest:TestData": "fixture locator of the analyzer tests",
}

// TestEveryFunctionHasANonTestCaller keeps dead code from growing back:
// every function and method declared in a non-test file outside bench/
// and testdata/ must be named in some non-test file outside testdata/ —
// bench/ included, since the benchmark is a caller — or be listed in
// keptWithoutCaller with its reason. A name inside a declaration of the
// same name does not count: neither the declaration itself, nor a
// recursive call, nor a same-named call such as Value.Less's cmp.Less.
// Matching is by name only otherwise, so a function that shares its
// name with anything named elsewhere passes: the test finds a lower
// bound on dead code, not all of it. A keptWithoutCaller entry that is
// no longer needed (the name gained a caller or is gone) fails the test
// too, as a stale //pilint:ignore does.
func TestEveryFunctionHasANonTestCaller(t *testing.T) {
	fset := token.NewFileSet()
	type decl struct{ key, name string }
	var decls []decl
	named := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		bench := dir == "bench" || strings.HasPrefix(dir, "bench/")
		for _, d := range f.Decls {
			self := ""
			if fn, ok := d.(*ast.FuncDecl); ok {
				self = fn.Name.Name
				key := dir + ":" + self
				if fn.Recv != nil {
					key = dir + ":" + recvType(fn.Recv.List[0].Type) + "." + self
				}
				if !bench {
					decls = append(decls, decl{key, self})
				}
			}
			ast.Inspect(d, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && id.Name != self {
					named[id.Name] = true
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var dead, stale []string
	needed := map[string]bool{}
	for _, d := range decls {
		switch {
		case named[d.name], d.name == "main", d.name == "init": // the runtime calls main and init
		case keptWithoutCaller[d.key] != "":
			needed[d.key] = true
		default:
			dead = append(dead, d.key)
		}
	}
	for key := range keptWithoutCaller {
		if !needed[key] {
			stale = append(stale, key)
		}
	}
	sort.Strings(dead)
	sort.Strings(stale)
	for _, key := range dead {
		t.Errorf("%s has no non-test caller: delete it, or list it in keptWithoutCaller with its reason", key)
	}
	for _, key := range stale {
		t.Errorf("keptWithoutCaller entry %s is stale: the name has a non-test caller or is gone", key)
	}
}

// recvType names a method's receiver type without pointer or type
// parameters.
func recvType(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.StarExpr:
		return recvType(x.X)
	case *ast.IndexExpr:
		return recvType(x.X)
	case *ast.IndexListExpr:
		return recvType(x.X)
	case *ast.Ident:
		return x.Name
	}
	return "?"
}
