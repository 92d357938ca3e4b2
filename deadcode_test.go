package patchindex

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"patchindex/internal/analysis/driver"
)

// keptWithoutCaller lists the functions and methods that stay although
// no non-test file calls them, each with the reason it stays. Keys are
// "<package>:<Recv>.<Name>" (or "<package>:<Name>" for a function), the
// package path relative to the module.
var keptWithoutCaller = map[string]string{
	// The paper's Fig. 5 collision join and the Modify oracle are test
	// code that production no longer runs; these are their building
	// blocks.
	"internal/exec:HashJoin.EnableRangePropagation": "Fig. 5 oracle (join_oracle_test.go)",
	"internal/exec:NewWithRowIDColumn":              "Fig. 5 oracle (join_oracle_test.go)",
	"internal/exec:Cached.MaterializeNow":           "Fig. 5 oracle (join_oracle_test.go)",
	"internal/core:Index.HandleInsertNUC":           "Fig. 5 oracle (join_oracle_test.go)",
	"internal/core:Index.HandleModifyNUC":           "Modify oracle (modify_differential_test.go)",
	"internal/core:NUCState.Count":                  "Fig. 5 oracle (join_oracle_test.go)",
	// The reference the collision-directory tests compare against
	// (CountNUCValues, MergeNUCDuplicates and NUCPatchSet are its
	// pieces, so they pass by their call from here).
	"internal/core:GlobalNUCPatches": "collision-directory test reference",
	// Helpers the tests of six or more packages share.
	"internal/engine:LoadColumnInt64": "test helper in many packages",
	"internal/exec:NewInt64Source":    "test helper in many packages",
	"internal/storage:Table.LoadRows": "raw-table loader of five packages' tests",
	// The date encoding the hand-built TPC-H reference trees use.
	"internal/tpch:Year": "date encoding of the hand-built TPC-H trees",
	// The analyzer tests' fixture runner.
	"internal/analysis/analysistest:Run":      "fixture runner of the analyzer tests",
	"internal/analysis/analysistest:Facts":    "fixture runner of the analyzer tests",
	"internal/analysis/analysistest:TestData": "fixture locator of the analyzer tests",
	// The public facade's API, which the examples need not all call.
	"patchindex:Collect":                    "facade API",
	"internal/query:Plan.Project":           "facade API (patchindex.Plan)",
	"internal/engine:TableSnapshot.ScanAll": "facade API (patchindex.TableSnapshot)",
	// Left to the ROADMAP items that retire them together with the
	// tests that exercise them.
	"internal/engine:Table.ScanPartition": "ROADMAP item 4 gives it a caller or deletes it",
	// The comparators and generators of the paper's figures, which only
	// internal/experiments' benchmarks and checks run.
	"internal/bitmap:Sharded.SetVectorized":   "Fig. 6 scalar-kernel series",
	"internal/bitmap:Sharded.OverheadPercent": "Fig. 6 memory overhead",
	"internal/datagen:GeneratePublicBI":       "Fig. 1 workbooks",
	"internal/datagen:Histogram":              "Fig. 1 histogram",
	"internal/datagen:KeyValueRows":           "Figs. 7-9 and Table 3 tables",
	"internal/datagen:InsertBatch":            "Fig. 9 insert batches",
	"internal/sortkey:SortKey.SortedScan":     "Figs. 7 and 9 SortKey query",
	"internal/sortkey:SortKey.MemoryBytes":    "Fig. 11 SortKey memory",
	"internal/bitmap:Bitmap.Get":              "Table 2 flat-bitmap series",
	"internal/bitmap:Bitmap.Len":              "Table 2 flat-bitmap series",
	"internal/bitmap:Bitmap.SetBits":          "Table 2 flat-bitmap series",
	"internal/tpch:Dataset.Q7":                "Fig. 10 Q7",
	"internal/tpch:Dataset.Q12":               "Fig. 10 Q12",
	// Bit clears, which the bitmap fuzz and model tests drive as an op.
	"internal/bitmap:Bitmap.Unset":  "bit clear of the bitmap tests",
	"internal/bitmap:Sharded.Unset": "bit clear of the fuzz and model tests",
	// The single delete of Section 4.2.2, an op of FuzzShardedOps and
	// the model tests; the engine deletes through BulkDelete.
	"internal/bitmap:Sharded.Delete": "single delete (Section 4.2.2) of the fuzz and model tests",
	"internal/storage:Value.Less":    "ROADMAP item 20(b) makes it the one per-kind order",
	// Accessors only tests read.
	"internal/core:Index.DesignKind":          "test accessor",
	"internal/bitmap:Sharded.NumShards":       "test accessor",
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
}

// TestEveryFunctionHasANonTestCaller keeps dead code from growing back:
// every function and method declared in a non-test file of this module
// must be called from some non-test file of this module or of bench/ —
// the benchmark is a caller — or be listed in keptWithoutCaller with
// its reason. Calls resolve by type (see uncalled), so a method is not
// kept alive by a same-named call on another type. A keptWithoutCaller
// entry that is no longer needed (the function gained a caller or is
// gone) fails the test too, as a stale //pilint:ignore does.
func TestEveryFunctionHasANonTestCaller(t *testing.T) {
	dead, err := uncalled("patchindex", ".", "bench")
	if err != nil {
		t.Fatal(err)
	}
	needed := map[string]bool{}
	for _, key := range dead {
		if keptWithoutCaller[key] != "" {
			needed[key] = true
			continue
		}
		t.Errorf("%s has no non-test caller: delete it, or list it in keptWithoutCaller with its reason", key)
	}
	var stale []string
	for key := range keptWithoutCaller {
		if !needed[key] {
			stale = append(stale, key)
		}
	}
	sort.Strings(stale)
	for _, key := range stale {
		t.Errorf("keptWithoutCaller entry %s is stale: it has a non-test caller or is gone", key)
	}
}

// TestUncalledResolvesByType runs the check over testdata/deadcode,
// whose Meter.Read is named only by a call of the unrelated Gauge.Read
// and so escapes any match by name.
func TestUncalledResolvesByType(t *testing.T) {
	dead, err := uncalled("deadcode", filepath.Join("testdata", "deadcode"))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"deadcode:Meter.Read", "deadcode:countDown", "deadcode:onlyTested"}
	if !slices.Equal(dead, want) {
		t.Fatalf("uncalled = %q, want %q", dead, want)
	}
}

// uncalled returns, sorted, the functions and methods declared in the
// non-test files of module (rooted at dir) that no non-test file of it
// or of the modules at callers calls; main and init are exempt, since
// the runtime calls them. Calls resolve through go/types, and a
// function's own body does not call it. A method also counts as called
// when some interface type loaded alongside it — declared in a non-test
// file, in an imported package, or the predeclared error — has a
// method of the same name and an identical signature, since a call
// through that interface may reach it. Signatures compare as fully
// qualified strings: the loader typechecks a package once more for each
// test variant, and those copies' types are not identical to go/types.
func uncalled(module, dir string, callers ...string) ([]string, error) {
	declared := map[string]bool{}
	called := map[string]bool{}
	ifaces := map[string]bool{} // method name + signature
	methods := map[string]string{}
	key := func(fn *types.Func) string {
		fn = fn.Origin()
		name := fn.Name()
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if n, ok := t.(*types.Named); ok {
				name = n.Obj().Name() + "." + name
			}
		}
		return strings.TrimPrefix(fn.Pkg().Path(), module+"/") + ":" + name
	}
	addIface := func(it *types.Interface) {
		for j := 0; j < it.NumMethods(); j++ {
			ifaces[methodSig(it.Method(j))] = true
		}
	}
	addIface(types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	inModule := func(pkg *types.Package) bool {
		return pkg.Path() == module || strings.HasPrefix(pkg.Path(), module+"/")
	}
	for i, d := range append([]string{dir}, callers...) {
		units, err := driver.NewLoader(d, nil).Load("./...")
		if err != nil {
			return nil, err
		}
		if len(units) == 0 {
			continue
		}
		fset := units[0].Fset
		nonTest := func(pos interface{ Pos() token.Pos }) bool {
			return !strings.HasSuffix(fset.Position(pos.Pos()).Filename, "_test.go")
		}
		for _, u := range units {
			for _, f := range u.Files {
				if !nonTest(f) {
					continue
				}
				for _, decl := range f.Decls {
					var self types.Object
					if fd, ok := decl.(*ast.FuncDecl); ok {
						self = u.Info.Defs[fd.Name]
						exempt := fd.Recv == nil && (fd.Name.Name == "init" || fd.Name.Name == "main" && u.Pkg.Name() == "main")
						if i == 0 && !exempt {
							declared[key(self.(*types.Func))] = true
						}
					}
					ast.Inspect(decl, func(n ast.Node) bool {
						switch n := n.(type) {
						case *ast.Ident:
							if fn, ok := u.Info.Uses[n].(*types.Func); ok && fn.Pkg() != nil && fn.Origin() != self {
								called[key(fn)] = true
							}
						case *ast.InterfaceType:
							if it, ok := u.Info.TypeOf(n).(*types.Interface); ok {
								addIface(it)
							}
						}
						return true
					})
				}
			}
		}
		// The interfaces of the packages loaded from export data, and
		// the module's concrete methods they may dispatch to.
		seen := map[*types.Package]bool{}
		var visit func(*types.Package)
		visit = func(pkg *types.Package) {
			if seen[pkg] {
				return
			}
			seen[pkg] = true
			for _, imp := range pkg.Imports() {
				visit(imp)
			}
			scope := pkg.Scope()
			for _, name := range scope.Names() {
				tn, ok := scope.Lookup(name).(*types.TypeName)
				if !ok || !nonTest(tn) {
					continue
				}
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && !inModule(pkg) {
					addIface(it)
				} else if n, ok := tn.Type().(*types.Named); ok && inModule(pkg) {
					for j := 0; j < n.NumMethods(); j++ {
						if m := n.Method(j); nonTest(m) {
							methods[key(m)] = methodSig(m)
						}
					}
				}
			}
		}
		for _, u := range units {
			visit(u.Pkg)
		}
	}
	var dead []string
	for k := range declared {
		if !called[k] && !ifaces[methods[k]] {
			dead = append(dead, k)
		}
	}
	sort.Strings(dead)
	return dead, nil
}

// methodSig renders a method's name and signature, without receiver or
// parameter names, with every type qualified by its package path.
func methodSig(m *types.Func) string {
	sig := m.Type().(*types.Signature)
	var b strings.Builder
	b.WriteString(m.Name())
	for _, tuple := range []*types.Tuple{sig.Params(), sig.Results()} {
		b.WriteString("(")
		for j := 0; j < tuple.Len(); j++ {
			if j > 0 {
				b.WriteString(",")
			}
			if sig.Variadic() && tuple == sig.Params() && j == tuple.Len()-1 {
				b.WriteString("...")
			}
			b.WriteString(types.TypeString(tuple.At(j).Type(), nil))
		}
		b.WriteString(")")
	}
	return b.String()
}
