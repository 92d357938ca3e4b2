package query

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"patchindex/internal/core"
	"patchindex/internal/engine"
	"patchindex/internal/exec"
	"patchindex/internal/joinindex"
	"patchindex/internal/plan"
	"patchindex/internal/storage"
)

func idxOpts() core.Options { return core.Options{Design: core.DesignBitmap, ShardBits: 64} }

// factDim builds a two-table database: fact(fk,fv) with a NSC PatchIndex
// on fk, and dim(dk,dv) loaded sorted by dk. corrupt values of fk are
// overwritten with 0, creating NSC exceptions.
func factDim(t *testing.T, factRows, dimRows, corrupt, parts int, dimVal func(i int) int64) *engine.Database {
	t.Helper()
	db := engine.NewDatabase()
	fact, err := db.CreateTable("fact", storage.Schema{
		{Name: "fk", Kind: storage.KindInt64},
		{Name: "fv", Kind: storage.KindInt64},
	}, parts)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	rows := make([]storage.Row, factRows)
	for i := range rows {
		rows[i] = storage.Row{storage.I64(int64(i % dimRows)), storage.I64(int64(i * 3))}
	}
	// Keys cycle 0..dimRows-1 repeatedly; within a partition that is not
	// sorted, so make them sorted first, then corrupt a few.
	sort.Slice(rows, func(i, j int) bool { return rows[i][0].I < rows[j][0].I })
	for c := 0; c < corrupt; c++ {
		rows[rng.Intn(factRows)][0] = storage.I64(0)
	}
	fact.Load(rows)
	if err := fact.CreatePatchIndex("fk", core.NearlySorted, idxOpts()); err != nil {
		t.Fatal(err)
	}
	dim, err := db.CreateTable("dim", storage.Schema{
		{Name: "dk", Kind: storage.KindInt64},
		{Name: "dv", Kind: storage.KindInt64},
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	drows := make([]storage.Row, dimRows)
	for i := range drows {
		drows[i] = storage.Row{storage.I64(int64(i)), storage.I64(dimVal(i))}
	}
	dim.Load(drows)
	return db
}

func rowsKey(rows []storage.Row) string {
	parts := make([]string, len(rows))
	for i, r := range rows {
		var b strings.Builder
		for _, v := range r {
			switch v.Kind {
			case storage.KindInt64:
				fmt.Fprintf(&b, "%d|", v.I)
			case storage.KindFloat64:
				fmt.Fprintf(&b, "%.4f|", v.F)
			default:
				fmt.Fprintf(&b, "%s|", v.S)
			}
		}
		parts[i] = b.String()
	}
	sort.Strings(parts)
	return strings.Join(parts, "\n")
}

func mustRun(t *testing.T, db *engine.Database, p *Plan, opts Options) ([]storage.Row, *Compiled) {
	t.Helper()
	c, err := Run(db, p, opts)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	defer c.Root.Close()
	rows, err := exec.Collect(c.Root)
	if err != nil {
		t.Fatalf("Collect: %v", err)
	}
	return rows, c
}

func TestScanWhereProject(t *testing.T) {
	db := engine.NewDatabase()
	tb, _ := db.CreateTable("t", storage.Schema{
		{Name: "a", Kind: storage.KindInt64},
		{Name: "b", Kind: storage.KindString},
		{Name: "c", Kind: storage.KindFloat64},
	}, 2)
	rows := []storage.Row{
		{storage.I64(1), storage.Str("x"), storage.F64(1.5)},
		{storage.I64(2), storage.Str("y"), storage.F64(2.5)},
		{storage.I64(3), storage.Str("x"), storage.F64(3.5)},
		{storage.I64(4), storage.Str("z"), storage.F64(4.5)},
	}
	tb.Load(rows)

	p := From("t", "a", "b", "c").
		Where(And(Ge(Col("a"), Int(2)), In(Col("b"), Str("x"), Str("z")))).
		Project("b", "a")
	got, _ := mustRun(t, db, p, Options{})
	want := []storage.Row{
		{storage.Str("x"), storage.I64(3)},
		{storage.Str("z"), storage.I64(4)},
	}
	if rowsKey(got) != rowsKey(want) {
		t.Fatalf("got\n%s\nwant\n%s", rowsKey(got), rowsKey(want))
	}
}

func TestMapAggregateOrderLimit(t *testing.T) {
	db := engine.NewDatabase()
	tb, _ := db.CreateTable("t", storage.Schema{
		{Name: "g", Kind: storage.KindInt64},
		{Name: "v", Kind: storage.KindFloat64},
	}, 1)
	var rows []storage.Row
	for i := 0; i < 100; i++ {
		rows = append(rows, storage.Row{storage.I64(int64(i % 4)), storage.F64(float64(i))})
	}
	tb.Load(rows)

	p := From("t", "g", "v").
		Map("v2", Mul(Col("v"), Float(2))).
		Aggregate([]string{"g"}, Sum(Col("v2"), "s"), CountAll("n")).
		OrderBy(Desc("s")).
		Limit(2)
	got, _ := mustRun(t, db, p, Options{})
	if len(got) != 2 {
		t.Fatalf("limit: got %d rows", len(got))
	}
	// Group g sums 2*(g + g+4 + ... + g+96) = 2*(25g + 1200); g=3 largest.
	if got[0][0].I != 3 || got[1][0].I != 2 {
		t.Fatalf("order: got groups %d,%d want 3,2", got[0][0].I, got[1][0].I)
	}
	if got[0][1].F != 2*(25*3+1200) {
		t.Fatalf("sum: got %v", got[0][1].F)
	}
	if got[0][2].I != 25 {
		t.Fatalf("count: got %v", got[0][2].I)
	}
}

// TestJoinModesAgree checks the same logical join plan produces identical
// result sets under every access path, on both a low- and a
// high-exception fact table.
func TestJoinModesAgree(t *testing.T) {
	for _, corrupt := range []int{5, 200} {
		db := factDim(t, 400, 20, corrupt, 2, func(i int) int64 { return int64(i * 7) })
		// Offer a joinindex too.
		ji := joinindex.Create(db.MustTable("fact").Store(), 0, db.MustTable("dim").Store(), 0)
		binding := JoinIndexBinding{FactTable: "fact", FactKey: "fk", DimTable: "dim", DimKey: "dk", JI: ji}

		p := From("fact", "fk", "fv").
			Where(Lt(Col("fv"), Int(900))).
			Join(From("dim", "dk", "dv"), "fk", "dk").
			Project("fk", "fv", "dv")

		ref, c := mustRun(t, db, p, Options{Mode: ForceReference})
		if len(c.Decisions) != 1 || c.Decisions[0].Access != plan.AccessReference {
			t.Fatalf("corrupt=%d: reference decisions %+v", corrupt, c.Decisions)
		}
		for _, opts := range []Options{
			{Mode: ForcePatchIndex},
			{Mode: ForcePatchIndex, ZeroBranchPruning: true},
			{Mode: ForceJoinIndex, JoinIndexes: []JoinIndexBinding{binding}},
			{Mode: Auto, JoinIndexes: []JoinIndexBinding{binding}},
		} {
			got, _ := mustRun(t, db, p, opts)
			if rowsKey(got) != rowsKey(ref) {
				t.Fatalf("corrupt=%d mode=%v: results differ from reference", corrupt, opts.Mode)
			}
		}
	}
}

// TestProbeSideJoinComputedOnce: a join step on the fact spine builds
// its subtree once per query, however many fact streams apply the step —
// one per partition in the reference plan, two in the patch plan, plus
// the validation pass — so exactly one scan reads the side table, once.
func TestProbeSideJoinComputedOnce(t *testing.T) {
	db := factDim(t, 400, 20, 5, 4, func(i int) int64 { return int64(i * 7) })
	side, err := db.CreateTable("side", storage.Schema{
		{Name: "sk", Kind: storage.KindInt64},
		{Name: "sv", Kind: storage.KindInt64},
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	const sideRows = 50
	srows := make([]storage.Row, sideRows)
	for i := range srows {
		srows[i] = storage.Row{storage.I64(int64(i * 6)), storage.I64(int64(i))}
	}
	side.Load(srows)
	p := From("fact", "fk", "fv").
		Join(From("side", "sk", "sv"), "fv", "sk").
		Join(From("dim", "dk", "dv"), "fk", "dk")
	var answers []string
	for mode, access := range map[Mode]plan.Access{ForceReference: plan.AccessReference, ForcePatchIndex: plan.AccessPatchIndex} {
		got, c := mustRun(t, db, p, Options{Mode: mode})
		if len(got) == 0 || len(c.Decisions) != 1 || c.Decisions[0].Access != access {
			t.Fatalf("mode %v: %d rows, decisions %+v", mode, len(got), c.Decisions)
		}
		answers = append(answers, rowsKey(got))
		var scans, visited int
		for _, s := range c.Scans {
			if s.Schema()[0].Name == "sk" {
				scans++
				visited += s.RowsVisited
			}
		}
		if scans != 1 || visited != sideRows {
			t.Fatalf("mode %v: %d scans of the side table visited %d rows, want 1 scan of %d rows", mode, scans, visited, sideRows)
		}
	}
	if answers[0] != answers[1] {
		t.Fatal("the patch plan's result differs from the reference plan's")
	}
}

// TestJoinBreakEvenSwitch pins the acceptance criterion: the optimizer
// switches between the patch-index join and the reference join as the
// fact table's exception rate crosses the cost model's break-even.
func TestJoinBreakEvenSwitch(t *testing.T) {
	accessFor := func(corrupt int) Decision {
		db := factDim(t, 400, 20, corrupt, 1, func(i int) int64 { return int64(i) })
		p := From("fact", "fk", "fv").Join(From("dim", "dk", "dv"), "fk", "dk")
		_, c := mustRun(t, db, p, Options{Mode: Auto})
		if len(c.Decisions) != 1 {
			t.Fatalf("want 1 decision, got %+v", c.Decisions)
		}
		return c.Decisions[0]
	}

	low := accessFor(5)
	if low.Access != plan.AccessPatchIndex {
		t.Fatalf("low exception rate (%d patches): chose %v, costs %+v", low.Patches, low.Access, low.Costs)
	}
	high := accessFor(250)
	if high.Access != plan.AccessReference {
		t.Fatalf("high exception rate (%d patches): chose %v, costs %+v", high.Patches, high.Access, high.Costs)
	}
	// The decisions must be exactly what the cost model dictates for the
	// recorded statistics.
	for _, d := range []Decision{low, high} {
		want, _ := plan.ChooseJoin(d.FactRows, d.Patches, d.DimRows, true, false)
		if d.Access != want {
			t.Fatalf("decision %v disagrees with ChooseJoin %v for %+v", d.Access, want, d)
		}
		if d.Forced {
			t.Fatalf("Auto decision marked forced: %+v", d)
		}
	}
}

// TestCardinalityFeedbackFlip drives the adaptive loop: the first
// compilation underestimates the dimension subtree (selective-looking
// filter that actually keeps most rows), picks the patch-index join, and
// meters the real cardinality; the recompilation sees the corrected
// estimate and flips to the reference join. Results stay identical.
func TestCardinalityFeedbackFlip(t *testing.T) {
	// dim: 3000 rows, dv=7 on 2500 of them. Eq selectivity is 0.1, so the
	// filtered dim estimate is 300 (patch join wins); actually 2500 rows
	// survive (reference join wins).
	db := factDim(t, 400, 3000, 5, 1, func(i int) int64 {
		if i < 2500 {
			return 7
		}
		return 0
	})
	ch := plan.NewChooser()
	p := From("fact", "fk", "fv").
		Join(From("dim", "dk", "dv").Where(Eq(Col("dv"), Int(7))), "fk", "dk")
	opts := Options{Mode: Auto, Chooser: ch}

	first, c1 := mustRun(t, db, p, opts)
	if c1.Decisions[0].Access != plan.AccessPatchIndex {
		t.Fatalf("first run: chose %v (costs %+v), want patchindex", c1.Decisions[0].Access, c1.Decisions[0].Costs)
	}
	if f := ch.Factor(p.n.(*joinNode).right.fingerprint()); f < 5 {
		t.Fatalf("feedback factor %v, want the ~8x underestimate observed", f)
	}

	second, c2 := mustRun(t, db, p, opts)
	if c2.Decisions[0].Access != plan.AccessReference {
		t.Fatalf("second run: chose %v (dim estimate %d), want reference after feedback",
			c2.Decisions[0].Access, c2.Decisions[0].DimRows)
	}
	if rowsKey(first) != rowsKey(second) {
		t.Fatal("results changed across the access-path flip")
	}
}

// TestMinMaxPruning checks a pushed-down range predicate skips storage
// blocks: the scan visits far fewer rows than the table holds, and the
// result is exactly the rows of the loaded data the predicate selects.
func TestMinMaxPruning(t *testing.T) {
	db := engine.NewDatabase()
	tb, _ := db.CreateTable("t", storage.Schema{
		{Name: "k", Kind: storage.KindInt64},
		{Name: "v", Kind: storage.KindInt64},
	}, 2)
	const n = 16 * storage.BlockRows
	rows := make([]storage.Row, n)
	for i := range rows {
		rows[i] = storage.Row{storage.I64(int64(i)), storage.I64(int64(i) * 2)}
	}
	tb.Load(rows)

	p := From("t", "k", "v").Where(Between(Col("k"), Int(100), Int(199)))
	got, c := mustRun(t, db, p, Options{})
	if rowsKey(got) != rowsKey(rows[100:200]) {
		t.Fatalf("got %d rows, want the 100 loaded rows with k in [100, 199]", len(got))
	}
	var visited int
	for _, s := range c.Scans {
		visited += s.RowsVisited
	}
	if visited >= n/4 {
		t.Fatalf("pruning ineffective: visited %d of %d rows", visited, n)
	}
}

// TestMinMaxPruningAfterWrites checks that block summaries carried
// across snapshots stay right under writes. A query warms them; rows
// appended with keys only they cover must all be found while the scan
// still skips most blocks; after a delete and a modify, results must
// equal the same plan on a twin database that never ran a query before,
// and the plan with pruning defeated.
func TestMinMaxPruningAfterWrites(t *testing.T) {
	const n = 16*storage.BlockRows + 300 // partitions end in a partial block
	schema := storage.Schema{{Name: "k", Kind: storage.KindInt64}, {Name: "v", Kind: storage.KindInt64}}
	rowsFrom := func(lo, hi int) []storage.Row {
		rows := make([]storage.Row, 0, hi-lo)
		for i := lo; i < hi; i++ {
			rows = append(rows, storage.Row{storage.I64(int64(i)), storage.I64(int64(i) * 2)})
		}
		return rows
	}
	var dbs [2]*engine.Database // dbs[0] queried throughout, dbs[1] only at the end
	for i := range dbs {
		dbs[i] = engine.NewDatabase()
		tb, err := dbs[i].CreateTable("t", schema, 2)
		if err != nil {
			t.Fatal(err)
		}
		tb.Load(rowsFrom(0, n))
	}
	db := dbs[0]
	visited := func(c *Compiled) (v int) {
		for _, s := range c.Scans {
			v += s.RowsVisited
		}
		return v
	}
	if got, _ := mustRun(t, db, From("t", "k", "v").Where(Between(Col("k"), Int(100), Int(199))), Options{}); len(got) != 100 {
		t.Fatalf("warm-up query returned %d rows, want 100", len(got))
	}

	const m = 500
	for _, d := range dbs {
		if err := d.InsertRows("t", rowsFrom(n, n+m)); err != nil {
			t.Fatal(err)
		}
	}
	got, c := mustRun(t, db, From("t", "k", "v").Where(Between(Col("k"), Int(n), Int(n+m-1))), Options{})
	if rowsKey(got) != rowsKey(rowsFrom(n, n+m)) {
		t.Fatalf("after InsertRows: got %d rows, want the %d inserted", len(got), m)
	}
	if v := visited(c); v >= n/4 {
		t.Fatalf("after InsertRows: visited %d of %d rows", v, n+m)
	}

	for _, d := range dbs {
		if err := d.DeleteRowIDs("t", 0, []uint64{5, n / 2, n/2 + 1}); err != nil {
			t.Fatal(err)
		}
		if err := d.Modify("t", 1, []uint64{7, 100}, "k", []storage.Value{storage.I64(n + 1), storage.I64(n - 20)}); err != nil {
			t.Fatal(err)
		}
	}
	pred := Between(Col("k"), Int(n-40), Int(n+m-1))
	want, _ := mustRun(t, dbs[1], From("t", "k", "v").Where(pred), Options{})
	unpruned, c := mustRun(t, db, From("t", "k", "v").Map("kk", Col("k")).Where(Between(Col("kk"), Int(n-40), Int(n+m-1))).Project("k", "v"), Options{})
	if v := visited(c); v != n+m-3 {
		t.Fatalf("the plan with pruning defeated visited %d rows, want all %d", v, n+m-3)
	}
	got, c = mustRun(t, db, From("t", "k", "v").Where(pred), Options{})
	if rowsKey(got) != rowsKey(want) || rowsKey(got) != rowsKey(unpruned) {
		t.Fatalf("after delete and modify: got %d rows, twin %d, unpruned %d", len(got), len(want), len(unpruned))
	}
	// 40 old keys and m new ones, two new rows deleted, two rows modified into the range.
	if len(got) != 40+m {
		t.Fatalf("after delete and modify: got %d rows, want %d", len(got), 40+m)
	}
	if v := visited(c); v >= n/4 {
		t.Fatalf("after delete and modify: visited %d of %d rows", v, n+m-3)
	}
}

// TestSortDistinctChoosable exercises the index-accelerated ORDER BY and
// DISTINCT paths of the compiler against their generic lowerings.
func TestSortDistinctChoosable(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	vals := make([]int64, 4000)
	for i := range vals {
		vals[i] = int64(i)
	}
	for c := 0; c < 30; c++ {
		vals[rng.Intn(len(vals))] = int64(rng.Intn(4000))
	}

	db := engine.NewDatabase()
	nsc, _ := db.CreateTable("nsc", storage.Schema{{Name: "v", Kind: storage.KindInt64}}, 2)
	engine.LoadColumnInt64(nsc, vals)
	if err := nsc.CreatePatchIndex("v", core.NearlySorted, idxOpts()); err != nil {
		t.Fatal(err)
	}
	nuc, _ := db.CreateTable("nuc", storage.Schema{{Name: "v", Kind: storage.KindInt64}}, 2)
	engine.LoadColumnInt64(nuc, vals)
	if err := nuc.CreatePatchIndex("v", core.NearlyUnique, idxOpts()); err != nil {
		t.Fatal(err)
	}

	sorted := From("nsc", "v").OrderBy(Asc("v"))
	ref, c := mustRun(t, db, sorted, Options{Mode: ForceReference})
	if len(c.Decisions) != 1 || c.Decisions[0].Access != plan.AccessReference {
		t.Fatalf("sort reference decisions: %+v", c.Decisions)
	}
	for _, mode := range []Mode{ForcePatchIndex, Auto} {
		got, c := mustRun(t, db, sorted, Options{Mode: mode})
		if len(c.Decisions) != 1 {
			t.Fatalf("sort mode %v: decisions %+v", mode, c.Decisions)
		}
		for i := range got {
			if got[i][0].I != ref[i][0].I {
				t.Fatalf("sort mode %v: row %d = %d, want %d (access %v)",
					mode, i, got[i][0].I, ref[i][0].I, c.Decisions[0].Access)
			}
		}
	}

	distinct := From("nuc", "v").Distinct("v")
	dref, _ := mustRun(t, db, distinct, Options{Mode: ForceReference})
	for _, mode := range []Mode{ForcePatchIndex, Auto} {
		got, c := mustRun(t, db, distinct, Options{Mode: mode})
		if rowsKey(got) != rowsKey(dref) {
			t.Fatalf("distinct mode %v (access %v): result differs", mode, c.Decisions[0].Access)
		}
	}
	// Forcing the patch plan on a column without a PatchIndex runs the
	// reference lowering and says so.
	plain, _ := db.CreateTable("plain", storage.Schema{{Name: "v", Kind: storage.KindInt64}}, 2)
	engine.LoadColumnInt64(plain, vals)
	for _, p := range []*Plan{From("plain", "v").OrderBy(Asc("v")), From("plain", "v").Distinct("v")} {
		want, c := mustRun(t, db, p, Options{Mode: ForceReference})
		if len(c.Decisions) != 0 {
			t.Fatalf("%s: reference mode recorded %+v on an unindexed column", p.Fingerprint(), c.Decisions)
		}
		got, c := mustRun(t, db, p, Options{Mode: ForcePatchIndex})
		if len(c.Decisions) != 1 || c.Decisions[0].Access != plan.AccessReference || !c.Decisions[0].Forced {
			t.Fatalf("%s: forced patch plan without an index: decisions %+v", p.Fingerprint(), c.Decisions)
		}
		if rowsKey(got) != rowsKey(want) {
			t.Fatalf("%s: fallback result differs from the reference plan", p.Fingerprint())
		}
	}
	// Descending over an ascending index must not take the patch plan.
	desc := From("nsc", "v").OrderBy(Desc("v"))
	got, c2 := mustRun(t, db, desc, Options{Mode: ForcePatchIndex})
	if len(c2.Decisions) != 0 {
		t.Fatalf("desc sort over asc index recorded a choosable decision: %+v", c2.Decisions)
	}
	for i := range got {
		if got[i][0].I != ref[len(ref)-1-i][0].I {
			t.Fatalf("desc sort wrong at %d", i)
		}
	}
}

// TestAutoMatchesReferenceProperty is the randomized property test:
// arbitrary plans over seeded random data must produce identical result
// sets under Auto and ForceReference.
func TestAutoMatchesReferenceProperty(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		factRows := 200 + rng.Intn(800)
		dimRows := 5 + rng.Intn(50)
		corrupt := rng.Intn(factRows / 2)
		db := factDim(t, factRows, dimRows, corrupt, 1+rng.Intn(3), func(i int) int64 {
			return int64(i * 13 % 97)
		})

		cut := int64(rng.Intn(3 * factRows))
		p := From("fact", "fk", "fv").
			Where(Lt(Col("fv"), Int(cut))).
			Join(From("dim", "dk", "dv"), "fk", "dk").
			Map("score", Add(Col("fv"), Col("dv"))).
			Aggregate([]string{"dk"}, Sum(Col("score"), "s"), CountAll("n"))

		ref, _ := mustRun(t, db, p, Options{Mode: ForceReference})
		auto, _ := mustRun(t, db, p, Options{Mode: Auto, ZeroBranchPruning: rng.Intn(2) == 0})
		if rowsKey(ref) != rowsKey(auto) {
			t.Fatalf("seed %d: Auto result differs from ForceReference", seed)
		}
	}
}

func TestForceJoinIndexWithoutBinding(t *testing.T) {
	db := factDim(t, 50, 10, 0, 1, func(i int) int64 { return int64(i) })
	p := From("fact", "fk", "fv").Join(From("dim", "dk", "dv"), "fk", "dk")
	if _, err := Run(db, p, Options{Mode: ForceJoinIndex}); err == nil {
		t.Fatal("ForceJoinIndex without a binding did not error")
	}
}

// badPlans are plans over factDim's tables that must not compile.
func badPlans() []*Plan {
	return []*Plan{
		From("missing", "x"),
		From("fact", "fk").Join(From("missing", "x"), "fk", "x"), // fact captured, then rejected
		From("fact", "nope"),
		From("fact", "fk").Where(Eq(Col("gone"), Int(1))),
		From("fact", "fk", "fv").Project("gone"),
		From("fact", "fk", "fv").Join(From("dim", "dk"), "fv2", "dk"),
		From("fact", "fk", "fv").OrderBy(Asc("gone")),
		From("fact", "fk").Where(Add(Col("fk"), Int(1))), // non-boolean predicate
	}
}

func TestCompileErrors(t *testing.T) {
	db := factDim(t, 50, 10, 0, 1, func(i int) int64 { return int64(i) })
	for i, p := range badPlans() {
		if _, err := Run(db, p, Options{}); err == nil {
			t.Fatalf("case %d: no error", i)
		}
	}
}

// TestRunReleasesSnapshot pins the release discipline of the one query
// entry point: a Run result holds its snapshot's generation refs from
// Run returning until the root is drained or the result is closed —
// exactly once, however often Close is called — and a rejected plan
// retains nothing. The table's live snapshot ref count is the probe.
func TestRunReleasesSnapshot(t *testing.T) {
	db := factDim(t, 50, 10, 0, 2, func(i int) int64 { return int64(i) })
	free := func() bool {
		for _, name := range []string{"fact", "dim"} {
			if db.MustTable(name).Store().LiveSnapshotRefs() != 0 {
				return false
			}
		}
		return true
	}
	join := From("fact", "fk", "fv").Join(From("dim", "dk", "dv"), "fk", "dk")
	run := func() *Compiled {
		t.Helper()
		c, err := Run(db, join, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if free() {
			t.Fatal("an open, undrained Run result holds no snapshot ref")
		}
		return c
	}

	c := run()
	if _, err := exec.Collect(c.Root); err != nil {
		t.Fatal(err)
	}
	if !free() {
		t.Fatal("drained Run result still holds its snapshot")
	}

	c = run()
	c.Close()
	if !free() {
		t.Fatal("Run result closed without draining still holds its snapshot")
	}

	// A second Close must not release what another result still holds.
	c, other := run(), run()
	c.Close()
	c.Close()
	if free() {
		t.Fatal("double Close released another result's snapshot")
	}
	other.Close()
	if !free() {
		t.Fatal("snapshot refs wedged after every result was closed")
	}

	for i, p := range badPlans() {
		if _, err := Run(db, p, Options{}); err == nil {
			t.Fatalf("bad plan %d: no error", i)
		}
		if !free() {
			t.Fatalf("bad plan %d: rejected Run retained a snapshot", i)
		}
	}
}

func TestTablesAndFingerprint(t *testing.T) {
	p := From("b", "x").Join(From("a", "y"), "x", "y")
	tabs := p.Tables()
	if len(tabs) != 2 || tabs[0] != "a" || tabs[1] != "b" {
		t.Fatalf("Tables() = %v", tabs)
	}
	q := From("b", "x").Join(From("a", "y"), "x", "y")
	if p.Fingerprint() != q.Fingerprint() {
		t.Fatal("structurally identical plans have different fingerprints")
	}
	if p.Fingerprint() == From("b", "x").Join(From("a", "z"), "x", "z").Fingerprint() {
		t.Fatal("different plans share a fingerprint")
	}
}
