package exec

import (
	"runtime"
	"sort"
	"testing"

	"patchindex/internal/pdt"
	"patchindex/internal/storage"
)

func viewWithInts(t *testing.T, vals []int64) *pdt.View {
	t.Helper()
	schema := storage.Schema{{Name: "v", Kind: storage.KindInt64}}
	p := storage.NewPartition(schema)
	for _, v := range vals {
		p.AppendRow(storage.Row{storage.I64(v)})
	}
	return pdt.NewView(p, nil)
}

func collectInt64(t *testing.T, op Operator, col int) []int64 {
	t.Helper()
	rows, err := Collect(op)
	if err != nil {
		t.Fatalf("Collect: %v", err)
	}
	out := make([]int64, len(rows))
	for i, r := range rows {
		out[i] = r[col].I
	}
	return out
}

func seq(n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(i)
	}
	return out
}

func TestScanProducesAllRowsWithRowIDs(t *testing.T) {
	v := viewWithInts(t, seq(3000))
	s := NewScan(v, []int{0})
	var rows, lastRID int64 = 0, -1
	for {
		b, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			break
		}
		if b.Len() > BatchSize {
			t.Fatalf("batch of %d tuples exceeds BatchSize", b.Len())
		}
		for i := 0; i < b.Len(); i++ {
			if int64(b.RowIDs[i]) != lastRID+1 {
				t.Fatalf("rowID %d after %d", b.RowIDs[i], lastRID)
			}
			lastRID = int64(b.RowIDs[i])
			if b.Cols[0].I64[i] != lastRID {
				t.Fatalf("value %d at rowID %d", b.Cols[0].I64[i], lastRID)
			}
			rows++
		}
	}
	if rows != 3000 {
		t.Fatalf("scanned %d rows, want 3000", rows)
	}
	s.Close()
}

func TestScanRangePruning(t *testing.T) {
	// Values equal row index, so minmax blocks are tight and a narrow
	// range prunes most of the table.
	v := viewWithInts(t, seq(10*storage.BlockRows))
	s := NewScan(v, []int{0})
	s.SetPruneColumn(0)
	s.SetRanges([]storage.Range{{Min: 5000, Max: 5001}})
	got := collectInt64(t, s, 0)
	found := false
	for _, x := range got {
		if x == 5000 {
			found = true
		}
	}
	if !found {
		t.Fatal("pruned scan lost matching row")
	}
	if s.RowsVisited >= 10*storage.BlockRows {
		t.Fatalf("pruning visited %d rows (no pruning happened)", s.RowsVisited)
	}
	if s.RowsVisited > 2*storage.BlockRows {
		t.Fatalf("pruning visited %d rows, want <= %d", s.RowsVisited, 2*storage.BlockRows)
	}
}

// TestScanPrunedRowIDsAllocateOneBatch scans a 64k-row partition pruned
// to four blocks: every emitted rowID is its row's position, and a scan
// allocates far less than one rowID per partition row would (8 B × 64k
// = 512 KiB).
func TestScanPrunedRowIDsAllocateOneBatch(t *testing.T) {
	const n = 64 * storage.BlockRows
	v := viewWithInts(t, seq(n))
	ranges := []storage.Range{{Min: 10 * storage.BlockRows, Max: 12*storage.BlockRows + 7}, {Min: 40000, Max: 40100}}
	scan := func() int {
		s := NewScan(v, []int{0})
		defer s.Close()
		s.SetPruneColumn(0)
		s.SetRanges(ranges)
		rows := 0
		for {
			b, err := s.Next()
			if err != nil {
				t.Fatal(err)
			}
			if b == nil {
				return rows
			}
			for i, rid := range b.RowIDs {
				if int64(rid) != b.Cols[0].I64[i] {
					t.Fatalf("rowID %d on the row at position %d", rid, b.Cols[0].I64[i])
				}
			}
			rows += b.Len()
		}
	}
	// The first scan builds the partition's summary; the rest reuse it.
	if got := scan(); got != 4*storage.BlockRows {
		t.Fatalf("pruned scan emitted %d rows, want the %d of four blocks", got, 4*storage.BlockRows)
	}
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		scan()
	}
	runtime.ReadMemStats(&after)
	if perScan := (after.TotalAlloc - before.TotalAlloc) / runs; perScan >= 64<<10 {
		t.Fatalf("a pruned scan allocates %d bytes, want < 64 KiB", perScan)
	}
}

func TestScanPruningDisabledWithPendingDeletes(t *testing.T) {
	// Deletes shift base positions, so the minmax information is stale
	// and pruning must be disabled.
	schema := storage.Schema{{Name: "v", Kind: storage.KindInt64}}
	p := storage.NewPartition(schema)
	for _, x := range seq(2 * storage.BlockRows) {
		p.AppendRow(storage.Row{storage.I64(x)})
	}
	d := pdt.NewDelta(schema, p.NumRows())
	d.Delete(0)
	v := pdt.NewView(p, d)
	s := NewScan(v, []int{0})
	s.SetPruneColumn(0)
	s.SetRanges([]storage.Range{{Min: 1, Max: 1}})
	got := collectInt64(t, s, 0)
	if len(got) != 2*storage.BlockRows-1 {
		t.Fatalf("scan with pending deletes returned %d rows, want full %d", len(got), 2*storage.BlockRows-1)
	}
}

func TestScanPruningWithInsertsOnlyDeltaScansTail(t *testing.T) {
	// With an inserts-only delta the base blocks are pruned and the
	// insert tail is scanned in full — the shape the insert handling
	// query depends on (Fig. 5).
	schema := storage.Schema{{Name: "v", Kind: storage.KindInt64}}
	p := storage.NewPartition(schema)
	for _, x := range seq(4 * storage.BlockRows) {
		p.AppendRow(storage.Row{storage.I64(x)})
	}
	d := pdt.NewDelta(schema, p.NumRows())
	d.Insert(storage.Row{storage.I64(-1)})
	v := pdt.NewView(p, d)
	s := NewScan(v, []int{0})
	s.SetPruneColumn(0)
	s.SetRanges([]storage.Range{{Min: 0, Max: 0}})
	got := collectInt64(t, s, 0)
	// Block 0 plus the one inserted row.
	if len(got) != storage.BlockRows+1 {
		t.Fatalf("pruned scan with insert tail returned %d rows, want %d", len(got), storage.BlockRows+1)
	}
	if got[len(got)-1] != -1 {
		t.Fatal("insert tail not scanned")
	}
	if s.RowsVisited > storage.BlockRows+1 {
		t.Fatalf("visited %d rows, want pruning", s.RowsVisited)
	}
}

type patchSet map[uint64]bool

func (p patchSet) IsPatch(rid uint64) bool { return p[rid] }

func TestPatchFilterModes(t *testing.T) {
	v := viewWithInts(t, seq(100))
	patches := patchSet{3: true, 50: true, 99: true}

	ex := NewPatchFilter(NewScan(v, []int{0}), patches, ExcludePatches)
	got := collectInt64(t, ex, 0)
	if len(got) != 97 {
		t.Fatalf("exclude_patches kept %d rows, want 97", len(got))
	}
	for _, x := range got {
		if patches[uint64(x)] {
			t.Fatalf("exclude_patches leaked patch %d", x)
		}
	}

	use := NewPatchFilter(NewScan(v, []int{0}), patches, UsePatches)
	got = collectInt64(t, use, 0)
	if len(got) != 3 {
		t.Fatalf("use_patches kept %d rows, want 3", len(got))
	}
	if ExcludePatches.String() != "exclude_patches" || UsePatches.String() != "use_patches" {
		t.Fatal("PatchMode names wrong")
	}
}

func TestFilterPredicates(t *testing.T) {
	v := viewWithInts(t, seq(100))
	f := NewFilter(NewScan(v, []int{0}), Int64Range(0, 10, 19))
	got := collectInt64(t, f, 0)
	if len(got) != 10 || got[0] != 10 || got[9] != 19 {
		t.Fatalf("Int64Range result = %v", got)
	}
	f2 := NewFilter(NewScan(v, []int{0}), And(Int64Greater(0, 90), Int64Less(0, 95)))
	got = collectInt64(t, f2, 0)
	if len(got) != 4 {
		t.Fatalf("And result = %v", got)
	}
}

func TestStringPredicates(t *testing.T) {
	schema := storage.Schema{{Name: "s", Kind: storage.KindString}}
	src := NewVecSource(schema, []Vec{{Kind: storage.KindString, Str: []string{"a", "b", "c", "b"}}}, nil)
	f := NewFilter(src, StrEq(0, "b"))
	rows, err := Collect(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("StrEq matched %d rows, want 2", len(rows))
	}
	src2 := NewVecSource(schema, []Vec{{Kind: storage.KindString, Str: []string{"a", "b", "c", "b"}}}, nil)
	f2 := NewFilter(src2, StrIn(0, "a", "c"))
	rows, err = Collect(f2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("StrIn matched %d rows, want 2", len(rows))
	}
}

func TestProjectAndRowIDProject(t *testing.T) {
	schema := storage.Schema{
		{Name: "a", Kind: storage.KindInt64},
		{Name: "b", Kind: storage.KindString},
	}
	p := storage.NewPartition(schema)
	p.AppendRow(storage.Row{storage.I64(1), storage.Str("x")})
	p.AppendRow(storage.Row{storage.I64(2), storage.Str("y")})
	v := pdt.NewView(p, nil)

	proj := NewProject(NewScan(v, []int{0, 1}), []int{1})
	rows, err := Collect(proj)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0][0].S != "x" {
		t.Fatalf("Project result = %v", rows)
	}

	rid := NewRowIDProject(NewScan(v, []int{0}), "rid")
	got := collectInt64(t, rid, 0)
	if len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("RowIDProject result = %v", got)
	}
}

func TestUnionConcatenates(t *testing.T) {
	a := NewInt64Source("v", []int64{1, 2}, nil)
	b := NewInt64Source("v", []int64{3}, nil)
	u := NewUnion(a, b)
	got := collectInt64(t, u, 0)
	if len(got) != 3 || got[2] != 3 {
		t.Fatalf("Union result = %v", got)
	}
}

func TestLimit(t *testing.T) {
	src := NewInt64Source("v", seq(5000), nil)
	got := collectInt64(t, NewLimit(src, 10), 0)
	if len(got) != 10 || got[9] != 9 {
		t.Fatalf("Limit result = %v", got)
	}
}

func TestDistinct(t *testing.T) {
	vals := []int64{5, 1, 5, 2, 1, 5}
	d := NewDistinct(NewInt64Source("v", vals, nil), []int{0})
	got := collectInt64(t, d, 0)
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	want := []int64{1, 2, 5}
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 5 {
		t.Fatalf("Distinct = %v, want %v", got, want)
	}
	if d.GroupsBuilt != 3 {
		t.Fatalf("GroupsBuilt = %d, want 3", d.GroupsBuilt)
	}
}

func TestDistinctStringKeys(t *testing.T) {
	schema := storage.Schema{{Name: "s", Kind: storage.KindString}}
	src := NewVecSource(schema, []Vec{{Kind: storage.KindString, Str: []string{"a", "b", "a", "ab", "b"}}}, nil)
	d := NewDistinct(src, []int{0})
	rows, err := Collect(d)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("string distinct returned %d rows, want 3", len(rows))
	}
}

func TestHashAggregateFunctions(t *testing.T) {
	schema := storage.Schema{
		{Name: "g", Kind: storage.KindInt64},
		{Name: "x", Kind: storage.KindInt64},
		{Name: "f", Kind: storage.KindFloat64},
	}
	src := NewVecSource(schema, []Vec{
		{Kind: storage.KindInt64, I64: []int64{1, 1, 2, 2, 2}},
		{Kind: storage.KindInt64, I64: []int64{10, 20, 1, 2, 3}},
		{Kind: storage.KindFloat64, F64: []float64{1.5, 2.5, 1, 1, 1}},
	}, nil)
	agg := NewHashAggregate(src, []int{0}, []AggSpec{
		{Func: AggCount, Name: "cnt"},
		{Func: AggSum, Col: 1, Name: "sum_x"},
		{Func: AggSum, Col: 2, Name: "sum_f"},
		{Func: AggMin, Col: 1, Name: "min_x"},
		{Func: AggMax, Col: 1, Name: "max_x"},
	})
	rows, err := Collect(agg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("groups = %d, want 2", len(rows))
	}
	byG := map[int64]storage.Row{}
	for _, r := range rows {
		byG[r[0].I] = r
	}
	g1 := byG[1]
	if g1[1].I != 2 || g1[2].I != 30 || g1[3].F != 4.0 || g1[4].I != 10 || g1[5].I != 20 {
		t.Fatalf("group 1 = %v", g1)
	}
	g2 := byG[2]
	if g2[1].I != 3 || g2[2].I != 6 || g2[4].I != 1 || g2[5].I != 3 {
		t.Fatalf("group 2 = %v", g2)
	}
}

func TestHashAggregateMultiColumnKey(t *testing.T) {
	schema := storage.Schema{
		{Name: "a", Kind: storage.KindInt64},
		{Name: "b", Kind: storage.KindString},
	}
	src := NewVecSource(schema, []Vec{
		{Kind: storage.KindInt64, I64: []int64{1, 1, 2, 1}},
		{Kind: storage.KindString, Str: []string{"x", "y", "x", "x"}},
	}, nil)
	agg := NewHashAggregate(src, []int{0, 1}, []AggSpec{{Func: AggCount, Name: "cnt"}})
	rows, err := Collect(agg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("groups = %d, want 3", len(rows))
	}
}

func TestSortAscDesc(t *testing.T) {
	vals := []int64{5, 1, 4, 1, 3}
	s := NewSort(NewInt64Source("v", vals, nil), SortKey{Col: 0})
	got := collectInt64(t, s, 0)
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Fatalf("asc sort = %v", got)
	}
	s2 := NewSort(NewInt64Source("v", vals, nil), SortKey{Col: 0, Desc: true})
	got = collectInt64(t, s2, 0)
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] > got[j] }) {
		t.Fatalf("desc sort = %v", got)
	}
}

func TestSortStableMultiKey(t *testing.T) {
	schema := storage.Schema{
		{Name: "a", Kind: storage.KindInt64},
		{Name: "b", Kind: storage.KindInt64},
	}
	src := NewVecSource(schema, []Vec{
		{Kind: storage.KindInt64, I64: []int64{2, 1, 2, 1}},
		{Kind: storage.KindInt64, I64: []int64{9, 8, 7, 6}},
	}, nil)
	s := NewSort(src, SortKey{Col: 0}, SortKey{Col: 1, Desc: true})
	rows, err := Collect(s)
	if err != nil {
		t.Fatal(err)
	}
	want := [][2]int64{{1, 8}, {1, 6}, {2, 9}, {2, 7}}
	for i, w := range want {
		if rows[i][0].I != w[0] || rows[i][1].I != w[1] {
			t.Fatalf("row %d = %v, want %v", i, rows[i], w)
		}
	}
}

func TestMergeCombinesSortedStreams(t *testing.T) {
	a := NewInt64Source("v", []int64{1, 4, 7}, nil)
	b := NewInt64Source("v", []int64{2, 3, 8}, nil)
	c := NewInt64Source("v", []int64{0, 9}, nil)
	m := NewMerge(0, false, a, b, c)
	got := collectInt64(t, m, 0)
	want := []int64{0, 1, 2, 3, 4, 7, 8, 9}
	if len(got) != len(want) {
		t.Fatalf("Merge = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Merge = %v, want %v", got, want)
		}
	}
}

func TestHashJoinBasic(t *testing.T) {
	probe := NewInt64Source("pk", []int64{1, 2, 3, 4, 2}, nil)
	build := NewVecSource(
		storage.Schema{{Name: "bk", Kind: storage.KindInt64}, {Name: "bv", Kind: storage.KindInt64}},
		[]Vec{
			{Kind: storage.KindInt64, I64: []int64{2, 4, 9}},
			{Kind: storage.KindInt64, I64: []int64{20, 40, 90}},
		}, nil)
	j := NewHashJoin(probe, build, 0, 0)
	rows, err := Collect(j)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("join produced %d rows, want 3", len(rows))
	}
	// Probe order preserved: 2, 4, 2.
	if rows[0][0].I != 2 || rows[1][0].I != 4 || rows[2][0].I != 2 {
		t.Fatalf("probe order not preserved: %v", rows)
	}
	if rows[0][2].I != 20 || rows[1][2].I != 40 {
		t.Fatalf("joined values wrong: %v", rows)
	}
	if j.BuildRows != 3 {
		t.Fatalf("BuildRows = %d, want 3", j.BuildRows)
	}
}

func TestHashJoinDuplicateBuildKeys(t *testing.T) {
	probe := NewInt64Source("pk", []int64{7}, nil)
	build := NewInt64Source("bk", []int64{7, 7, 7}, nil)
	j := NewHashJoin(probe, build, 0, 0)
	n, err := Count(j)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("join produced %d rows, want 3", n)
	}
}

func TestHashJoinRangePropagationPrunesScan(t *testing.T) {
	v := viewWithInts(t, seq(20*storage.BlockRows))
	scan := NewScan(v, []int{0})
	scan.SetPruneColumn(0)
	build := NewInt64Source("bk", []int64{100, 101, 102}, nil)
	j := NewHashJoin(scan, build, 0, 0)
	j.EnableRangePropagation(scan, 64)
	n, err := Count(j)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("join produced %d rows, want 3", n)
	}
	if scan.RowsVisited > 2*storage.BlockRows {
		t.Fatalf("DRP visited %d rows, want <= %d", scan.RowsVisited, 2*storage.BlockRows)
	}
}

func TestMergeJoinMatchesHashJoin(t *testing.T) {
	left := []int64{1, 2, 2, 5, 7, 7, 9}
	right := []int64{2, 2, 5, 7, 10}
	mj := NewMergeJoin(NewInt64Source("l", left, nil), NewInt64Source("r", right, nil), 0, 0)
	mjRows, err := Collect(mj)
	if err != nil {
		t.Fatal(err)
	}
	hj := NewHashJoin(NewInt64Source("l", left, nil), NewInt64Source("r", right, nil), 0, 0)
	hjRows, err := Collect(hj)
	if err != nil {
		t.Fatal(err)
	}
	if len(mjRows) != len(hjRows) {
		t.Fatalf("MergeJoin %d rows, HashJoin %d rows", len(mjRows), len(hjRows))
	}
	// 2x2 + 2x... left 2,2 × right 2,2 = 4; 5×5 = 1; 7,7×7 = 2 → 7 rows.
	if len(mjRows) != 7 {
		t.Fatalf("join rows = %d, want 7", len(mjRows))
	}
}

func TestMergeJoinEmptySides(t *testing.T) {
	mj := NewMergeJoin(NewInt64Source("l", nil, nil), NewInt64Source("r", []int64{1}, nil), 0, 0)
	n, err := Count(mj)
	if err != nil || n != 0 {
		t.Fatalf("empty left join: n=%d err=%v", n, err)
	}
	mj2 := NewMergeJoin(NewInt64Source("l", []int64{1}, nil), NewInt64Source("r", nil, nil), 0, 0)
	n, err = Count(mj2)
	if err != nil || n != 0 {
		t.Fatalf("empty right join: n=%d err=%v", n, err)
	}
}

func TestReuseCacheLoadsTwice(t *testing.T) {
	src := NewInt64Source("v", seq(3000), nil)
	cache := NewReuseCache(src)
	a := collectInt64(t, cache.Load(), 0)
	b := collectInt64(t, cache.Load(), 0)
	if len(a) != 3000 || len(b) != 3000 {
		t.Fatalf("loads returned %d and %d rows", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("loads disagree")
		}
	}
	if n, _ := cache.Rows(); n != 3000 {
		t.Fatalf("Rows = %d", n)
	}
}

// TestPaperDistinctPlanEquivalence is the cross-operator integration test
// for the paper's Fig. 2 distinct optimization: DISTINCT over the full
// table must equal (exclude_patches scan) UNION (use_patches -> DISTINCT)
// when patches cover all occurrences of duplicated values.
func TestPaperDistinctPlanEquivalence(t *testing.T) {
	vals := []int64{10, 11, 12, 10, 13, 11, 10, 14}
	// All occurrences of duplicated values are patches.
	patches := patchSet{}
	counts := map[int64]int{}
	for _, v := range vals {
		counts[v]++
	}
	for i, v := range vals {
		if counts[v] > 1 {
			patches[uint64(i)] = true
		}
	}
	v := viewWithInts(t, vals)

	// Reference plan: full distinct.
	ref := NewDistinct(NewScan(v, []int{0}), []int{0})
	want := collectInt64(t, ref, 0)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })

	// PatchIndex plan.
	exclude := NewPatchFilter(NewScan(v, []int{0}), patches, ExcludePatches)
	use := NewDistinct(NewPatchFilter(NewScan(v, []int{0}), patches, UsePatches), []int{0})
	pi := NewUnion(exclude, use)
	got := collectInt64(t, pi, 0)
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })

	if len(got) != len(want) {
		t.Fatalf("PatchIndex distinct = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("PatchIndex distinct = %v, want %v", got, want)
		}
	}
}

// TestPaperSortPlanEquivalence mirrors the sort optimization: the sorted
// stream of non-patches merged with sorted patches must equal a full sort.
func TestPaperSortPlanEquivalence(t *testing.T) {
	vals := []int64{1, 3, 99, 5, 7, 2, 9, 11, 4, 13}
	// LIS-style patch set: positions of 99, 2, 4 break the ascending run.
	patches := patchSet{2: true, 5: true, 8: true}
	v := viewWithInts(t, vals)

	ref := NewSort(NewScan(v, []int{0}), SortKey{Col: 0})
	want := collectInt64(t, ref, 0)

	exclude := NewPatchFilter(NewScan(v, []int{0}), patches, ExcludePatches)
	use := NewSort(NewPatchFilter(NewScan(v, []int{0}), patches, UsePatches), SortKey{Col: 0})
	pi := NewMerge(0, false, exclude, use)
	got := collectInt64(t, pi, 0)

	if len(got) != len(want) {
		t.Fatalf("lengths differ: %d vs %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("PatchIndex sort = %v, want %v", got, want)
		}
	}
}
