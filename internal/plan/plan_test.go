package plan

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"patchindex/internal/core"
	"patchindex/internal/exec"
	"patchindex/internal/pdt"
	"patchindex/internal/storage"
)

func buildParts(t *testing.T, vals []int64, nparts int) ([]*pdt.View, [][]int64) {
	t.Helper()
	schema := storage.Schema{{Name: "v", Kind: storage.KindInt64}}
	table := storage.NewTable("t", schema, nparts)
	rows := make([]storage.Row, len(vals))
	for i, v := range vals {
		rows[i] = storage.Row{storage.I64(v)}
	}
	table.LoadRows(rows)
	views := make([]*pdt.View, nparts)
	partVals := make([][]int64, nparts)
	for p := 0; p < nparts; p++ {
		views[p] = pdt.NewView(table.Partition(p), nil)
		partVals[p] = table.Partition(p).Column(0).Int64s()
	}
	return views, partVals
}

func nucInputs(t *testing.T, vals []int64, nparts int, d core.Design) []PartitionInput {
	views, partVals := buildParts(t, vals, nparts)
	patchSets := core.GlobalNUCPatches(partVals)
	inputs := make([]PartitionInput, nparts)
	for p := range inputs {
		inputs[p] = PartitionInput{
			View:  views[p],
			Index: core.New(core.NearlyUnique, uint64(len(partVals[p])), patchSets[p], core.Options{Design: d, ShardBits: 64}),
		}
	}
	return inputs
}

func nscInputs(t *testing.T, vals []int64, nparts int, d core.Design) []PartitionInput {
	views, partVals := buildParts(t, vals, nparts)
	inputs := make([]PartitionInput, nparts)
	for p := range inputs {
		inputs[p] = PartitionInput{
			View:  views[p],
			Index: core.BuildNSC(partVals[p], core.Options{Design: d, ShardBits: 64}),
		}
	}
	return inputs
}

func drainInt64(t *testing.T, op exec.Operator, col int) []int64 {
	t.Helper()
	batches, err := exec.Drain(op)
	if err != nil {
		t.Fatal(err)
	}
	var out []int64
	for _, b := range batches {
		out = append(out, b.Cols[col].I64...)
	}
	return out
}

func TestDistinctPlanMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	vals := make([]int64, 4000)
	for i := range vals {
		vals[i] = rng.Int63n(900)
	}
	for _, nparts := range []int{1, 3} {
		for _, zbp := range []bool{false, true} {
			inputs := nucInputs(t, vals, nparts, core.DesignBitmap)
			want := drainInt64(t, DistinctReference(inputs, 0, Options{}), 0)
			inputs = nucInputs(t, vals, nparts, core.DesignBitmap)
			got := drainInt64(t, Distinct(inputs, 0, Options{ZeroBranchPruning: zbp}), 0)
			sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
			sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
			if len(got) != len(want) {
				t.Fatalf("parts=%d zbp=%v: %d vs %d distinct", nparts, zbp, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("parts=%d zbp=%v: mismatch at %d", nparts, zbp, i)
				}
			}
		}
	}
}

func TestDistinctZBPDropsAllOverheadWhenClean(t *testing.T) {
	vals := make([]int64, 2000)
	for i := range vals {
		vals[i] = int64(i)
	}
	inputs := nucInputs(t, vals, 2, core.DesignBitmap)
	op := Distinct(inputs, 0, Options{ZeroBranchPruning: true})
	// With zero patches everywhere, the plan degenerates to plain scans.
	if _, ok := op.(*exec.Union); !ok {
		// Single partition would be a *Scan; with 2 partitions a Union
		// of scans.
		t.Fatalf("ZBP plan has unexpected shape %T", op)
	}
	got := drainInt64(t, op, 0)
	if len(got) != 2000 {
		t.Fatalf("ZBP distinct returned %d rows", len(got))
	}
}

// TestSortPlanMatchesReference requires the PatchIndex sort plan to
// return the reference plan's rows in order over partitions with pending
// inserts, deletes and modifies, in both directions, with and without
// zero-branch pruning. Partition 0 stays sorted and untouched, so
// pruning removes its patch subtree.
func TestSortPlanMatchesReference(t *testing.T) {
	for _, nparts := range []int{1, 3, 4} {
		for _, desc := range []bool{false, true} {
			for _, zbp := range []bool{false, true} {
				inputs := nscDeltaInputs(t, 41+int64(nparts), nparts, desc)
				want := drainInt64(t, SortReference(inputs, 0, desc, Options{}), 0)
				inputs = nscDeltaInputs(t, 41+int64(nparts), nparts, desc)
				if nparts > 1 && inputs[0].Index.NumPatches() != 0 {
					t.Fatalf("parts=%d: partition 0 has %d patches", nparts, inputs[0].Index.NumPatches())
				}
				got := drainInt64(t, Sort(inputs, 0, desc, Options{ZeroBranchPruning: zbp}), 0)
				if len(got) != len(want) {
					t.Fatalf("parts=%d desc=%v zbp=%v: length %d vs %d", nparts, desc, zbp, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("parts=%d desc=%v zbp=%v: mismatch at %d: %d vs %d", nparts, desc, zbp, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// nscDeltaInputs loads 3000 ascending values with duplicates and noise
// into nparts partitions, gives every partition but the first (all of
// them when there is one) a pending delta of inserts, deletes and
// modifies, and indexes each partition's merged view.
func nscDeltaInputs(t *testing.T, seed int64, nparts int, desc bool) []PartitionInput {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	vals := make([]int64, 3000)
	for i := range vals {
		vals[i] = int64(i / 3)
	}
	if desc {
		slices.Reverse(vals)
	}
	first := 0
	if nparts > 1 {
		first = (len(vals) + nparts - 1) / nparts
	}
	for i := 0; i < 300; i++ {
		vals[first+rng.Intn(len(vals)-first)] = rng.Int63n(1000)
	}
	schema := storage.Schema{{Name: "v", Kind: storage.KindInt64}}
	table := storage.NewTable("t", schema, nparts)
	rows := make([]storage.Row, len(vals))
	for i, v := range vals {
		rows[i] = storage.Row{storage.I64(v)}
	}
	table.LoadRows(rows)
	inputs := make([]PartitionInput, nparts)
	for p := range inputs {
		part := table.Partition(p)
		d := pdt.NewDelta(schema, part.NumRows())
		if p > 0 || nparts == 1 {
			for i := 0; i < 20; i++ {
				d.Insert(storage.Row{storage.I64(rng.Int63n(1000))})
			}
			for i := 0; i < 15; i++ {
				d.Delete(rng.Intn(d.NumRows()))
			}
			for i := 0; i < 10; i++ {
				d.Modify(rng.Intn(d.NumRows()), 0, storage.I64(rng.Int63n(1000)))
			}
		}
		view := pdt.NewView(part, d)
		logical := make([]int64, view.NumRows())
		for i := range logical {
			logical[i] = view.Get(i, 0).I
		}
		inputs[p] = PartitionInput{
			View:  view,
			Index: core.BuildNSC(logical, core.Options{ShardBits: 64, Descending: desc}),
		}
	}
	return inputs
}

func TestJoinPlanMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	// Fact: nearly sorted FK column; dimension: sorted unique keys.
	fact := make([]int64, 5000)
	for i := range fact {
		fact[i] = int64(i % 1000)
	}
	sort.Slice(fact, func(i, j int) bool { return fact[i] < fact[j] })
	for i := 0; i < 250; i++ {
		fact[rng.Intn(len(fact))] = rng.Int63n(1000)
	}
	dim := make([]int64, 1000)
	for i := range dim {
		dim[i] = int64(i)
	}
	mkDim := func() exec.Operator { return exec.NewInt64Source("dk", dim, nil) }

	for _, nparts := range []int{1, 3} {
		for _, zbp := range []bool{false, true} {
			in := JoinInput{
				Fact:     nscInputs(t, fact, nparts, core.DesignBitmap),
				FactCols: []int{0},
				FactKey:  0,
				Dim:      mkDim(),
				DimKey:   0,
			}
			want := drainInt64(t, JoinReference(in, Options{}), 0)
			in.Fact = nscInputs(t, fact, nparts, core.DesignBitmap)
			in.Dim = mkDim()
			got := drainInt64(t, Join(in, Options{ZeroBranchPruning: zbp}), 0)
			sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
			sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
			if len(got) != len(want) {
				t.Fatalf("parts=%d zbp=%v: join rows %d vs %d", nparts, zbp, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("parts=%d zbp=%v: join mismatch at %d", nparts, zbp, i)
				}
			}
		}
	}
}

func TestJoinPlanZBPCleanData(t *testing.T) {
	fact := make([]int64, 2000)
	for i := range fact {
		fact[i] = int64(i / 2) // sorted, zero patches
	}
	dim := make([]int64, 1000)
	for i := range dim {
		dim[i] = int64(i)
	}
	in := JoinInput{
		Fact:     nscInputs(t, fact, 2, core.DesignBitmap),
		FactCols: []int{0},
		FactKey:  0,
		Dim:      exec.NewInt64Source("dk", dim, nil),
		DimKey:   0,
	}
	for _, f := range in.Fact {
		if f.Index.NumPatches() != 0 {
			t.Fatal("expected zero patches")
		}
	}
	got := drainInt64(t, Join(in, Options{ZeroBranchPruning: true}), 0)
	if len(got) != 2000 {
		t.Fatalf("ZBP join rows = %d, want 2000", len(got))
	}
}

func TestCostModelShapes(t *testing.T) {
	// PatchIndex wins distinct/sort at low e for large tables.
	if !UsePatchIndexForDistinct(1_000_000, 10_000) {
		t.Fatal("PI should win distinct at e=0.01")
	}
	if !UsePatchIndexForSort(1_000_000, 10_000) {
		t.Fatal("PI should win sort at e=0.01")
	}
	// At e=1 the PI distinct plan degenerates to reference + overhead.
	if UsePatchIndexForDistinct(1000, 1000) {
		t.Fatal("PI should lose distinct at e=1 on small tables")
	}
	// Large join: PI wins at low e.
	if !UsePatchIndexForJoin(1_000_000, 50_000, 10_000) {
		t.Fatal("PI should win large join at e=0.05")
	}
	// Tiny join (Q12-like): cloning overhead dominates.
	if UsePatchIndexForJoin(100, 5, 50) {
		t.Fatal("PI should lose tiny joins (Section 6.3 Q12)")
	}
	// Costs are monotone in patches.
	if CostDistinctPatch(1000, 100) >= CostDistinctPatch(1000, 900) {
		// more patches -> more aggregation work
	} else if CostDistinctPatch(1000, 900) < CostDistinctPatch(1000, 100) {
		t.Fatal("cost not monotone in patches")
	}
}

func TestParallelPlansMatchSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	vals := make([]int64, 3000)
	for i := range vals {
		vals[i] = rng.Int63n(700)
	}
	inputs := nucInputs(t, vals, 4, core.DesignBitmap)
	seq := drainInt64(t, Distinct(inputs, 0, Options{}), 0)
	inputs = nucInputs(t, vals, 4, core.DesignBitmap)
	par := drainInt64(t, Distinct(inputs, 0, Options{Parallel: true}), 0)
	sort.Slice(seq, func(i, j int) bool { return seq[i] < seq[j] })
	sort.Slice(par, func(i, j int) bool { return par[i] < par[j] })
	if len(seq) != len(par) {
		t.Fatalf("parallel %d vs sequential %d rows", len(par), len(seq))
	}
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatalf("parallel mismatch at %d", i)
		}
	}
}
