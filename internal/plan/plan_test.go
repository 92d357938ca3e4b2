package plan

import (
	"math/rand"
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

func TestSortPlanMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	vals := make([]int64, 3000)
	for i := range vals {
		vals[i] = int64(i)
	}
	for i := 0; i < 300; i++ {
		vals[rng.Intn(len(vals))] = rng.Int63n(3000)
	}
	for _, nparts := range []int{1, 4} {
		for _, desc := range []bool{false, true} {
			work := vals
			inputs := nscInputsDesc(t, work, nparts, desc)
			want := drainInt64(t, SortReference(inputs, 0, desc, Options{}), 0)
			inputs = nscInputsDesc(t, work, nparts, desc)
			got := drainInt64(t, Sort(inputs, 0, desc, Options{}), 0)
			if len(got) != len(want) {
				t.Fatalf("parts=%d desc=%v: length %d vs %d", nparts, desc, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("parts=%d desc=%v: mismatch at %d: %d vs %d", nparts, desc, i, got[i], want[i])
				}
			}
		}
	}
}

func nscInputsDesc(t *testing.T, vals []int64, nparts int, desc bool) []PartitionInput {
	views, partVals := buildParts(t, vals, nparts)
	inputs := make([]PartitionInput, nparts)
	for p := range inputs {
		inputs[p] = PartitionInput{
			View:  views[p],
			Index: core.BuildNSC(partVals[p], core.Options{ShardBits: 64, Descending: desc}),
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
