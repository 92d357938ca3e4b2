package engine

import (
	"math/rand"
	"sort"
	"testing"

	"patchindex/internal/core"
	"patchindex/internal/exec"
	"patchindex/internal/plan"
	"patchindex/internal/storage"
)

func tinyOpts(d core.Design) core.Options {
	return core.Options{Design: d, ShardBits: 64}
}

func newDB(t *testing.T) *Database {
	t.Helper()
	return NewDatabase()
}

func singleColTable(t *testing.T, db *Database, name string, vals []int64, parts int) *Table {
	t.Helper()
	tb, err := db.CreateTable(name, storage.Schema{{Name: "v", Kind: storage.KindInt64}}, parts)
	if err != nil {
		t.Fatal(err)
	}
	LoadColumnInt64(tb, vals)
	return tb
}

func sortedCopy(a []int64) []int64 {
	out := append([]int64(nil), a...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func distinctSorted(a []int64) []int64 {
	seen := map[int64]bool{}
	var out []int64
	for _, v := range a {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return sortedCopy(out)
}

func TestCreateTableErrors(t *testing.T) {
	db := newDB(t)
	if _, err := db.CreateTable("t", storage.Schema{{Name: "v", Kind: storage.KindInt64}}, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable("t", storage.Schema{{Name: "v", Kind: storage.KindInt64}}, 2); err == nil {
		t.Fatal("duplicate table did not error")
	}
	if db.Table("missing") != nil {
		t.Fatal("missing table not nil")
	}
}

func TestCreatePatchIndexValidation(t *testing.T) {
	db := newDB(t)
	tb, _ := db.CreateTable("t", storage.Schema{
		{Name: "i", Kind: storage.KindInt64},
		{Name: "f", Kind: storage.KindFloat64},
		{Name: "s", Kind: storage.KindString},
	}, 1)
	if err := tb.CreatePatchIndex("missing", core.NearlyUnique, tinyOpts(core.DesignBitmap)); err == nil {
		t.Fatal("unknown column accepted")
	}
	if err := tb.CreatePatchIndex("s", core.NearlySorted, tinyOpts(core.DesignBitmap)); err == nil {
		t.Fatal("NSC on string column accepted")
	}
	if err := tb.CreatePatchIndex("f", core.NearlyUnique, tinyOpts(core.DesignBitmap)); err == nil {
		t.Fatal("index on float column accepted")
	}
	if err := tb.CreatePatchIndex("s", core.NearlyUnique, tinyOpts(core.DesignBitmap)); err != nil {
		t.Fatalf("NUC on string column rejected: %v", err)
	}
	if err := tb.CreatePatchIndex("i", core.NearlySorted, tinyOpts(core.DesignBitmap)); err != nil {
		t.Fatalf("NSC on int column rejected: %v", err)
	}
	tb.DropPatchIndex("i")
	if tb.PatchIndexes("i") != nil {
		t.Fatal("DropPatchIndex did not drop")
	}
}

func TestDistinctPlansAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	vals := make([]int64, 5000)
	for i := range vals {
		vals[i] = rng.Int63n(1500) // plenty of duplicates
	}
	for _, d := range []core.Design{core.DesignBitmap, core.DesignIdentifier} {
		db := newDB(t)
		tb := singleColTable(t, db, "t", vals, 4)
		if err := tb.CreatePatchIndex("v", core.NearlyUnique, tinyOpts(d)); err != nil {
			t.Fatal(err)
		}
		want := distinctSorted(vals)
		for mode, tp := range []testPlan{refPlan, patchPlan} {
			op, err := distinctQuery(db, "t", "v", tp)
			if err != nil {
				t.Fatal(err)
			}
			got, err := exec.CollectInt64(op)
			if err != nil {
				t.Fatal(err)
			}
			got = sortedCopy(got)
			if len(got) != len(want) {
				t.Fatalf("%v mode %d: %d distinct values, want %d", d, mode, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%v mode %d: mismatch at %d", d, mode, i)
				}
			}
		}
	}
}

func TestDistinctParallelAndZBP(t *testing.T) {
	vals := make([]int64, 3000)
	for i := range vals {
		vals[i] = int64(i) // perfectly unique: zero patches
	}
	db := newDB(t)
	tb := singleColTable(t, db, "t", vals, 3)
	if err := tb.CreatePatchIndex("v", core.NearlyUnique, tinyOpts(core.DesignBitmap)); err != nil {
		t.Fatal(err)
	}
	if got := tb.ExceptionRate("v"); got != 0 {
		t.Fatalf("e = %f, want 0", got)
	}
	op, err := distinctQuery(db, "t", "v", testPlan{patch: true, Options: plan.Options{ZeroBranchPruning: true, Parallel: true}})
	if err != nil {
		t.Fatal(err)
	}
	got, err := exec.CollectInt64(op)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3000 {
		t.Fatalf("ZBP parallel distinct returned %d rows, want 3000", len(got))
	}
}

func TestSortPlansAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	vals := make([]int64, 4000)
	for i := range vals {
		vals[i] = int64(i)
	}
	for i := 0; i < 400; i++ {
		vals[rng.Intn(len(vals))] = rng.Int63n(4000)
	}
	for _, d := range []core.Design{core.DesignBitmap, core.DesignIdentifier} {
		db := newDB(t)
		tb := singleColTable(t, db, "t", vals, 4)
		if err := tb.CreatePatchIndex("v", core.NearlySorted, tinyOpts(d)); err != nil {
			t.Fatal(err)
		}
		want := sortedCopy(vals)
		for mode, tp := range []testPlan{refPlan, patchPlan} {
			op, err := sortQuery(db, "t", "v", false, tp)
			if err != nil {
				t.Fatal(err)
			}
			got, err := exec.CollectInt64(op)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("%v mode %d: %d rows, want %d", d, mode, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%v mode %d: order mismatch at %d: %d != %d", d, mode, i, got[i], want[i])
				}
			}
		}
	}
}

func TestSortDescendingPlans(t *testing.T) {
	vals := []int64{9, 8, 2, 7, 6, 5}
	db := newDB(t)
	tb := singleColTable(t, db, "t", vals, 1)
	opts := tinyOpts(core.DesignBitmap)
	opts.Descending = true
	if err := tb.CreatePatchIndex("v", core.NearlySorted, opts); err != nil {
		t.Fatal(err)
	}
	op, err := sortQuery(db, "t", "v", true, patchPlan)
	if err != nil {
		t.Fatal(err)
	}
	got, err := exec.CollectInt64(op)
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{9, 8, 7, 6, 5, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("desc sort = %v, want %v", got, want)
		}
	}
}

func TestInsertMaintainsNUC(t *testing.T) {
	db := newDB(t)
	tb := singleColTable(t, db, "t", []int64{10, 20, 30, 40}, 1)
	if err := tb.CreatePatchIndex("v", core.NearlyUnique, tinyOpts(core.DesignBitmap)); err != nil {
		t.Fatal(err)
	}
	// Insert a collision with 20 and a fresh value.
	err := db.Insert("t", []storage.Row{{storage.I64(20)}, {storage.I64(99)}})
	if err != nil {
		t.Fatal(err)
	}
	x := tb.PatchIndexes("v")[0]
	if x.Rows() != 6 {
		t.Fatalf("index rows = %d, want 6", x.Rows())
	}
	// Patches: rowID 1 (old 20) and rowID 4 (new 20) but not rowID 5 (99).
	if !x.IsPatch(1) || !x.IsPatch(4) || x.IsPatch(5) {
		t.Fatalf("patches = %v", x.Patches())
	}
	// The distinct query over the updated table must stay correct.
	op, _ := distinctQuery(db, "t", "v", patchPlan)
	got, _ := exec.CollectInt64(op)
	if len(got) != 5 {
		t.Fatalf("distinct after insert = %v", got)
	}
}

func TestInsertDuplicateWithinBatch(t *testing.T) {
	db := newDB(t)
	tb := singleColTable(t, db, "t", []int64{1, 2}, 1)
	if err := tb.CreatePatchIndex("v", core.NearlyUnique, tinyOpts(core.DesignBitmap)); err != nil {
		t.Fatal(err)
	}
	// Duplicates may also occur within the inserts (Section 5.1).
	if err := db.Insert("t", []storage.Row{{storage.I64(7)}, {storage.I64(7)}}); err != nil {
		t.Fatal(err)
	}
	x := tb.PatchIndexes("v")[0]
	if !x.IsPatch(2) || !x.IsPatch(3) {
		t.Fatalf("both inserted duplicates must be patches: %v", x.Patches())
	}
}

func TestInsertMaintainsNSC(t *testing.T) {
	db := newDB(t)
	tb := singleColTable(t, db, "t", []int64{1, 2, 3}, 1)
	if err := tb.CreatePatchIndex("v", core.NearlySorted, tinyOpts(core.DesignBitmap)); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("t", []storage.Row{{storage.I64(5)}, {storage.I64(0)}}); err != nil {
		t.Fatal(err)
	}
	x := tb.PatchIndexes("v")[0]
	if x.NumPatches() != 1 || !x.IsPatch(4) {
		t.Fatalf("patches = %v, want [4]", x.Patches())
	}
	op, _ := sortQuery(db, "t", "v", false, patchPlan)
	got, _ := exec.CollectInt64(op)
	want := []int64{0, 1, 2, 3, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sort after insert = %v, want %v", got, want)
		}
	}
}

func TestDeleteMaintainsIndexes(t *testing.T) {
	db := newDB(t)
	tb := singleColTable(t, db, "t", []int64{1, 5, 2, 3, 5}, 1)
	if err := tb.CreatePatchIndex("v", core.NearlyUnique, tinyOpts(core.DesignBitmap)); err != nil {
		t.Fatal(err)
	}
	// 5 occurs twice: patches {1, 4}.
	if err := db.DeleteRowIDs("t", 0, []uint64{0}); err != nil {
		t.Fatal(err)
	}
	x := tb.PatchIndexes("v")[0]
	if x.Rows() != 4 {
		t.Fatalf("rows = %d, want 4", x.Rows())
	}
	if !x.IsPatch(0) || !x.IsPatch(3) {
		t.Fatalf("patches after delete = %v, want [0 3]", x.Patches())
	}
	if tb.NumRows() != 4 {
		t.Fatalf("table rows = %d, want 4", tb.NumRows())
	}
}

func TestDeleteWhere(t *testing.T) {
	db := newDB(t)
	tb := singleColTable(t, db, "t", seqVals(100), 4)
	if err := tb.CreatePatchIndex("v", core.NearlySorted, tinyOpts(core.DesignBitmap)); err != nil {
		t.Fatal(err)
	}
	n, err := db.DeleteWhereInt64("t", "v", func(v int64) bool { return v%10 == 0 })
	if err != nil {
		t.Fatal(err)
	}
	if n != 10 {
		t.Fatalf("deleted %d rows, want 10", n)
	}
	if tb.NumRows() != 90 {
		t.Fatalf("rows = %d, want 90", tb.NumRows())
	}
	op, _ := sortQuery(db, "t", "v", false, patchPlan)
	got, _ := exec.CollectInt64(op)
	if len(got) != 90 {
		t.Fatalf("sort after delete returned %d rows", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			t.Fatal("sort after delete not sorted")
		}
	}
}

func TestModifyMaintainsNSC(t *testing.T) {
	db := newDB(t)
	tb := singleColTable(t, db, "t", []int64{1, 2, 3, 4}, 1)
	if err := tb.CreatePatchIndex("v", core.NearlySorted, tinyOpts(core.DesignBitmap)); err != nil {
		t.Fatal(err)
	}
	if err := db.Modify("t", 0, []uint64{1}, "v", []storage.Value{storage.I64(99)}); err != nil {
		t.Fatal(err)
	}
	x := tb.PatchIndexes("v")[0]
	if !x.IsPatch(1) {
		t.Fatal("modified tuple must be a patch")
	}
	op, _ := sortQuery(db, "t", "v", false, patchPlan)
	got, _ := exec.CollectInt64(op)
	want := []int64{1, 3, 4, 99}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sort after modify = %v, want %v", got, want)
		}
	}
}

func TestModifyMaintainsNUC(t *testing.T) {
	db := newDB(t)
	tb := singleColTable(t, db, "t", []int64{10, 20, 30}, 1)
	if err := tb.CreatePatchIndex("v", core.NearlyUnique, tinyOpts(core.DesignBitmap)); err != nil {
		t.Fatal(err)
	}
	// 30 -> 10 collides with rowID 0.
	if err := db.Modify("t", 0, []uint64{2}, "v", []storage.Value{storage.I64(10)}); err != nil {
		t.Fatal(err)
	}
	x := tb.PatchIndexes("v")[0]
	if !x.IsPatch(0) || !x.IsPatch(2) {
		t.Fatalf("patches after modify = %v, want [0 2]", x.Patches())
	}
	op, _ := distinctQuery(db, "t", "v", patchPlan)
	got, _ := exec.CollectInt64(op)
	if len(got) != 2 {
		t.Fatalf("distinct after modify = %v, want 2 values", got)
	}
}

func TestStringNUCInsert(t *testing.T) {
	db := newDB(t)
	tb, _ := db.CreateTable("t", storage.Schema{{Name: "s", Kind: storage.KindString}}, 1)
	tb.Load([]storage.Row{{storage.Str("a")}, {storage.Str("b")}})
	if err := tb.CreatePatchIndex("s", core.NearlyUnique, tinyOpts(core.DesignBitmap)); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("t", []storage.Row{{storage.Str("b")}}); err != nil {
		t.Fatal(err)
	}
	x := tb.PatchIndexes("s")[0]
	if !x.IsPatch(1) || !x.IsPatch(2) {
		t.Fatalf("string NUC patches = %v, want [1 2]", x.Patches())
	}
}

// TestRandomUpdateStreamPlansStayCorrect is the central integration
// property: under a random stream of inserts, deletes and modifies, the
// PatchIndex plans must keep returning exactly the reference results.
func TestRandomUpdateStreamPlansStayCorrect(t *testing.T) {
	for _, d := range []core.Design{core.DesignBitmap, core.DesignIdentifier} {
		rng := rand.New(rand.NewSource(32))
		db := newDB(t)
		vals := make([]int64, 800)
		for i := range vals {
			vals[i] = int64(i)
		}
		tb := singleColTable(t, db, "t", vals, 2)
		if err := tb.CreatePatchIndex("v", core.NearlySorted, tinyOpts(d)); err != nil {
			t.Fatal(err)
		}
		if err := tb.CreatePatchIndex("vu", core.NearlyUnique, tinyOpts(d)); err == nil {
			t.Fatal("index on missing column accepted")
		}
		for round := 0; round < 15; round++ {
			switch rng.Intn(3) {
			case 0:
				k := 1 + rng.Intn(10)
				rows := make([]storage.Row, k)
				for i := range rows {
					rows[i] = storage.Row{storage.I64(rng.Int63n(2000))}
				}
				if err := db.Insert("t", rows); err != nil {
					t.Fatal(err)
				}
			case 1:
				p := rng.Intn(2)
				n := len(tb.ReadInt64Column(p, "v"))
				if n == 0 {
					continue
				}
				k := 1 + rng.Intn(5)
				var rowIDs []uint64
				seen := map[int]bool{}
				for len(rowIDs) < k {
					r := rng.Intn(n)
					if !seen[r] {
						seen[r] = true
						rowIDs = append(rowIDs, uint64(r))
					}
				}
				sort.Slice(rowIDs, func(i, j int) bool { return rowIDs[i] < rowIDs[j] })
				if err := db.DeleteRowIDs("t", p, rowIDs); err != nil {
					t.Fatal(err)
				}
			case 2:
				p := rng.Intn(2)
				n := len(tb.ReadInt64Column(p, "v"))
				if n == 0 {
					continue
				}
				rid := uint64(rng.Intn(n))
				if err := db.Modify("t", p, []uint64{rid}, "v",
					[]storage.Value{storage.I64(rng.Int63n(2000))}); err != nil {
					t.Fatal(err)
				}
			}
			// Compare plans.
			refOp, _ := sortQuery(db, "t", "v", false, refPlan)
			want, err := exec.CollectInt64(refOp)
			if err != nil {
				t.Fatal(err)
			}
			piOp, _ := sortQuery(db, "t", "v", false, patchPlan)
			got, err := exec.CollectInt64(piOp)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("%v round %d: %d rows vs %d", d, round, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%v round %d: sort mismatch at %d", d, round, i)
				}
			}
			for _, x := range tb.PatchIndexes("v") {
				if err := x.Validate(); err != nil {
					t.Fatalf("%v round %d: %v", d, round, err)
				}
			}
		}
	}
}

func TestAutoCheckpointOff(t *testing.T) {
	db := newDB(t)
	db.AutoCheckpoint = false
	tb := singleColTable(t, db, "t", []int64{1, 2, 3}, 1)
	if err := db.Insert("t", []storage.Row{{storage.I64(4)}}); err != nil {
		t.Fatal(err)
	}
	if tb.Store().NumRows() != 3 {
		t.Fatal("insert leaked into base storage with AutoCheckpoint off")
	}
	if tb.NumRows() != 4 {
		t.Fatal("logical row count wrong")
	}
	tb.Checkpoint()
	if tb.Store().NumRows() != 4 {
		t.Fatal("Checkpoint did not propagate")
	}
}

func TestIndexMemoryAndExceptionRate(t *testing.T) {
	db := newDB(t)
	tb := singleColTable(t, db, "t", []int64{1, 1, 2, 2}, 1)
	if err := tb.CreatePatchIndex("v", core.NearlyUnique, tinyOpts(core.DesignIdentifier)); err != nil {
		t.Fatal(err)
	}
	if got := tb.ExceptionRate("v"); got != 1.0 {
		t.Fatalf("e = %f, want 1.0", got)
	}
	if got := tb.IndexMemoryBytes("v"); got != 32 {
		t.Fatalf("memory = %d, want 32", got)
	}
	if tb.ExceptionRate("none") != 0 {
		t.Fatal("missing index exception rate not 0")
	}
}

func seqVals(n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(i)
	}
	return out
}
